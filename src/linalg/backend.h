#ifndef FEDGTA_LINALG_BACKEND_H_
#define FEDGTA_LINALG_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fedgta {
namespace linalg {

/// Strided read-only view of a dense GEMM operand. Covers all four
/// transpose combinations with one kernel: an untransposed operand has
/// row_stride == cols, col_stride == 1; a transposed one swaps them.
struct GemmView {
  const float* base = nullptr;
  int64_t row_stride = 0;
  int64_t col_stride = 0;
  float At(int64_t r, int64_t c) const {
    return base[r * row_stride + c * col_stride];
  }
};

/// One validated GEMM invocation: C = alpha * A_eff * B_eff + beta * C with
/// A_eff m x k, B_eff k x n, C row-major m x n (leading dimension n). The
/// dispatch layer (ops.cc) checks shapes; backends may assume consistency.
struct GemmCall {
  GemmView a;
  GemmView b;
  int64_t m = 0;
  int64_t n = 0;
  int64_t k = 0;
  float alpha = 1.0f;
  float beta = 0.0f;
  float* c = nullptr;
};

/// One validated SpMM invocation: out = A * dense where A is CSR
/// (rows x inner), dense is row-major inner x f, out is row-major rows x f.
/// Kernels OVERWRITE the rows they are assigned (they must not rely on
/// `out` being pre-zeroed — the dispatch layer hands them reusable scratch).
struct SpmmCall {
  const int64_t* row_ptr = nullptr;
  const int32_t* col_idx = nullptr;
  const float* values = nullptr;
  const float* dense = nullptr;
  int64_t f = 0;
  float* out = nullptr;
};

/// A kernel backend: the compute substrate every dense/sparse hot path in
/// the library runs on (local GNN training, Eq. 3 label propagation, Eq. 5
/// moments, evaluation). Implementations register under a name and are
/// selected process-wide via FEDGTA_BACKEND / --backend / SetActiveBackend.
/// A fleet runs one backend: the server ships its name in the experiment
/// config, and every worker and aggregator switches to it before it builds
/// a model (SetupFromWireConfig, fed/remote_config.h).
///
/// Contracts every backend must honor:
///  * Row-range kernels (GemmRows / SpmmRows / RowSoftmaxRows) are invoked
///    by the dispatch layer over disjoint row ranges, possibly concurrently
///    from the shared thread pool. They may only write output rows inside
///    their range.
///  * Determinism within a backend: for a fixed backend, the value written
///    for output element (i, j) must not depend on where the row-range
///    boundaries fall. In practice: accumulate over k (GEMM) or stored
///    entries (SpMM) in an order fixed by the element, never by the chunk.
///    This keeps multi-threaded runs bit-identical to serial ones per
///    backend (ParallelDeterminismTest relies on it).
///  * Operand symmetry within a backend: element (i, j) of X·Yᵀ must be
///    bitwise equal to element (j, i) of Y·Xᵀ, whatever the call shapes.
///    Products commute, so it suffices that an element's k-accumulation
///    order not depend on which operand a row came in through. The
///    symmetric LSH pass of Eq. 6 exact-checks each unordered pair once
///    and mirrors the result into both rows on this contract.
///  * GatherDots(row, table, d, idx) writes, for every j, the bits of
///    GemmRows element (0, j) of row times the gathered rows, so the LSH
///    pass's in-place exact check agrees with the exact sweep's block. Both
///    built-ins override it to run each candidate as one vector lane
///    (gather_dots.h) with the backend's own GemmRows operations on that
///    element; the base method gathers and runs GemmRows.
///  * ISA variants within a backend: a backend that compiles one kernel for
///    several ISAs and picks one at run time must make every variant do
///    identical per-element operations, so its kernels write the same bits
///    whichever variant the host picks; only how many elements one
///    instruction covers may differ. "simd" is such a backend: it fuses
///    every multiply-add, with _mm256_fmadd_* on AVX2 and with std::fma's
///    bits on its portable variant, and fuses nothing else (backend_simd.cc
///    lists its operations); backend_equivalence_test pins its variants to
///    each other. "reference" compiles each kernel once, for the baseline
///    ISA, and never fuses and never reassociates. This pins the kernels
///    only: RowSoftmaxRows and the nn code call libm's exp, whose bits
///    glibc may pick per CPU.
///  * Cross-backend results only need to agree within floating-point
///    reassociation tolerance (the equivalence suite uses 1e-4 relative).
class Backend {
 public:
  virtual ~Backend() = default;

  /// Registry name ("reference", "simd", ...).
  virtual std::string_view name() const = 0;

  /// Human-readable variant actually running, e.g. "simd(avx2+fma)" vs
  /// "simd(portable)" after runtime CPU dispatch. Defaults to name().
  virtual std::string description() const { return std::string(name()); }

  /// Computes rows [row_begin, row_end) of call.c.
  virtual void GemmRows(const GemmCall& call, int64_t row_begin,
                        int64_t row_end) const = 0;

  /// Computes (overwrites) rows [row_begin, row_end) of call.out.
  virtual void SpmmRows(const SpmmCall& call, int64_t row_begin,
                        int64_t row_end) const = 0;

  /// out[j] = row · table[idx[j]] for every j < idx.size(), where `row` has
  /// d floats and `table` is row-major with d columns (the Eq. 6 exact check
  /// of one moment row against its screened candidates). out[j] must be
  /// bitwise equal to element (0, j) of the GemmRows product of `row` (1 x d)
  /// with the listed rows gathered into a transposed d x |idx| view, alpha 1,
  /// beta 0. The base implementation gathers the rows and runs exactly that
  /// GemmRows; an override reads them in place.
  virtual void GatherDots(const float* row, const float* table, int64_t d,
                          std::span<const int32_t> idx, float* out) const;

  /// y += alpha * x. Base implementation is the portable scalar loop.
  virtual void Axpy(float alpha, std::span<const float> x,
                    std::span<float> y) const;

  /// Double-precision dot product of equal-length float vectors.
  virtual double Dot(std::span<const float> a,
                     std::span<const float> b) const;

  /// Numerically stable softmax over rows [row_begin, row_end) of a
  /// row-major rows x cols buffer, in place.
  virtual void RowSoftmaxRows(float* data, int64_t cols, int64_t row_begin,
                              int64_t row_end) const;

  /// out[j] = sum over rows of data[r*cols + j]; `out` has length cols and
  /// is overwritten.
  virtual void ColumnSums(const float* data, int64_t rows, int64_t cols,
                          float* out) const;
};

/// Registers a backend factory under `name` (later registrations replace
/// earlier ones; instances are created lazily and cached). The two
/// built-ins — "reference" and "simd" — are always registered.
void RegisterBackend(std::string name,
                     std::function<std::unique_ptr<Backend>()> factory);

/// Sorted names of every registered backend.
std::vector<std::string> ListBackends();

/// Backend registered under `name`, or nullptr when unknown.
const Backend* FindBackend(std::string_view name);

/// The process-wide backend all kernels dispatch through. On first use the
/// FEDGTA_BACKEND environment variable picks the backend (unset/empty =
/// "simd"); an unknown name aborts with the available list. Selection
/// is recorded in the metrics registry as
/// `linalg.backend.selected.<name>`. A default that lands on simd's
/// portable variant on x86 logs a WARNING: "reference" is faster there.
const Backend& ActiveBackend();

/// Replaces the process-wide backend. InvalidArgument on unknown names.
/// Must not be called while kernels are in flight (intended for startup
/// flag handling, tests, and bench sweeps between timed sections).
Status SetActiveBackend(std::string_view name);

/// name() of ActiveBackend().
std::string_view ActiveBackendName();

/// RAII backend override for tests and benchmarks: selects `name` (which
/// must exist) on construction and restores the previous backend on
/// destruction.
class ScopedBackend {
 public:
  explicit ScopedBackend(std::string_view name);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  std::string previous_;
};

namespace internal {
/// Built-in backend factories (registered automatically; exposed so the
/// registry can construct them without static-initialization-order games).
std::unique_ptr<Backend> MakeReferenceBackend();
std::unique_ptr<Backend> MakeSimdBackend();

/// The "simd" backend with a chosen ISA variant instead of the cpuid pick,
/// so tests can hold both variants to the same bits on one host. kAvx2
/// aborts where SimdAvx2Supported() is false. Not registered under any
/// name.
enum class SimdVariant { kPortable, kAvx2 };
bool SimdAvx2Supported();
std::unique_ptr<Backend> MakeSimdVariantBackend(SimdVariant variant);
}  // namespace internal

}  // namespace linalg
}  // namespace fedgta

#endif  // FEDGTA_LINALG_BACKEND_H_
