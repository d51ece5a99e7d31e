// The "reference" kernel backend: the original straightforward loops, kept
// as the correctness oracle every other backend is tested against. The
// kernel bodies must stay simple enough to audit by eye — tiling and
// intrinsics belong in backend_simd.cc. GCC vector extensions (vector_size
// types, __builtin_shufflevector) are allowed: they name no ISA.
//
// Each kernel is compiled once, for the baseline ISA, and does the same
// operations on every output element: GEMM adds alpha*A(i, p) * B(p, j) in
// ascending p, skips a zero alpha*A(i, p), and rounds the product before
// adding it (no FMA: this file builds with -ffp-contract=off). GatherDots
// does the single-row GEMM's operations on each of its outputs, through the
// shared transposed driver (gather_dots.h) with 4-float vectors; Axpy is
// y[i] += alpha * x[i], product then add, on every element. On a host
// without FMA these are the fast kernels (the simd backend's portable
// variant emulates each fused step).

#include <algorithm>
#include <vector>

#include "linalg/backend.h"
#include "linalg/gather_dots.h"

namespace fedgta {
namespace linalg {
namespace {

/// Columns per contiguous copy of a strided B. Bounds the per-thread copy
/// (k x 256 floats) when B is wide, e.g. the transposed signature matrix
/// of an Eq. 6 exact sweep.
constexpr int64_t kPanelCols = 256;

/// c[0, w) += alpha * A(i, :) * B(:, [0, w)), where B row p starts at
/// b + p * ldb and is contiguous.
inline __attribute__((always_inline)) void AccumulateRow(
    const GemmCall& call, int64_t i, const float* b, int64_t ldb, int64_t w,
    float* c) {
  for (int64_t p = 0; p < call.k; ++p) {
    const float a_ip = call.alpha * call.a.At(i, p);
    if (a_ip == 0.0f) continue;
    const float* b_row = b + p * ldb;
    for (int64_t j = 0; j < w; ++j) c[j] += a_ip * b_row[j];
  }
}

/// The GemmRows single-row operations on element (0, j), for the
/// transposed GatherDots driver: start at zero, add a_p * t_p in ascending
/// p with the product rounded first, skip a zero a_p.
struct ReferenceDotOp {
  static constexpr bool kSkipZero = true;
  static constexpr int64_t kPanel = 0;
  template <class Vec>
  inline __attribute__((always_inline)) static void Madd(Vec& sum, float a_p,
                                                         const Vec& col) {
    sum += a_p * col;
  }
};

}  // namespace

namespace internal {

// Each kernel starts a cache line, and the backend calls that copy (never
// an inlined one): where the linker puts the rest of the program must not
// change how the hot loops are fetched (ci.sh checks).
#define FEDGTA_REFERENCE_KERNEL __attribute__((aligned(64), noinline))

FEDGTA_REFERENCE_KERNEL void ReferenceGemmRows(const GemmCall& call,
                                               int64_t row_begin,
                                               int64_t row_end) {
  const int64_t n = call.n;
  const int64_t k = call.k;
  for (int64_t i = row_begin; i < row_end; ++i) {
    float* c_row = call.c + i * n;
    if (call.beta == 0.0f) {
      std::fill(c_row, c_row + n, 0.0f);
    } else if (call.beta != 1.0f) {
      for (int64_t j = 0; j < n; ++j) c_row[j] *= call.beta;
    }
  }
  // ikj loop order: stream through B rows when B is untransposed
  // (col_stride == 1), the common case.
  if (call.b.col_stride == 1) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      AccumulateRow(call, i, call.b.base, call.b.row_stride, n,
                    call.c + i * n);
    }
    return;
  }
  // A single row reads the strided B once; copying it would cost as much.
  if (row_end - row_begin < 2) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      float* c_row = call.c + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float a_ip = call.alpha * call.a.At(i, p);
        if (a_ip == 0.0f) continue;
        for (int64_t j = 0; j < n; ++j) c_row[j] += a_ip * call.b.At(p, j);
      }
    }
    return;
  }
  // Otherwise copy B into contiguous column panels, so the inner loop
  // streams them like an untransposed B.
  thread_local std::vector<float> panel;
  for (int64_t j0 = 0; j0 < n; j0 += kPanelCols) {
    const int64_t w = std::min(kPanelCols, n - j0);
    panel.resize(static_cast<size_t>(k * w));
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t j = 0; j < w; ++j) panel[p * w + j] = call.b.At(p, j0 + j);
    }
    for (int64_t i = row_begin; i < row_end; ++i) {
      AccumulateRow(call, i, panel.data(), w, w, call.c + i * n + j0);
    }
  }
}

FEDGTA_REFERENCE_KERNEL void ReferenceSpmmRows(const SpmmCall& call,
                                               int64_t row_begin,
                                               int64_t row_end) {
  const int64_t f = call.f;
  for (int64_t r = row_begin; r < row_end; ++r) {
    float* dst = call.out + r * f;
    std::fill(dst, dst + f, 0.0f);
    for (int64_t p = call.row_ptr[r]; p < call.row_ptr[r + 1]; ++p) {
      const float w = call.values[p];
      const float* src =
          call.dense + static_cast<int64_t>(call.col_idx[p]) * f;
      for (int64_t j = 0; j < f; ++j) dst[j] += w * src[j];
    }
  }
}

FEDGTA_REFERENCE_KERNEL void ReferenceGatherDots(const float* row,
                                                 const float* table, int64_t d,
                                                 std::span<const int32_t> idx,
                                                 float* out) {
  TransposedGatherDots<Floats4, ReferenceDotOp>(row, table, d, idx, out);
}

FEDGTA_REFERENCE_KERNEL void ReferenceAxpy(float alpha,
                                           std::span<const float> x,
                                           std::span<float> y) {
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

#undef FEDGTA_REFERENCE_KERNEL

}  // namespace internal

namespace {

class ReferenceBackend : public Backend {
 public:
  std::string_view name() const override { return "reference"; }

  void GemmRows(const GemmCall& call, int64_t row_begin,
                int64_t row_end) const override {
    internal::ReferenceGemmRows(call, row_begin, row_end);
  }

  void SpmmRows(const SpmmCall& call, int64_t row_begin,
                int64_t row_end) const override {
    internal::ReferenceSpmmRows(call, row_begin, row_end);
  }

  void GatherDots(const float* row, const float* table, int64_t d,
                  std::span<const int32_t> idx, float* out) const override {
    internal::ReferenceGatherDots(row, table, d, idx, out);
  }

  void Axpy(float alpha, std::span<const float> x,
            std::span<float> y) const override {
    internal::ReferenceAxpy(alpha, x, y);
  }
};

}  // namespace

std::unique_ptr<Backend> internal::MakeReferenceBackend() {
  return std::make_unique<ReferenceBackend>();
}

}  // namespace linalg
}  // namespace fedgta
