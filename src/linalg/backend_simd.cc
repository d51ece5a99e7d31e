// The "simd" kernel backend, the library default: a cache-tiled GEMM
// (gemm_tile.h) and vectorized kernels, picked once per process by cpuid:
// AVX2+FMA kernels behind `target("avx2,fma")` where the host has them, a
// portable variant elsewhere. The binary is compiled for the baseline ISA.
//
// The two variants write the same bits. Each multiply-add is one explicit
// fused step, `_mm256_fmadd_*` on AVX2 and PortableFma (std::fma's bits,
// computed without libm) on the portable path, and this file builds with
// -ffp-contract=off, so nothing else fuses. Per output element: a GEMM
// k-panel starts at zero and takes one fma per p in ascending order
// (GatherDots repeats that for element (0, j)); SpMM takes one fma per
// stored entry in order; Axpy is fma(alpha, x, y). Dot, ColumnSums and
// RowSoftmaxRows are the base methods. On x86 the portable variant is
// 20-26x slower than "reference" (EXPERIMENTS.md): on x86 hosts without
// AVX2+FMA, "reference" is the fast backend.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "linalg/backend.h"
#include "linalg/gather_dots.h"
#include "linalg/gemm_tile.h"

#if defined(__x86_64__) || defined(__i386__)
#define FEDGTA_SIMD_X86 1
#include <immintrin.h>
#else
#define FEDGTA_SIMD_X86 0
#endif

namespace fedgta {
namespace linalg {
namespace {

/// fma(a, b, c) rounded once, in plain double arithmetic: the product of
/// two floats is exact in double, TwoSum recovers the error of the double
/// sum, and rounding that sum to odd before narrowing rounds the exact
/// a*b + c correctly to float, since 53 >= 24 + 2 bits (Boldo and
/// Melquiond, "Emulation of FMA and correctly rounded sums", 2008). So it
/// is bitwise equal to std::fma for every input (with IEEE double
/// arithmetic, not x87 extended precision), needs no FMA hardware and no
/// libm call, and inlines into the loops below. A host without FMA
/// hardware runs libm's fmaf in software, about 45x slower than this.
/// Targets whose baseline ISA fuses (FP_FAST_FMAF, e.g. AArch64) use the
/// instruction instead.
inline float PortableFma(float a, float b, float c) {
#ifdef FP_FAST_FMAF
  return std::fma(a, b, c);
#else
  const double p = static_cast<double>(a) * static_cast<double>(b);
  const double s = p + static_cast<double>(c);
  const double v = s - p;
  const double err = (p - (s - v)) + (static_cast<double>(c) - v);
  const uint64_t sb = std::bit_cast<uint64_t>(s);
  const uint64_t eb = std::bit_cast<uint64_t>(err);
  // Step an even, finite, inexact sum to its odd neighbour on err's side:
  // up in magnitude when err has s's sign, down otherwise. Branch free.
  const uint64_t step = uint64_t{(eb << 1) != 0} & ~sb & 1 &
                        uint64_t{(~sb & (uint64_t{0x7FF} << 52)) != 0};
  const uint64_t down = (eb ^ sb) >> 63;
  return static_cast<float>(
      std::bit_cast<double>(sb + step - 2 * (step & down)));
#endif
}

/// Portable 4x8 microkernel: one fma per (row, column, p) step.
struct PortableMicroTraits {
  static constexpr int MR = 4;
  static constexpr int NR = 8;

  static void Micro(const float* ap, const float* bp, int64_t kc,
                    float* acc) {
    float local[MR * NR] = {};
    for (int64_t p = 0; p < kc; ++p) {
      const float* a = ap + p * MR;
      const float* b = bp + p * NR;
      for (int i = 0; i < MR; ++i) {
        const float ai = a[i];
        for (int j = 0; j < NR; ++j) {
          local[i * NR + j] = PortableFma(ai, b[j], local[i * NR + j]);
        }
      }
    }
    std::copy(local, local + MR * NR, acc);
  }
};

/// The GemmRows arithmetic on element (0, j) of a single-row product, for
/// the transposed GatherDots driver: each KC-deep k-panel sums from zero,
/// one fma per p, with no zero skip, and the panels are added in order.
struct PortableDotOp {
  static constexpr bool kSkipZero = false;
  static constexpr int64_t kPanel = internal::kGemmKC;
  template <class Vec>
  inline __attribute__((always_inline)) static void Madd(Vec& sum, float a_p,
                                                         const Vec& col) {
    for (size_t w = 0; w < sizeof(Vec) / sizeof(float); ++w) {
      sum[w] = PortableFma(a_p, col[w], sum[w]);
    }
  }
};

void SpmmRowsPortable(const SpmmCall& call, int64_t row_begin,
                      int64_t row_end) {
  const int64_t f = call.f;
  for (int64_t r = row_begin; r < row_end; ++r) {
    float* dst = call.out + r * f;
    std::fill(dst, dst + f, 0.0f);
    for (int64_t p = call.row_ptr[r]; p < call.row_ptr[r + 1]; ++p) {
      const float w = call.values[p];
      const float* src =
          call.dense + static_cast<int64_t>(call.col_idx[p]) * f;
      for (int64_t j = 0; j < f; ++j) dst[j] = PortableFma(w, src[j], dst[j]);
    }
  }
}

void AxpyPortable(float alpha, std::span<const float> x, std::span<float> y) {
  for (size_t i = 0; i < x.size(); ++i) y[i] = PortableFma(alpha, x[i], y[i]);
}

void GemmRowsPortable(const GemmCall& call, int64_t row_begin,
                      int64_t row_end) {
  internal::TiledGemmRows<PortableMicroTraits>(call, row_begin, row_end);
}

void GatherDotsPortable(const float* row, const float* table, int64_t d,
                        std::span<const int32_t> idx, float* out) {
  internal::TransposedGatherDots<internal::Floats4, PortableDotOp>(
      row, table, d, idx, out);
}

#if FEDGTA_SIMD_X86

/// As PortableDotOp, with _mm256_fmadd_ps. Not always_inline: the driver is
/// inlined into SimdGatherDotsAvx2 first, whose flatten then inlines this
/// into a function that has fma.
struct Avx2DotOp {
  static constexpr bool kSkipZero = false;
  static constexpr int64_t kPanel = internal::kGemmKC;
  __attribute__((target("avx2,fma"))) static void Madd(
      internal::Floats8& sum, float a_p, const internal::Floats8& col) {
    sum = _mm256_fmadd_ps(_mm256_set1_ps(a_p), col, sum);
  }
};

/// 8x8 AVX2/FMA microkernel: eight ymm accumulators, one broadcast per A
/// element, one fused multiply-add per (row, B-vector) pair.
struct Avx2MicroTraits {
  static constexpr int MR = 8;
  static constexpr int NR = 8;

  __attribute__((target("avx2,fma"))) static void Micro(const float* ap,
                                                        const float* bp,
                                                        int64_t kc,
                                                        float* acc) {
    __m256 c0 = _mm256_setzero_ps();
    __m256 c1 = _mm256_setzero_ps();
    __m256 c2 = _mm256_setzero_ps();
    __m256 c3 = _mm256_setzero_ps();
    __m256 c4 = _mm256_setzero_ps();
    __m256 c5 = _mm256_setzero_ps();
    __m256 c6 = _mm256_setzero_ps();
    __m256 c7 = _mm256_setzero_ps();
    for (int64_t p = 0; p < kc; ++p) {
      const __m256 b = _mm256_loadu_ps(bp + p * NR);
      const float* a = ap + p * MR;
      c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 0), b, c0);
      c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 1), b, c1);
      c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 2), b, c2);
      c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 3), b, c3);
      c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 4), b, c4);
      c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 5), b, c5);
      c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 6), b, c6);
      c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 7), b, c7);
    }
    _mm256_storeu_ps(acc + 0 * NR, c0);
    _mm256_storeu_ps(acc + 1 * NR, c1);
    _mm256_storeu_ps(acc + 2 * NR, c2);
    _mm256_storeu_ps(acc + 3 * NR, c3);
    _mm256_storeu_ps(acc + 4 * NR, c4);
    _mm256_storeu_ps(acc + 5 * NR, c5);
    _mm256_storeu_ps(acc + 6 * NR, c6);
    _mm256_storeu_ps(acc + 7 * NR, c7);
  }
};

#endif  // FEDGTA_SIMD_X86

}  // namespace

namespace internal {

#if FEDGTA_SIMD_X86

bool SimdAvx2Supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

// The AVX2 GEMM, SpMM, GatherDots and Axpy kernels. Each starts a cache
// line, and flatten pulls the tiling driver and microkernel into it, so
// where the linker puts the rest of the program cannot change how these
// loops are fetched (ci.sh checks).
#define FEDGTA_SIMD_AVX2_KERNEL \
  __attribute__((target("avx2,fma"), aligned(64), noinline))

FEDGTA_SIMD_AVX2_KERNEL __attribute__((flatten)) void SimdGemmRowsAvx2(
    const GemmCall& call, int64_t row_begin, int64_t row_end) {
  TiledGemmRows<Avx2MicroTraits>(call, row_begin, row_end);
}

FEDGTA_SIMD_AVX2_KERNEL void SimdSpmmRowsAvx2(const SpmmCall& call,
                                              int64_t row_begin,
                                              int64_t row_end) {
  const int64_t f = call.f;
  for (int64_t r = row_begin; r < row_end; ++r) {
    float* dst = call.out + r * f;
    std::fill(dst, dst + f, 0.0f);
    const int64_t begin = call.row_ptr[r];
    const int64_t end = call.row_ptr[r + 1];
    int64_t p = begin;
    // Two stored entries per pass over dst, each its own fma in order.
    for (; p + 2 <= end; p += 2) {
      const float w0 = call.values[p];
      const float w1 = call.values[p + 1];
      const __m256 w0v = _mm256_set1_ps(w0);
      const __m256 w1v = _mm256_set1_ps(w1);
      const float* s0 =
          call.dense + static_cast<int64_t>(call.col_idx[p]) * f;
      const float* s1 =
          call.dense + static_cast<int64_t>(call.col_idx[p + 1]) * f;
      int64_t j = 0;
      for (; j + 8 <= f; j += 8) {
        __m256 d = _mm256_loadu_ps(dst + j);
        d = _mm256_fmadd_ps(w0v, _mm256_loadu_ps(s0 + j), d);
        d = _mm256_fmadd_ps(w1v, _mm256_loadu_ps(s1 + j), d);
        _mm256_storeu_ps(dst + j, d);
      }
      for (; j < f; ++j) {
        dst[j] = std::fma(w1, s1[j], std::fma(w0, s0[j], dst[j]));
      }
    }
    if (p < end) {
      const float w = call.values[p];
      const __m256 wv = _mm256_set1_ps(w);
      const float* src =
          call.dense + static_cast<int64_t>(call.col_idx[p]) * f;
      int64_t j = 0;
      for (; j + 8 <= f; j += 8) {
        __m256 d = _mm256_loadu_ps(dst + j);
        d = _mm256_fmadd_ps(wv, _mm256_loadu_ps(src + j), d);
        _mm256_storeu_ps(dst + j, d);
      }
      for (; j < f; ++j) dst[j] = std::fma(w, src[j], dst[j]);
    }
  }
}

FEDGTA_SIMD_AVX2_KERNEL __attribute__((flatten)) void SimdGatherDotsAvx2(
    const float* row, const float* table, int64_t d,
    std::span<const int32_t> idx, float* out) {
  TransposedGatherDots<Floats8, Avx2DotOp>(row, table, d, idx, out);
}

FEDGTA_SIMD_AVX2_KERNEL void SimdAxpyAvx2(float alpha,
                                          std::span<const float> x,
                                          std::span<float> y) {
  const __m256 av = _mm256_set1_ps(alpha);
  const size_t size = x.size();
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    __m256 yv = _mm256_loadu_ps(y.data() + i);
    yv = _mm256_fmadd_ps(av, _mm256_loadu_ps(x.data() + i), yv);
    _mm256_storeu_ps(y.data() + i, yv);
  }
  for (; i < size; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

#undef FEDGTA_SIMD_AVX2_KERNEL

#else  // !FEDGTA_SIMD_X86

bool SimdAvx2Supported() { return false; }

#endif  // FEDGTA_SIMD_X86

}  // namespace internal

namespace {

class SimdBackend : public Backend {
 public:
  explicit SimdBackend(bool use_avx2) : use_avx2_(use_avx2) {
#if FEDGTA_SIMD_X86
    if (use_avx2) {
      gemm_rows_ = internal::SimdGemmRowsAvx2;
      spmm_rows_ = internal::SimdSpmmRowsAvx2;
      gather_dots_ = internal::SimdGatherDotsAvx2;
      axpy_ = internal::SimdAxpyAvx2;
    }
#endif
  }

  std::string_view name() const override { return "simd"; }

  std::string description() const override {
    return use_avx2_ ? "simd(avx2+fma)" : "simd(portable)";
  }

  void GemmRows(const GemmCall& call, int64_t row_begin,
                int64_t row_end) const override {
    gemm_rows_(call, row_begin, row_end);
  }

  void SpmmRows(const SpmmCall& call, int64_t row_begin,
                int64_t row_end) const override {
    spmm_rows_(call, row_begin, row_end);
  }

  void GatherDots(const float* row, const float* table, int64_t d,
                  std::span<const int32_t> idx, float* out) const override {
    gather_dots_(row, table, d, idx, out);
  }

  void Axpy(float alpha, std::span<const float> x,
            std::span<float> y) const override {
    axpy_(alpha, x, y);
  }

 private:
  const bool use_avx2_;
  void (*gemm_rows_)(const GemmCall&, int64_t, int64_t) = GemmRowsPortable;
  void (*spmm_rows_)(const SpmmCall&, int64_t, int64_t) = SpmmRowsPortable;
  void (*gather_dots_)(const float*, const float*, int64_t,
                       std::span<const int32_t>, float*) = GatherDotsPortable;
  void (*axpy_)(float, std::span<const float>, std::span<float>) =
      AxpyPortable;
};

}  // namespace

namespace internal {

std::unique_ptr<Backend> MakeSimdBackend() {
  return MakeSimdVariantBackend(SimdAvx2Supported() ? SimdVariant::kAvx2
                                                    : SimdVariant::kPortable);
}

std::unique_ptr<Backend> MakeSimdVariantBackend(SimdVariant variant) {
  const bool avx2 = variant == SimdVariant::kAvx2;
  FEDGTA_CHECK(!avx2 || SimdAvx2Supported())
      << "simd(avx2+fma) requested on a host without AVX2 and FMA";
  return std::make_unique<SimdBackend>(avx2);
}

}  // namespace internal

}  // namespace linalg
}  // namespace fedgta
