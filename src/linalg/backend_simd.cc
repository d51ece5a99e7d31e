// The "simd" kernel backend: explicit AVX2/FMA kernels selected at runtime
// via cpuid, with a portable scalar fallback so the backend is always
// registered and always correct. The binary is compiled for the baseline
// ISA; the AVX2 paths are isolated behind `target("avx2,fma")` function
// attributes and only entered when __builtin_cpu_supports says so.

#include <algorithm>
#include <cstdint>

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

/// Portable fallback microkernel (same shape as the blocked backend's):
/// used when the CPU lacks AVX2/FMA or on non-x86 builds.
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
        for (int j = 0; j < NR; ++j) local[i * NR + j] += ai * b[j];
      }
    }
    std::copy(local, local + MR * NR, acc);
  }
};

/// The portable TiledGemmRows arithmetic on element (0, j) of a single-row
/// product, for the transposed GatherDots driver: each KC-deep k-panel sums
/// from zero, product then add, with no zero skip, and the panels are
/// added in order.
struct PortableDotOp {
  static constexpr bool kSkipZero = false;
  static constexpr int64_t kPanel = internal::kGemmKC;
  template <class Vec>
  inline __attribute__((always_inline)) static void Madd(Vec& sum, float a_p,
                                                         const Vec& col) {
    sum += a_p * col;
  }
};

#if FEDGTA_SIMD_X86

/// As PortableDotOp, with the AVX2 microkernel's one fused multiply-add per
/// step. Not always_inline: the driver is inlined into GatherDotsAvx2 first,
/// whose flatten then inlines this into a function that has fma.
struct Avx2DotOp {
  static constexpr bool kSkipZero = false;
  static constexpr int64_t kPanel = internal::kGemmKC;
  __attribute__((target("avx2,fma"))) static void Madd(
      internal::Floats8& sum, float a_p, const internal::Floats8& col) {
    sum = _mm256_fmadd_ps(_mm256_set1_ps(a_p), col, sum);
  }
};

__attribute__((target("avx2,fma"), flatten)) void GatherDotsAvx2(
    const float* row, const float* table, int64_t d,
    std::span<const int32_t> idx, float* out) {
  internal::TransposedGatherDots<internal::Floats8, Avx2DotOp>(row, table, d,
                                                               idx, out);
}

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

__attribute__((target("avx2,fma"))) void SpmmRowsAvx2(const SpmmCall& call,
                                                      int64_t row_begin,
                                                      int64_t row_end) {
  const int64_t f = call.f;
  for (int64_t r = row_begin; r < row_end; ++r) {
    float* dst = call.out + r * f;
    std::fill(dst, dst + f, 0.0f);
    const int64_t begin = call.row_ptr[r];
    const int64_t end = call.row_ptr[r + 1];
    int64_t p = begin;
    // Entry pairs anchored at `begin` keep the per-element accumulation
    // order a function of the row alone (determinism contract).
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
      for (; j < f; ++j) dst[j] += w0 * s0[j] + w1 * s1[j];
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
      for (; j < f; ++j) dst[j] += w * src[j];
    }
  }
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(float alpha,
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
  for (; i < size; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2,fma"))) double DotAvx2(std::span<const float> a,
                                                   std::span<const float> b) {
  // Four double lanes: each float lane-pair is widened before the FMA so
  // precision matches the base implementation's double accumulator.
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const size_t size = a.size();
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const __m256 af = _mm256_loadu_ps(a.data() + i);
    const __m256 bf = _mm256_loadu_ps(b.data() + i);
    const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(af));
    const __m256d blo = _mm256_cvtps_pd(_mm256_castps256_ps128(bf));
    const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(af, 1));
    const __m256d bhi = _mm256_cvtps_pd(_mm256_extractf128_ps(bf, 1));
    acc0 = _mm256_fmadd_pd(alo, blo, acc0);
    acc1 = _mm256_fmadd_pd(ahi, bhi, acc1);
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < size; ++i) sum += static_cast<double>(a[i]) * b[i];
  return sum;
}

__attribute__((target("avx2,fma"))) void ColumnSumsAvx2(const float* data,
                                                        int64_t rows,
                                                        int64_t cols,
                                                        float* out) {
  std::fill(out, out + cols, 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = data + r * cols;
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const __m256 o = _mm256_add_ps(_mm256_loadu_ps(out + c),
                                     _mm256_loadu_ps(row + c));
      _mm256_storeu_ps(out + c, o);
    }
    for (; c < cols; ++c) out[c] += row[c];
  }
}

bool DetectAvx2Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#else  // !FEDGTA_SIMD_X86

bool DetectAvx2Fma() { return false; }

#endif  // FEDGTA_SIMD_X86

class SimdBackend : public Backend {
 public:
  SimdBackend() : use_avx2_(DetectAvx2Fma()) {}

  std::string_view name() const override { return "simd"; }

  std::string description() const override {
    return use_avx2_ ? "simd(avx2+fma)" : "simd(portable)";
  }

  void GemmRows(const GemmCall& call, int64_t row_begin,
                int64_t row_end) const override {
#if FEDGTA_SIMD_X86
    if (use_avx2_) {
      internal::TiledGemmRows<Avx2MicroTraits>(call, row_begin, row_end);
      return;
    }
#endif
    internal::TiledGemmRows<PortableMicroTraits>(call, row_begin, row_end);
  }

  void SpmmRows(const SpmmCall& call, int64_t row_begin,
                int64_t row_end) const override {
#if FEDGTA_SIMD_X86
    if (use_avx2_) {
      SpmmRowsAvx2(call, row_begin, row_end);
      return;
    }
#endif
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

  void GatherDots(const float* row, const float* table, int64_t d,
                  std::span<const int32_t> idx, float* out) const override {
#if FEDGTA_SIMD_X86
    if (use_avx2_) {
      GatherDotsAvx2(row, table, d, idx, out);
      return;
    }
#endif
    internal::TransposedGatherDots<internal::Floats4, PortableDotOp>(
        row, table, d, idx, out);
  }

  void Axpy(float alpha, std::span<const float> x,
            std::span<float> y) const override {
#if FEDGTA_SIMD_X86
    if (use_avx2_) {
      AxpyAvx2(alpha, x, y);
      return;
    }
#endif
    Backend::Axpy(alpha, x, y);
  }

  double Dot(std::span<const float> a,
             std::span<const float> b) const override {
#if FEDGTA_SIMD_X86
    if (use_avx2_) return DotAvx2(a, b);
#endif
    return Backend::Dot(a, b);
  }

  void ColumnSums(const float* data, int64_t rows, int64_t cols,
                  float* out) const override {
#if FEDGTA_SIMD_X86
    if (use_avx2_) {
      ColumnSumsAvx2(data, rows, cols, out);
      return;
    }
#endif
    Backend::ColumnSums(data, rows, cols, out);
  }

 private:
  const bool use_avx2_;
};

}  // namespace

namespace internal {
std::unique_ptr<Backend> MakeSimdBackend() {
  return std::make_unique<SimdBackend>();
}
}  // namespace internal

}  // namespace linalg
}  // namespace fedgta
