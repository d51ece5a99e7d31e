#ifndef FEDGTA_LINALG_GATHER_DOTS_H_
#define FEDGTA_LINALG_GATHER_DOTS_H_

// Shared Backend::GatherDots driver for the "reference" and "simd" backends.
//
// GatherDots writes out[j] = row · table[idx[j]], and each output must be
// bitwise element (0, j) of the backend's single-row GemmRows: one running
// sum per candidate over ascending p. A vector lane therefore holds one
// candidate, and the vector for p needs one float from each of several
// candidate rows. Building it a float at a time costs one shuffle per lane;
// instead the driver loads four consecutive floats of each candidate row
// and transposes 4 x 4 blocks in registers, one block per 128-bit lane,
// which yields the column vectors for p .. p+3 at once.
//
// The arithmetic is the backend's, through an Op:
//   static constexpr bool kSkipZero;  // a_p == 0 adds no product
//   static constexpr int64_t kPanel;  // p per partial sum; 0 = all of d
//   static void Madd(Vec& sum, float a_p, const Vec& col);  // one step
// A partial sum starts at zero, takes Madd for each p of its panel in
// ascending order, and joins the total by one add (the first panel is the
// total), as a k-paneled GemmRows merges its panels into C. Lanes never
// mix, so the vector width sets only how many candidates are in flight,
// never a float.
//
// Written with GCC vector extensions, not intrinsics, so the same source
// compiles for the baseline ISA (Floats4: one 4 x 4 block per vector) and
// for AVX2 (Floats8: two blocks side by side, one per 128-bit lane); every
// shuffle below is a single instruction on both.

#include <algorithm>
#include <cstdint>
#include <span>

namespace fedgta {
namespace linalg {
namespace internal {

typedef float Floats4 __attribute__((vector_size(16)));
typedef float Floats8 __attribute__((vector_size(32)));

#define FEDGTA_GATHER_DOTS_INLINE inline __attribute__((always_inline))

/// col[q] lane w = t[w][p + q] for q < 4 and every lane w of Vec.
template <class Vec>
FEDGTA_GATHER_DOTS_INLINE void LoadColumns(const float* const* t, int64_t p,
                                           Vec (&col)[4]) {
  Floats4 r4[sizeof(Vec) / sizeof(Floats4)][4];
  for (size_t g = 0; g < sizeof(Vec) / sizeof(Floats4); ++g) {
    for (int u = 0; u < 4; ++u) {
      __builtin_memcpy(&r4[g][u], t[4 * g + u] + p, sizeof(Floats4));
    }
  }
  if constexpr (sizeof(Vec) == sizeof(Floats4)) {
    const Vec* r = r4[0];
    const Vec a0 = __builtin_shufflevector(r[0], r[1], 0, 4, 1, 5);
    const Vec a1 = __builtin_shufflevector(r[0], r[1], 2, 6, 3, 7);
    const Vec a2 = __builtin_shufflevector(r[2], r[3], 0, 4, 1, 5);
    const Vec a3 = __builtin_shufflevector(r[2], r[3], 2, 6, 3, 7);
    col[0] = __builtin_shufflevector(a0, a2, 0, 1, 4, 5);
    col[1] = __builtin_shufflevector(a0, a2, 2, 3, 6, 7);
    col[2] = __builtin_shufflevector(a1, a3, 0, 1, 4, 5);
    col[3] = __builtin_shufflevector(a1, a3, 2, 3, 6, 7);
  } else {
    static_assert(sizeof(Vec) == sizeof(Floats8));
    // Candidates 0-3 in the low 128-bit lane, 4-7 in the high one.
    Vec r[4];
    for (int u = 0; u < 4; ++u) {
      r[u] = __builtin_shufflevector(r4[0][u], r4[1][u], 0, 1, 2, 3, 4, 5, 6,
                                     7);
    }
    const Vec a0 =
        __builtin_shufflevector(r[0], r[1], 0, 8, 1, 9, 4, 12, 5, 13);
    const Vec a1 =
        __builtin_shufflevector(r[0], r[1], 2, 10, 3, 11, 6, 14, 7, 15);
    const Vec a2 =
        __builtin_shufflevector(r[2], r[3], 0, 8, 1, 9, 4, 12, 5, 13);
    const Vec a3 =
        __builtin_shufflevector(r[2], r[3], 2, 10, 3, 11, 6, 14, 7, 15);
    col[0] = __builtin_shufflevector(a0, a2, 0, 1, 8, 9, 4, 5, 12, 13);
    col[1] = __builtin_shufflevector(a0, a2, 2, 3, 10, 11, 6, 7, 14, 15);
    col[2] = __builtin_shufflevector(a1, a3, 0, 1, 8, 9, 4, 5, 12, 13);
    col[3] = __builtin_shufflevector(a1, a3, 2, 3, 10, 11, 6, 7, 14, 15);
  }
}

/// out[j] = row · table[idx[j]] with Op's per-element arithmetic, two
/// vectors of candidates at a time (two independent sums hide the add
/// latency) while the next block's rows are prefetched: the table is
/// larger than L2 on the server-10k shape, and the candidate rows are far
/// apart. A short last block repeats its final candidate in the spare
/// lanes and stores only the real ones.
template <class Vec, class Op>
FEDGTA_GATHER_DOTS_INLINE void TransposedGatherDots(
    const float* row, const float* table, int64_t d,
    std::span<const int32_t> idx, float* out) {
  constexpr int64_t kWidth = sizeof(Vec) / sizeof(float);
  constexpr int kSums = 2;
  constexpr int64_t kBlock = kSums * kWidth;
  const int64_t count = static_cast<int64_t>(idx.size());
  const int64_t panel = Op::kPanel > 0 ? Op::kPanel : d;
  for (int64_t j = 0; j < count; j += kBlock) {
    const int64_t lanes = std::min(kBlock, count - j);
    const float* t[kBlock];
    for (int64_t u = 0; u < kBlock; ++u) {
      const int32_t r = idx[static_cast<size_t>(j + std::min(u, lanes - 1))];
      t[u] = table + int64_t{r} * d;
    }
    const float* next[kBlock];
    for (int64_t u = 0; u < kBlock; ++u) {
      const int64_t c = std::min(j + kBlock + u, count - 1);
      next[u] = table + int64_t{idx[static_cast<size_t>(c)]} * d;
    }
    Vec total[kSums] = {};
    for (int64_t p0 = 0; p0 < d; p0 += panel) {
      const int64_t end = std::min(d, p0 + panel);
      Vec sum[kSums] = {};
      int64_t p = p0;
      for (; p + 4 <= end; p += 4) {
        if (p % 16 == 0) {
          // One cache line of each next-block row per 16 p.
          for (int64_t u = 0; u < kBlock; ++u) __builtin_prefetch(next[u] + p);
        }
        for (int h = 0; h < kSums; ++h) {
          Vec col[4];
          LoadColumns(t + h * kWidth, p, col);
          for (int q = 0; q < 4; ++q) {
            const float a_p = row[p + q];
            if (Op::kSkipZero && a_p == 0.0f) continue;
            Op::Madd(sum[h], a_p, col[q]);
          }
        }
      }
      for (; p < end; ++p) {
        const float a_p = row[p];
        if (Op::kSkipZero && a_p == 0.0f) continue;
        for (int h = 0; h < kSums; ++h) {
          Vec col;
          for (int64_t w = 0; w < kWidth; ++w) col[w] = t[h * kWidth + w][p];
          Op::Madd(sum[h], a_p, col);
        }
      }
      for (int h = 0; h < kSums; ++h) {
        total[h] = p0 == 0 ? sum[h] : total[h] + sum[h];
      }
    }
    for (int64_t u = 0; u < lanes; ++u) {
      out[j + u] = total[u / kWidth][u % kWidth];
    }
  }
}

#undef FEDGTA_GATHER_DOTS_INLINE

}  // namespace internal
}  // namespace linalg
}  // namespace fedgta

#endif  // FEDGTA_LINALG_GATHER_DOTS_H_
