#ifndef FEDGTA_LINALG_GEMM_TILE_H_
#define FEDGTA_LINALG_GEMM_TILE_H_

// Cache-blocked GEMM driver of the "simd" backend.
//
// Classic three-level tiling (BLIS-style): B is packed into KC x NC panels
// of NR-wide column strips, A into MC x KC blocks of MR-tall row strips,
// and an MR x NR register-blocked microkernel runs over the packed panels.
// Panels are zero-padded to full MR / NR so the microkernel never branches
// on edges; the store step writes only the live mr x nr window.
//
// Determinism contract (see Backend): for each output element the
// accumulation order is k-panel-major (pc = 0, KC, 2KC, ...) with strictly
// ascending k inside each panel — a function of the fixed KC constant only,
// never of where the caller's [row_begin, row_end) chunk boundaries fall.
// Results are therefore bit-identical for any thread count / chunking.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "linalg/backend.h"

namespace fedgta {
namespace linalg {
namespace internal {

/// Cache-blocking constants. KC * NR floats of packed B live in L1 during
/// a microkernel run; MC * KC floats of packed A target L2; KC * NC floats
/// of packed B target L3.
inline constexpr int64_t kGemmKC = 256;
inline constexpr int64_t kGemmMC = 96;
inline constexpr int64_t kGemmNC = 512;

/// Per-thread packing scratch, reused across calls to avoid allocation in
/// the hot path. Thread-local: pool workers pack independently.
struct GemmPackBuffers {
  std::vector<float> a;  // up to MC x KC, MR-strip layout
  std::vector<float> b;  // up to KC x NC, NR-strip layout
};

inline GemmPackBuffers& ThreadGemmPackBuffers() {
  thread_local GemmPackBuffers buffers;
  return buffers;
}

/// Packs B[pc : pc+kc, jc : jc+nc] (via the strided view) into NR-wide
/// strips: strip j0 occupies bp[j0 * kc ...] with layout [kk][NR],
/// zero-padded to NR columns.
template <int NR>
void PackBPanel(const GemmView& b, int64_t pc, int64_t jc, int64_t kc,
                int64_t nc, float* bp) {
  for (int64_t j0 = 0; j0 < nc; j0 += NR) {
    const int64_t nr = std::min<int64_t>(NR, nc - j0);
    float* strip = bp + j0 * kc;
    for (int64_t kk = 0; kk < kc; ++kk) {
      float* dst = strip + kk * NR;
      const int64_t brow = pc + kk;
      for (int64_t j = 0; j < nr; ++j) dst[j] = b.At(brow, jc + j0 + j);
      for (int64_t j = nr; j < NR; ++j) dst[j] = 0.0f;
    }
  }
}

/// Packs A[ic : ic+mc, pc : pc+kc] into MR-tall strips: strip i0 occupies
/// ap[i0 * kc ...] with layout [kk][MR], zero-padded to MR rows.
template <int MR>
void PackABlock(const GemmView& a, int64_t ic, int64_t pc, int64_t mc,
                int64_t kc, float* ap) {
  for (int64_t i0 = 0; i0 < mc; i0 += MR) {
    const int64_t mr = std::min<int64_t>(MR, mc - i0);
    float* strip = ap + i0 * kc;
    for (int64_t kk = 0; kk < kc; ++kk) {
      float* dst = strip + kk * MR;
      const int64_t acol = pc + kk;
      for (int64_t i = 0; i < mr; ++i) dst[i] = a.At(ic + i0 + i, acol);
      for (int64_t i = mr; i < MR; ++i) dst[i] = 0.0f;
    }
  }
}

/// Tiled GEMM over output rows [row_begin, row_end).
///
/// Traits requirements:
///   static constexpr int MR, NR;
///   // acc (MR x NR row-major) = sum_{kk < kc} ap[kk*MR + i] * bp[kk*NR + j]
///   static void Micro(const float* ap, const float* bp, int64_t kc,
///                     float* acc);
template <class Traits>
void TiledGemmRows(const GemmCall& call, int64_t row_begin, int64_t row_end) {
  constexpr int MR = Traits::MR;
  constexpr int NR = Traits::NR;
  const int64_t n = call.n;
  const int64_t k = call.k;
  if (row_begin >= row_end || n == 0) return;
  if (k == 0) {
    // Degenerate inner dimension: C = beta * C.
    for (int64_t i = row_begin; i < row_end; ++i) {
      float* c_row = call.c + i * n;
      if (call.beta == 0.0f) {
        std::fill(c_row, c_row + n, 0.0f);
      } else if (call.beta != 1.0f) {
        for (int64_t j = 0; j < n; ++j) c_row[j] *= call.beta;
      }
    }
    return;
  }

  // Sized to this call's largest blocks, not to full ones: a call with
  // n <= 64 needs an eighth of a KC x NC panel. The buffers only grow, so
  // repeated calls neither reallocate nor refill them.
  GemmPackBuffers& buffers = ThreadGemmPackBuffers();
  const int64_t kc_max = std::min(kGemmKC, k);
  const auto grow = [](std::vector<float>& buffer, int64_t size) {
    if (buffer.size() < static_cast<size_t>(size)) buffer.resize(size);
  };
  grow(buffers.b, kc_max * ((std::min(kGemmNC, n) + NR - 1) / NR * NR));
  grow(buffers.a,
       kc_max * ((std::min(kGemmMC, row_end - row_begin) + MR - 1) / MR * MR));
  alignas(64) float acc[MR * NR];

  for (int64_t jc = 0; jc < n; jc += kGemmNC) {
    const int64_t nc = std::min<int64_t>(kGemmNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kGemmKC) {
      const int64_t kc = std::min<int64_t>(kGemmKC, k - pc);
      const bool first_panel = pc == 0;
      PackBPanel<NR>(call.b, pc, jc, kc, nc, buffers.b.data());
      for (int64_t ic = row_begin; ic < row_end; ic += kGemmMC) {
        const int64_t mc = std::min<int64_t>(kGemmMC, row_end - ic);
        PackABlock<MR>(call.a, ic, pc, mc, kc, buffers.a.data());
        for (int64_t j0 = 0; j0 < nc; j0 += NR) {
          const int64_t nr = std::min<int64_t>(NR, nc - j0);
          const float* bp = buffers.b.data() + j0 * kc;
          for (int64_t i0 = 0; i0 < mc; i0 += MR) {
            const int64_t mr = std::min<int64_t>(MR, mc - i0);
            Traits::Micro(buffers.a.data() + i0 * kc, bp, kc, acc);
            // Merge the live mr x nr window into C. The first k-panel
            // applies beta; later panels accumulate.
            for (int64_t i = 0; i < mr; ++i) {
              float* c_row = call.c + (ic + i0 + i) * n + jc + j0;
              const float* acc_row = acc + i * NR;
              if (first_panel) {
                if (call.beta == 0.0f) {
                  for (int64_t j = 0; j < nr; ++j) {
                    c_row[j] = call.alpha * acc_row[j];
                  }
                } else {
                  for (int64_t j = 0; j < nr; ++j) {
                    c_row[j] =
                        call.beta * c_row[j] + call.alpha * acc_row[j];
                  }
                }
              } else {
                for (int64_t j = 0; j < nr; ++j) {
                  c_row[j] += call.alpha * acc_row[j];
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace internal
}  // namespace linalg
}  // namespace fedgta

#endif  // FEDGTA_LINALG_GEMM_TILE_H_
