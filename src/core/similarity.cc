#include "core/similarity.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/thread_pool.h"
#include "linalg/backend.h"
#include "linalg/ops.h"
#include "obs/metrics.h"
#include "obs/phase.h"

namespace fedgta {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Row panel height for the exact sweep: bounds the transient block buffer
/// to ~8 MiB regardless of the participant count.
int64_t SweepPanelRows(int64_t p) {
  return std::clamp<int64_t>((int64_t{1} << 21) / std::max<int64_t>(1, p),
                             16, std::max<int64_t>(1, p));
}

/// Exact Eq. 6: sweep the cosine block in row panels through the backend
/// GEMM; per-element values are bit-identical to the one-shot full block
/// (chunk-invariance contract of GemmRows).
std::vector<std::vector<int>> SetsViaExactSweep(
    const Matrix& normalized, const std::vector<int>& participants,
    int num_clients, double epsilon, SimilarityStats* stats) {
  FEDGTA_PHASE_SCOPE("similarity");
  const int64_t p = normalized.rows();
  const float eps = static_cast<float>(epsilon);
  std::vector<std::vector<int>> sets(static_cast<size_t>(num_clients));
  const int64_t panel = SweepPanelRows(p);
  Matrix block;
  for (int64_t r0 = 0; r0 < p; r0 += panel) {
    const int64_t r1 = std::min<int64_t>(p, r0 + panel);
    block.EnsureShape(r1 - r0, p);
    GemmRowBlockABt(normalized, r0, r1, normalized, &block);
    ParallelForChunked(
        r0, r1,
        [&](int64_t lo, int64_t hi) {
          for (int64_t a = lo; a < hi; ++a) {
            const float* row = block.data() + (a - r0) * p;
            auto& set = sets[static_cast<size_t>(
                participants[static_cast<size_t>(a)])];
            set.push_back(participants[static_cast<size_t>(a)]);
            for (int64_t b = 0; b < p; ++b) {
              if (b == a) continue;
              if (row[b] >= eps) {
                set.push_back(participants[static_cast<size_t>(b)]);
              }
            }
          }
        },
        /*min_chunk=*/1);
  }
  stats->pairs_exact += p * (p - 1);
  stats->mode_used = SimilarityMode::kExact;
  return sets;
}

/// LSH Eq. 6, one symmetric pass: each unordered pair (a, b > a) is
/// screened and, if it survives, exact-checked once; admitted pairs are
/// then mirrored into both rows.
std::vector<std::vector<int>> SetsViaLsh(const Matrix& normalized,
                                         const std::vector<int>& participants,
                                         int num_clients, double epsilon,
                                         const SimilarityPlaneOptions& plane,
                                         SimilarityStats* stats) {
  const int64_t p = normalized.rows();
  const int64_t d = normalized.cols();
  const LshShape shape = LshShapeFor(epsilon, plane);

  std::vector<uint64_t> sig;
  {
    FEDGTA_PHASE_SCOPE("similarity_candidates");
    sig = ComputeLshSignatures(normalized, plane);
  }

  FEDGTA_PHASE_SCOPE("similarity");
  // upper[a]: row a's admitted partners b > a, ascending. Task k takes
  // rows [edge(k), edge(k + 1)), about 1/parts of the triangle's pairs
  // (row a owns p - 1 - a of them).
  std::vector<std::vector<int32_t>> upper(static_cast<size_t>(p));
  std::atomic<int64_t> survivors{0};
  const double parts = 4.0 * GlobalThreadPoolSize();
  const auto edge = [&](int64_t k) {
    const double rest = 1.0 - static_cast<double>(k) / parts;
    return std::llround(static_cast<double>(p) * (1.0 - std::sqrt(rest)));
  };
  ParallelFor(
      0, static_cast<int64_t>(parts),
      [&](int64_t k) {
        std::vector<int32_t> cand;
        int64_t screened = 0;
        for (int64_t a = edge(k); a < edge(k + 1); ++a) {
          cand.clear();
          LshScreen(sig.data() + a * shape.words, sig.data(), a + 1, p, shape,
                    &cand);
          screened += static_cast<int64_t>(cand.size());
          AdmitByCosine(
              normalized.data() + a * d, d, cand,
              [&](int32_t b) { return normalized.data() + int64_t{b} * d; },
              epsilon, &upper[static_cast<size_t>(a)]);
        }
        survivors += screened;
      },
      /*grain=*/1);

  // Mirror in ascending row order: row a's lower partners are all pushed
  // before its upper ones, so every set lists its members by ascending
  // participant index, the exact oracle's order.
  std::vector<std::vector<int>> sets(static_cast<size_t>(num_clients));
  for (int i : participants) sets[static_cast<size_t>(i)].push_back(i);
  for (int64_t a = 0; a < p; ++a) {
    const int i = participants[static_cast<size_t>(a)];
    for (int32_t b : upper[static_cast<size_t>(a)]) {
      const int j = participants[static_cast<size_t>(b)];
      sets[static_cast<size_t>(i)].push_back(j);
      sets[static_cast<size_t>(j)].push_back(i);
    }
    upper[static_cast<size_t>(a)] = {};
  }
  const int64_t exact = 2 * survivors;
  stats->pairs_exact += exact;
  stats->pairs_pruned += p * (p - 1) - exact;
  stats->mode_used = SimilarityMode::kLsh;
  return sets;
}

/// The prescreen loop (signature width fixed at compile time if kWords >
/// 0), force-inlined so that in the popcnt-targeted caller std::popcount
/// compiles to the hardware instruction.
template <int64_t kWords>
__attribute__((always_inline)) inline int64_t ScreenRows(
    const uint64_t* sig, const uint64_t* sigs, int64_t begin, int64_t end,
    const LshShape& shape, std::vector<int32_t>* candidates) {
  const int64_t words = kWords > 0 ? kWords : shape.words;
  const size_t kept = candidates->size();
  for (int64_t b = begin; b < end; ++b) {
    const uint64_t* sb = sigs + b * words;
    int64_t h = 0;
    for (int64_t w = 0; w < words; ++w) h += std::popcount(sig[w] ^ sb[w]);
    if (h <= shape.h_max) candidates->push_back(static_cast<int32_t>(b));
  }
  return end - begin - static_cast<int64_t>(candidates->size() - kept);
}

double QuantileOfPairValues(std::vector<float>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t idx = std::min(
      values->size() - 1,
      static_cast<size_t>(q * static_cast<double>(values->size())));
  // Same element the historical full std::sort selected, at O(n²) instead
  // of O(n² log n): nth_element places values[idx] in its sorted position.
  std::nth_element(values->begin(),
                   values->begin() + static_cast<int64_t>(idx),
                   values->end());
  return (*values)[idx];
}

}  // namespace

bool ParseSimilarityMode(std::string_view name, SimilarityMode* mode) {
  FEDGTA_CHECK(mode != nullptr);
  if (name == "exact") {
    *mode = SimilarityMode::kExact;
  } else if (name == "auto") {
    *mode = SimilarityMode::kAuto;
  } else if (name == "lsh") {
    *mode = SimilarityMode::kLsh;
  } else {
    return false;
  }
  return true;
}

std::string_view SimilarityModeName(SimilarityMode mode) {
  switch (mode) {
    case SimilarityMode::kExact:
      return "exact";
    case SimilarityMode::kAuto:
      return "auto";
    case SimilarityMode::kLsh:
      return "lsh";
  }
  return "exact";
}

void RecordSetStats(const SimilarityStats& stats) {
  MetricsRegistry& metrics = GlobalMetrics();
  if (stats.pairs_exact > 0) {
    metrics.GetCounter("fedgta.similarity.pairs_exact")
        .Increment(stats.pairs_exact);
  }
  if (stats.pairs_pruned > 0) {
    metrics.GetCounter("fedgta.similarity.pairs_pruned")
        .Increment(stats.pairs_pruned);
  }
  metrics
      .GetCounter(std::string("fedgta.similarity.mode.") +
                  std::string(SimilarityModeName(stats.mode_used)))
      .Increment();
}

std::string SimilarityPlaneStatus() {
  const std::string plane = GlobalMetrics().CounterLines(
      {"fedgta.similarity.pairs_exact", "fedgta.similarity.pairs_pruned",
       "fedgta.aggregation.unique_sets", "fedgta.aggregation.dedup_reused"});
  return plane.empty() ? plane : "similarity:\n" + plane;
}

LshShape LshShapeFor(double epsilon, const SimilarityPlaneOptions& plane) {
  LshShape shape;
  shape.words = std::max<int64_t>(1, (plane.lsh_signature_bits + 63) / 64);
  shape.bits = shape.words * 64;
  // The prune threshold in Hamming bits. A keep-limit >= 1 keeps every
  // pair (ε <= -1 admits everything; the screen must not prune).
  const double t_eps = std::acos(std::clamp(epsilon, -1.0, 1.0)) / kPi;
  const double keep_limit = t_eps + plane.lsh_margin;
  shape.h_max = keep_limit >= 1.0
                    ? shape.bits
                    : static_cast<int64_t>(keep_limit *
                                           static_cast<double>(shape.bits));
  return shape;
}

std::vector<uint64_t> ComputeLshSignatures(
    const Matrix& normalized, const SimilarityPlaneOptions& plane) {
  const int64_t p = normalized.rows();
  const int64_t d = normalized.cols();
  const LshShape shape = LshShapeFor(/*epsilon=*/1.0, plane);
  const int64_t words = shape.words;
  const int64_t bits = shape.bits;
  std::vector<uint64_t> sig(static_cast<size_t>(p * words), 0);
  // Shared random hyperplanes: one projection GEMM, then sign-pack. The
  // plane depends only on (seed, moment dimension), so every round with
  // the same upload shape reuses the same hash family.
  Rng rng(plane.lsh_seed);
  Matrix planes(d, bits);
  planes.GaussianInit(rng, 1.0f);
  const Matrix proj = MatMul(normalized, planes);
  ParallelForChunked(0, p, [&](int64_t lo, int64_t hi) {
    for (int64_t a = lo; a < hi; ++a) {
      const float* row = proj.data() + a * bits;
      uint64_t* out = sig.data() + a * words;
      for (int64_t w = 0; w < words; ++w) {
        uint64_t word = 0;
        const float* src = row + w * 64;
        for (int64_t l = 0; l < 64; ++l) {
          if (src[l] >= 0.0f) word |= uint64_t{1} << l;
        }
        out[w] = word;
      }
    }
  });
  return sig;
}

namespace internal {

int64_t LshScreenPortable(const uint64_t* sig, const uint64_t* sigs,
                          int64_t begin, int64_t end, const LshShape& shape,
                          std::vector<int32_t>* candidates) {
  return shape.words == 4  // the default 256-bit signature
             ? ScreenRows<4>(sig, sigs, begin, end, shape, candidates)
             : ScreenRows<0>(sig, sigs, begin, end, shape, candidates);
}

}  // namespace internal

#if defined(__x86_64__) || defined(__i386__)
/// The same loop on hardware popcnt; LshScreen enters it only when cpuid
/// reports the instruction (the simd backend's runtime-dispatch pattern).
__attribute__((target("popcnt"))) int64_t LshScreenPopcnt(
    const uint64_t* sig, const uint64_t* sigs, int64_t begin, int64_t end,
    const LshShape& shape, std::vector<int32_t>* candidates) {
  return shape.words == 4
             ? ScreenRows<4>(sig, sigs, begin, end, shape, candidates)
             : ScreenRows<0>(sig, sigs, begin, end, shape, candidates);
}
#endif

int64_t LshScreen(const uint64_t* sig, const uint64_t* sigs, int64_t begin,
                  int64_t end, const LshShape& shape,
                  std::vector<int32_t>* candidates) {
#if defined(__x86_64__) || defined(__i386__)
  static const bool hardware = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt");
  }();
  if (hardware) {
    return LshScreenPopcnt(sig, sigs, begin, end, shape, candidates);
  }
#endif
  return internal::LshScreenPortable(sig, sigs, begin, end, shape,
                                     candidates);
}

void AdmitByCosine(const float* row, int64_t d,
                   const std::vector<int32_t>& candidates,
                   const std::function<const float*(int32_t)>& row_of,
                   double epsilon, std::vector<int32_t>* admitted) {
  if (candidates.empty()) return;
  // One 1 x c GEMM against the gathered candidate rows (transposed view);
  // the buffers are per thread and reused across rows and calls.
  thread_local Matrix gathered;
  thread_local Matrix sims;
  const int64_t c = static_cast<int64_t>(candidates.size());
  gathered.EnsureShape(c, d);
  for (int64_t k = 0; k < c; ++k) {
    std::memcpy(gathered.data() + k * d,
                row_of(candidates[static_cast<size_t>(k)]),
                static_cast<size_t>(d) * sizeof(float));
  }
  sims.EnsureShape(1, c);
  linalg::GemmCall call;
  call.a = {row, d, 1};
  call.b = {gathered.data(), 1, d};
  call.m = 1;
  call.n = c;
  call.k = d;
  call.c = sims.data();
  linalg::ActiveBackend().GemmRows(call, 0, 1);
  const float eps = static_cast<float>(epsilon);
  for (int64_t k = 0; k < c; ++k) {
    if (sims.data()[k] >= eps) {
      admitted->push_back(candidates[static_cast<size_t>(k)]);
    }
  }
}

Matrix StackNormalizedMoments(const std::vector<std::vector<float>>& moments,
                              const std::vector<int>& participants) {
  const int64_t p = static_cast<int64_t>(participants.size());
  const int n = static_cast<int>(moments.size());
  int64_t d = 0;
  for (size_t a = 0; a < participants.size(); ++a) {
    const int i = participants[a];
    FEDGTA_CHECK(i >= 0 && i < n);
    const auto& m = moments[static_cast<size_t>(i)];
    if (a == 0) {
      d = static_cast<int64_t>(m.size());
    } else {
      FEDGTA_CHECK_EQ(m.size(), static_cast<size_t>(d));
    }
  }
  Matrix stacked(p, d);
  ParallelForChunked(0, p, [&](int64_t lo, int64_t hi) {
    for (int64_t a = lo; a < hi; ++a) {
      const auto& src =
          moments[static_cast<size_t>(participants[static_cast<size_t>(a)])];
      float* dst = stacked.data() + a * d;
      double sq = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        sq += static_cast<double>(src[static_cast<size_t>(j)]) *
              static_cast<double>(src[static_cast<size_t>(j)]);
      }
      const double norm = std::sqrt(sq);
      if (norm > 0.0) {
        for (int64_t j = 0; j < d; ++j) {
          dst[j] =
              static_cast<float>(src[static_cast<size_t>(j)] / norm);
        }
      } else {
        std::fill(dst, dst + d, 0.0f);
      }
    }
  });
  return stacked;
}

SimilarityBlock ComputeSimilarityBlock(
    const std::vector<std::vector<float>>& moments,
    const std::vector<int>& participants) {
  FEDGTA_PHASE_SCOPE("similarity");
  SimilarityBlock block;
  block.participants = participants;
  const Matrix normalized = StackNormalizedMoments(moments, participants);
  const int64_t p = normalized.rows();
  block.values.EnsureShape(p, p);
  GemmRowBlockABt(normalized, 0, p, normalized, &block.values);
  // Historical convention: participants have a unit diagonal even when
  // their moment vector is all-zero.
  for (int64_t a = 0; a < p; ++a) block.values(a, a) = 1.0f;
  return block;
}

std::vector<std::vector<int>> SetsFromSimilarityBlock(
    const SimilarityBlock& block, int num_clients, double epsilon) {
  const int64_t p = block.values.rows();
  const float eps = static_cast<float>(epsilon);
  std::vector<std::vector<int>> sets(static_cast<size_t>(num_clients));
  for (int64_t a = 0; a < p; ++a) {
    const int i = block.participants[static_cast<size_t>(a)];
    FEDGTA_CHECK(i >= 0 && i < num_clients);
    auto& set = sets[static_cast<size_t>(i)];
    set.push_back(i);
    for (int64_t b = 0; b < p; ++b) {
      if (b == a) continue;
      if (block.values(a, b) >= eps) {
        set.push_back(block.participants[static_cast<size_t>(b)]);
      }
    }
  }
  SimilarityStats stats;
  stats.pairs_exact = p * (p - 1);
  stats.mode_used = SimilarityMode::kExact;
  RecordSetStats(stats);
  return sets;
}

double SimilarityQuantile(const SimilarityBlock& block, double q) {
  FEDGTA_CHECK_GE(q, 0.0);
  FEDGTA_CHECK_LE(q, 1.0);
  const int64_t p = block.values.rows();
  std::vector<float> values;
  values.reserve(static_cast<size_t>(p * (p - 1) / 2));
  for (int64_t a = 0; a < p; ++a) {
    for (int64_t b = a + 1; b < p; ++b) {
      values.push_back(block.values(a, b));
    }
  }
  return QuantileOfPairValues(&values, q);
}

std::vector<std::vector<int>> BuildAggregationSets(
    const std::vector<std::vector<float>>& moments,
    const std::vector<int>& participants, double epsilon,
    const SimilarityPlaneOptions& plane, SimilarityStats* stats) {
  const Matrix normalized = StackNormalizedMoments(moments, participants);
  const int64_t p = normalized.rows();
  SimilarityMode mode = plane.mode;
  if (mode == SimilarityMode::kAuto) {
    mode = p >= plane.auto_lsh_min_participants ? SimilarityMode::kLsh
                                                : SimilarityMode::kExact;
  }
  SimilarityStats local;
  const int num_clients = static_cast<int>(moments.size());
  std::vector<std::vector<int>> sets =
      mode == SimilarityMode::kLsh
          ? SetsViaLsh(normalized, participants, num_clients, epsilon, plane,
                       &local)
          : SetsViaExactSweep(normalized, participants, num_clients, epsilon,
                              &local);
  RecordSetStats(local);
  if (stats != nullptr) {
    stats->pairs_exact += local.pairs_exact;
    stats->pairs_pruned += local.pairs_pruned;
    stats->mode_used = local.mode_used;
  }
  return sets;
}

}  // namespace fedgta
