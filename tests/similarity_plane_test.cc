// Tests of the server similarity/aggregation plane (DESIGN.md §5h): the
// GEMM-backed Eq. 6 block and its operand symmetry, the symmetric LSH
// pass's exact-set parity, the hardware/portable screen agreement,
// the nth_element quantile rewrite, and the deduplicated parallel Eq. 7
// over uploads read in place.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fedgta_metrics.h"
#include "core/similarity.h"
#include "fed/fedgta_strategy.h"
#include "fed/role.h"
#include "fed/shard_plane.h"
#include "linalg/backend.h"
#include "linalg/ops.h"
#include "obs/metrics.h"

namespace fedgta {
namespace {

// Synthetic moment table: `clusters` well-separated directions in d dims,
// each client a small perturbation of its cluster center. Intra-cluster
// cosine stays near 1, inter-cluster near 0 — so Eq. 6 sets are stable
// under any correct similarity evaluation.
std::vector<std::vector<float>> ClusteredMoments(int n, int clusters, int d,
                                                 uint64_t seed,
                                                 float noise = 0.05f) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(static_cast<size_t>(clusters));
  for (auto& c : centers) {
    c.resize(static_cast<size_t>(d));
    for (float& x : c) x = rng.Normal();
  }
  std::vector<std::vector<float>> moments(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& c = centers[static_cast<size_t>(i % clusters)];
    auto& m = moments[static_cast<size_t>(i)];
    m.resize(static_cast<size_t>(d));
    for (int j = 0; j < d; ++j) {
      m[static_cast<size_t>(j)] =
          c[static_cast<size_t>(j)] + noise * rng.Normal();
    }
  }
  return moments;
}

std::vector<int> AllParticipants(int n) {
  std::vector<int> participants(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) participants[static_cast<size_t>(i)] = i;
  return participants;
}

int64_t CounterValue(const char* name) {
  const Counter* c = GlobalMetrics().FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

TEST(SimilarityModeTest, ParsesAllNamesAndRejectsUnknown) {
  SimilarityMode mode = SimilarityMode::kLsh;
  EXPECT_TRUE(ParseSimilarityMode("exact", &mode));
  EXPECT_EQ(mode, SimilarityMode::kExact);
  EXPECT_TRUE(ParseSimilarityMode("auto", &mode));
  EXPECT_EQ(mode, SimilarityMode::kAuto);
  EXPECT_TRUE(ParseSimilarityMode("lsh", &mode));
  EXPECT_EQ(mode, SimilarityMode::kLsh);
  EXPECT_FALSE(ParseSimilarityMode("cosine", &mode));
  EXPECT_FALSE(ParseSimilarityMode("", &mode));
  EXPECT_EQ(SimilarityModeName(SimilarityMode::kExact), "exact");
  EXPECT_EQ(SimilarityModeName(SimilarityMode::kAuto), "auto");
  EXPECT_EQ(SimilarityModeName(SimilarityMode::kLsh), "lsh");
}

TEST(SimilarityBlockTest, MatchesScalarCosine) {
  const auto moments = ClusteredMoments(17, 4, 23, /*seed=*/7);
  const auto participants = AllParticipants(17);
  const SimilarityBlock block = ComputeSimilarityBlock(moments, participants);
  ASSERT_EQ(block.values.rows(), 17);
  ASSERT_EQ(block.values.cols(), 17);
  for (int a = 0; a < 17; ++a) {
    EXPECT_FLOAT_EQ(block.values(a, a), 1.0f);
    for (int b = 0; b < 17; ++b) {
      if (a == b) continue;
      const double expected = CosineSimilarity(
          moments[static_cast<size_t>(a)], moments[static_cast<size_t>(b)]);
      EXPECT_NEAR(block.values(a, b), expected, 1e-5)
          << "pair (" << a << ", " << b << ")";
    }
  }
}

// The symmetric LSH pass exact-checks each unordered pair once and mirrors
// it, which needs every backend to compute cos(a, b) and cos(b, a) to the
// same bits (operand-symmetry contract, linalg/backend.h).
TEST(SimilarityBlockTest, BitwiseSymmetricUnderEveryBackend) {
  const auto moments = ClusteredMoments(45, 5, 37, /*seed=*/19, 0.3f);
  std::vector<int> participants = AllParticipants(45);
  std::reverse(participants.begin(), participants.end());
  for (const std::string& backend : linalg::ListBackends()) {
    linalg::ScopedBackend scoped(backend);
    const SimilarityBlock block =
        ComputeSimilarityBlock(moments, participants);
    for (int a = 0; a < 45; ++a) {
      for (int b = a + 1; b < 45; ++b) {
        ASSERT_EQ(block.values(a, b), block.values(b, a))
            << backend << " pair (" << a << ", " << b << ")";
      }
    }
  }
}

TEST(SimilarityQuantileTest, NthElementMatchesFullSortReference) {
  const auto moments = ClusteredMoments(23, 5, 14, /*seed=*/3);
  const auto participants = AllParticipants(23);
  const SimilarityBlock block = ComputeSimilarityBlock(moments, participants);
  // Reference: the historical full-sort selection.
  std::vector<float> values;
  for (int a = 0; a < 23; ++a) {
    for (int b = a + 1; b < 23; ++b) values.push_back(block.values(a, b));
  }
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    std::vector<float> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(q * static_cast<double>(sorted.size())));
    EXPECT_EQ(SimilarityQuantile(block, q), sorted[idx]) << "q=" << q;
  }
}

TEST(SimilarityQuantileTest, EmptyAndSingleParticipantReturnZero) {
  const auto moments = ClusteredMoments(3, 1, 5, /*seed=*/1);
  for (const std::vector<int>& participants :
       {std::vector<int>{}, std::vector<int>{2}}) {
    const SimilarityBlock block =
        ComputeSimilarityBlock(moments, participants);
    EXPECT_EQ(SimilarityQuantile(block, 0.5), 0.0);
  }
}

// The tentpole parity contract: LSH-pruned set building returns exactly the
// exact oracle's sets — same members, same order — because survivors are
// exact-checked through the same GEMM kernel and the prescreen margin makes
// false negatives vanishingly unlikely (deterministic here: fixed seeds).
TEST(SimilarityParityTest, LshSetsMatchExactOracle) {
  for (uint64_t seed : {5ull, 77ull, 991ull}) {
    for (int n : {8, 60, 300}) {
      for (double epsilon : {0.1, 0.3, 0.8}) {
        const auto moments =
            ClusteredMoments(n, std::max(2, n / 8), 31, seed, 0.15f);
        const auto participants = AllParticipants(n);
        const auto exact =
            BuildAggregationSets(moments, participants, epsilon);
        SimilarityPlaneOptions plane;
        plane.mode = SimilarityMode::kLsh;
        SimilarityStats stats;
        const auto lsh = BuildAggregationSets(moments, participants, epsilon,
                                              plane, &stats);
        EXPECT_EQ(exact, lsh)
            << "n=" << n << " epsilon=" << epsilon << " seed=" << seed;
        EXPECT_EQ(stats.mode_used, SimilarityMode::kLsh);
        EXPECT_EQ(stats.pairs_exact + stats.pairs_pruned,
                  static_cast<int64_t>(n) * (n - 1));
      }
    }
  }
}

// The mirror-and-order step: with participants in a permuted order and
// only part of the clients taking part, every LSH row must still list its
// members in the exact oracle's (participants) order — under every backend.
TEST(SimilarityParityTest, LshMatchesExactOnPermutedPartialParticipants) {
  const int n = 240;
  const auto moments = ClusteredMoments(n, 30, 31, /*seed=*/404, 0.15f);
  Rng rng(404);
  std::vector<int> participants;
  for (int i = 0; i < n; ++i) {
    if (rng.Uniform() < 0.7) participants.push_back(i);
  }
  rng.Shuffle(participants);
  ASSERT_FALSE(std::is_sorted(participants.begin(), participants.end()));
  const int64_t p = static_cast<int64_t>(participants.size());
  SimilarityPlaneOptions plane;
  plane.mode = SimilarityMode::kLsh;
  for (const std::string& backend : linalg::ListBackends()) {
    linalg::ScopedBackend scoped(backend);
    for (double epsilon : {0.2, 0.6}) {
      SimilarityStats stats;
      const auto lsh = BuildAggregationSets(moments, participants, epsilon,
                                            plane, &stats);
      EXPECT_EQ(lsh, BuildAggregationSets(moments, participants, epsilon))
          << backend << " epsilon=" << epsilon;
      EXPECT_EQ(stats.pairs_exact % 2, 0);
      EXPECT_EQ(stats.pairs_exact + stats.pairs_pruned, p * (p - 1));
      EXPECT_GT(stats.pairs_pruned, 0);
    }
  }
  // Degenerate rounds: one to three participants, out of order.
  for (const std::vector<int>& few : {std::vector<int>{7},
                                      std::vector<int>{9, 2},
                                      std::vector<int>{5, 1, 3}}) {
    EXPECT_EQ(BuildAggregationSets(moments, few, -1.0, plane),
              BuildAggregationSets(moments, few, -1.0));
  }
}

// The triangle is split into thread-count-dependent ranges; the sets and
// the pair counters must not notice.
TEST(SimilarityParityTest, LshSetsIdenticalAtOneAndFourThreads) {
  const int n = 300;
  const auto moments = ClusteredMoments(n, 25, 31, /*seed=*/8, 0.15f);
  std::vector<int> participants = AllParticipants(n);
  std::reverse(participants.begin(), participants.end());
  SimilarityPlaneOptions plane;
  plane.mode = SimilarityMode::kLsh;
  std::vector<std::vector<std::vector<int>>> sets;
  std::vector<int64_t> exact;
  for (int threads : {1, 4}) {
    SetGlobalThreadPoolSize(threads);
    SimilarityStats stats;
    sets.push_back(
        BuildAggregationSets(moments, participants, 0.3, plane, &stats));
    exact.push_back(stats.pairs_exact);
  }
  SetGlobalThreadPoolSize(0);
  EXPECT_EQ(sets[0], sets[1]);
  EXPECT_EQ(exact[0], exact[1]);
}

// The hardware-popcount screen (what LshScreen runs wherever the CPU has
// popcnt) and the portable one must return the same candidates, for every
// signature width and threshold — including h_max == bits (ε <= -1),
// where nothing may be pruned.
TEST(LshScreenTest, PopcntAndPortableScreensAgree) {
  Rng rng(2024);
  for (int64_t words : {1, 2, 3, 4, 7}) {
    const int64_t rows = 97;
    std::vector<uint64_t> sigs(static_cast<size_t>(rows * words));
    for (uint64_t& w : sigs) {
      w = static_cast<uint64_t>(
          rng.UniformInt(std::numeric_limits<int64_t>::min(),
                         std::numeric_limits<int64_t>::max()));
    }
    SimilarityPlaneOptions plane;
    plane.lsh_signature_bits = static_cast<int>(64 * words);
    for (double epsilon : {-1.0, -0.5, 0.0, 0.3, 0.9}) {
      const internal::LshShape shape = internal::LshShapeFor(epsilon, plane);
      ASSERT_EQ(shape.words, words);
      if (epsilon <= -1.0) {
        EXPECT_EQ(shape.h_max, shape.bits);
      }
      for (int64_t a : {int64_t{0}, int64_t{41}, rows - 1}) {
        const uint64_t* sig = sigs.data() + a * words;
        std::vector<int32_t> portable;
        const int64_t pruned = internal::LshScreenPortable(
            sig, sigs.data(), a + 1, rows, shape, &portable);
        EXPECT_EQ(pruned + static_cast<int64_t>(portable.size()),
                  rows - a - 1);
        if (shape.h_max == shape.bits) {
          EXPECT_EQ(pruned, 0);
        }
        std::vector<int32_t> hardware;
        EXPECT_EQ(internal::LshScreen(sig, sigs.data(), a + 1, rows, shape,
                                      &hardware),
                  pruned);
        EXPECT_EQ(hardware, portable)
            << "words=" << words << " epsilon=" << epsilon << " a=" << a;
      }
    }
  }
}

TEST(SimilarityParityTest, LshPrunesPairsOnSeparatedClusters) {
  // Orthogonal-ish clusters at a high threshold: most cross-cluster pairs
  // have Hamming distance far above the screen and must be pruned.
  const int n = 120;
  const auto moments = ClusteredMoments(n, 8, 64, /*seed=*/13, 0.02f);
  const auto participants = AllParticipants(n);
  SimilarityPlaneOptions plane;
  plane.mode = SimilarityMode::kLsh;
  SimilarityStats stats;
  const auto lsh =
      BuildAggregationSets(moments, participants, 0.9, plane, &stats);
  EXPECT_EQ(lsh, BuildAggregationSets(moments, participants, 0.9));
  EXPECT_GT(stats.pairs_pruned, 0);
}

TEST(SimilarityParityTest, AutoModeSwitchesOnParticipantCount) {
  const auto moments = ClusteredMoments(20, 4, 16, /*seed=*/21);
  SimilarityPlaneOptions plane;
  plane.mode = SimilarityMode::kAuto;
  plane.auto_lsh_min_participants = 12;

  SimilarityStats small_stats;
  std::vector<int> small(8);
  for (int i = 0; i < 8; ++i) small[static_cast<size_t>(i)] = i;
  (void)BuildAggregationSets(moments, small, 0.3, plane, &small_stats);
  EXPECT_EQ(small_stats.mode_used, SimilarityMode::kExact);

  SimilarityStats large_stats;
  (void)BuildAggregationSets(moments, AllParticipants(20), 0.3, plane,
                             &large_stats);
  EXPECT_EQ(large_stats.mode_used, SimilarityMode::kLsh);
}

// End-to-end Eq. 6+7: with LSH sets equal to exact sets, the personalized
// weights must be bit-identical — same sets, same canonical accumulation.
TEST(FedGtaAggregatePlaneTest, ExactAndLshWeightsBitIdentical) {
  const int n = 64;
  const int dim = 300;
  Rng rng(99);
  std::vector<ClientMetrics> metrics(static_cast<size_t>(n));
  std::vector<std::vector<float>> params(static_cast<size_t>(n));
  std::vector<int64_t> train_sizes(static_cast<size_t>(n));
  const auto moments = ClusteredMoments(n, 6, 24, /*seed=*/41, 0.05f);
  for (int i = 0; i < n; ++i) {
    metrics[static_cast<size_t>(i)].moments = moments[static_cast<size_t>(i)];
    metrics[static_cast<size_t>(i)].confidence = 0.5 + 0.01 * i;
    params[static_cast<size_t>(i)].resize(static_cast<size_t>(dim));
    for (float& x : params[static_cast<size_t>(i)]) x = rng.Normal();
    train_sizes[static_cast<size_t>(i)] = 10 + i;
  }
  const auto participants = AllParticipants(n);

  FedGtaOptions exact_options;
  exact_options.epsilon = 0.4;
  std::vector<std::vector<float>> exact_out(static_cast<size_t>(n));
  std::vector<std::vector<int>> exact_sets;
  FedGtaAggregate(metrics, params, train_sizes, participants, exact_options,
                  &exact_out, &exact_sets);

  FedGtaOptions lsh_options = exact_options;
  lsh_options.similarity.mode = SimilarityMode::kLsh;
  std::vector<std::vector<float>> lsh_out(static_cast<size_t>(n));
  std::vector<std::vector<int>> lsh_sets;
  FedGtaAggregate(metrics, params, train_sizes, participants, lsh_options,
                  &lsh_out, &lsh_sets);

  EXPECT_EQ(exact_sets, lsh_sets);
  EXPECT_EQ(exact_out, lsh_out);  // bitwise: float vectors compared exactly
}

// Dedup correctness: the grouped Eq. 7 must produce exactly what a naive
// per-client canonical-order accumulation produces, and clients sharing a
// set must share bit-identical weights.
TEST(FedGtaAggregatePlaneTest, DedupMatchesNaiveCanonicalReference) {
  const int n = 30;
  const int dim = 50;
  Rng rng(123);
  std::vector<ClientMetrics> metrics(static_cast<size_t>(n));
  std::vector<std::vector<float>> params(static_cast<size_t>(n));
  std::vector<int64_t> train_sizes(static_cast<size_t>(n));
  // Three tight clusters -> exactly three distinct aggregation sets, each
  // shared by 10 clients.
  const auto moments = ClusteredMoments(n, 3, 12, /*seed=*/55, 0.01f);
  for (int i = 0; i < n; ++i) {
    metrics[static_cast<size_t>(i)].moments = moments[static_cast<size_t>(i)];
    metrics[static_cast<size_t>(i)].confidence = 1.0 + 0.1 * (i % 7);
    params[static_cast<size_t>(i)].resize(static_cast<size_t>(dim));
    for (float& x : params[static_cast<size_t>(i)]) x = rng.Normal();
    train_sizes[static_cast<size_t>(i)] = 5 + i;
  }
  const auto participants = AllParticipants(n);

  FedGtaOptions options;
  options.epsilon = 0.8;
  const int64_t unique_before =
      CounterValue("fedgta.aggregation.unique_sets");
  std::vector<std::vector<float>> out(static_cast<size_t>(n));
  std::vector<std::vector<int>> sets;
  FedGtaAggregate(metrics, params, train_sizes, participants, options, &out,
                  &sets);
  EXPECT_EQ(CounterValue("fedgta.aggregation.unique_sets") - unique_before,
            3);

  for (int i : participants) {
    std::vector<int> canonical = sets[static_cast<size_t>(i)];
    std::sort(canonical.begin(), canonical.end());
    double weight_sum = 0.0;
    for (int j : canonical) {
      weight_sum += metrics[static_cast<size_t>(j)].confidence;
    }
    std::vector<float> expected(static_cast<size_t>(dim), 0.0f);
    for (int j : canonical) {
      const float w = static_cast<float>(
          metrics[static_cast<size_t>(j)].confidence / weight_sum);
      Axpy(w, params[static_cast<size_t>(j)], expected);
    }
    EXPECT_EQ(out[static_cast<size_t>(i)], expected) << "client " << i;
  }
  // Clients in the same cluster share the set, hence identical weights.
  EXPECT_EQ(out[0], out[3]);
  EXPECT_EQ(out[1], out[4]);
}

TEST(FedGtaAggregatePlaneTest, ResultsInvariantToThreadCount) {
  const int n = 48;
  const int dim = 80;
  Rng rng(7);
  std::vector<ClientMetrics> metrics(static_cast<size_t>(n));
  std::vector<std::vector<float>> params(static_cast<size_t>(n));
  std::vector<int64_t> train_sizes(static_cast<size_t>(n), 10);
  const auto moments = ClusteredMoments(n, 5, 20, /*seed=*/77, 0.1f);
  for (int i = 0; i < n; ++i) {
    metrics[static_cast<size_t>(i)].moments = moments[static_cast<size_t>(i)];
    metrics[static_cast<size_t>(i)].confidence = 0.3 + 0.02 * i;
    params[static_cast<size_t>(i)].resize(static_cast<size_t>(dim));
    for (float& x : params[static_cast<size_t>(i)]) x = rng.Normal();
  }
  const auto participants = AllParticipants(n);
  FedGtaOptions options;
  options.epsilon = 0.3;

  std::vector<std::vector<std::vector<float>>> runs;
  for (int threads : {1, 4}) {
    SetGlobalThreadPoolSize(threads);
    std::vector<std::vector<float>> out(static_cast<size_t>(n));
    FedGtaAggregate(metrics, params, train_sizes, participants, options,
                    &out);
    runs.push_back(std::move(out));
  }
  SetGlobalThreadPoolSize(1);
  EXPECT_EQ(runs[0], runs[1]);
}

// The strategy reads its uploads in place, in whatever order they arrive;
// Eq. 6 groups are built on the pool and Eq. 7 visits them sorted by set.
// None of that may show: with shuffled uploads, partial participation in
// shuffled order, both similarity modes and 1 or 4 threads, the sets, the
// group order and every personalized weight must equal a naive serial
// Eq. 6 + first-appearance Eq. 7 bit for bit.
TEST(FedGtaAggregatePlaneTest, ShuffledUploadsMatchNaiveFirstAppearanceEq7) {
  const int n = 60;
  const int dim = 33;
  const double epsilon = 0.5;
  const auto moments = ClusteredMoments(n, 5, 40, /*seed=*/17, 0.05f);
  Rng rng(5);
  std::vector<int> participants;
  for (int i = 0; i < n; ++i) {
    if (i % 5 != 2) participants.push_back(i);
  }
  rng.Shuffle(participants);
  std::vector<LocalResult> uploads;
  std::vector<int64_t> train_sizes(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) train_sizes[static_cast<size_t>(i)] = 7 + i;
  for (int i : participants) {
    LocalResult r;
    r.client_id = i;
    r.params.resize(static_cast<size_t>(dim));
    for (float& x : r.params) x = rng.Normal();
    r.metrics.moments = moments[static_cast<size_t>(i)];
    r.metrics.confidence = 0.2 + 0.013 * i;
    uploads.push_back(std::move(r));
  }
  rng.Shuffle(uploads);
  std::vector<const LocalResult*> by_id(static_cast<size_t>(n), nullptr);
  for (const LocalResult& r : uploads) {
    by_id[static_cast<size_t>(r.client_id)] = &r;
  }

  // Naive Eq. 6: {i}, then every other participant, in participants order,
  // whose double-precision cosine reaches ε (the clusters sit far from it).
  const auto cosine = [&](int i, int j) {
    double dot = 0.0, ni = 0.0, nj = 0.0;
    for (size_t k = 0; k < moments[0].size(); ++k) {
      const double a = moments[static_cast<size_t>(i)][k];
      const double b = moments[static_cast<size_t>(j)][k];
      dot += a * b;
      ni += a * a;
      nj += b * b;
    }
    return dot / std::sqrt(ni * nj);
  };
  std::vector<std::vector<int>> want_sets(static_cast<size_t>(n));
  for (int i : participants) {
    want_sets[static_cast<size_t>(i)].push_back(i);
    for (int j : participants) {
      if (j != i && cosine(i, j) >= epsilon) {
        want_sets[static_cast<size_t>(i)].push_back(j);
      }
    }
  }
  // First-appearance groups and their Eq. 7 weights.
  std::vector<AggregationGroup> want_groups;
  for (int i : participants) {
    std::vector<int> canonical = want_sets[static_cast<size_t>(i)];
    std::sort(canonical.begin(), canonical.end());
    auto it = std::find_if(want_groups.begin(), want_groups.end(),
                           [&](const AggregationGroup& g) {
                             return g.canonical == canonical;
                           });
    if (it == want_groups.end()) {
      want_groups.push_back({canonical, {}});
      it = want_groups.end() - 1;
    }
    it->clients.push_back(i);
  }
  const std::vector<float> init(static_cast<size_t>(dim), 0.25f);
  std::vector<std::vector<float>> want(static_cast<size_t>(n), init);
  for (const AggregationGroup& g : want_groups) {
    double weight_sum = 0.0;
    for (int j : g.canonical) {
      weight_sum += by_id[static_cast<size_t>(j)]->metrics.confidence;
    }
    std::vector<float> out(static_cast<size_t>(dim), 0.0f);
    for (int j : g.canonical) {
      const LocalResult& r = *by_id[static_cast<size_t>(j)];
      Axpy(static_cast<float>(r.metrics.confidence / weight_sum), r.params,
           out);
    }
    for (int i : g.clients) want[static_cast<size_t>(i)] = out;
  }
  ASSERT_GT(want_groups.size(), 1u);
  ASSERT_LT(want_groups.size(), participants.size());

  for (const SimilarityMode mode :
       {SimilarityMode::kExact, SimilarityMode::kLsh}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << SimilarityModeName(mode)
                                      << " threads=" << threads);
      SetGlobalThreadPoolSize(threads);
      FedGtaOptions options;
      options.epsilon = epsilon;
      options.similarity.mode = mode;
      FedGtaStrategy strategy(options);
      strategy.Initialize(n, train_sizes, init);
      strategy.Aggregate(participants, uploads);
      for (int i = 0; i < n; ++i) {
        const std::span<const float> got = strategy.ParamsFor(i);
        EXPECT_EQ(std::vector<float>(got.begin(), got.end()),
                  want[static_cast<size_t>(i)])
            << "client " << i;
      }
      EXPECT_EQ(strategy.last_aggregation_sets(), want_sets);
      const std::vector<AggregationGroup> groups =
          GroupByAggregationSet(moments, participants, options);
      ASSERT_EQ(groups.size(), want_groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        EXPECT_EQ(groups[g].canonical, want_groups[g].canonical) << g;
        EXPECT_EQ(groups[g].clients, want_groups[g].clients) << g;
      }
    }
  }
  SetGlobalThreadPoolSize(1);
}

// Satellite regression: adaptive-ε must compute the similarity block once
// (the seed computed it twice — once for the quantile, once for the sets).
TEST(FedGtaAggregatePlaneTest, AdaptiveEpsilonComputesSimilarityOnce) {
  const int n = 16;
  std::vector<ClientMetrics> metrics(static_cast<size_t>(n));
  std::vector<std::vector<float>> params(static_cast<size_t>(n));
  std::vector<int64_t> train_sizes(static_cast<size_t>(n), 4);
  const auto moments = ClusteredMoments(n, 4, 10, /*seed=*/31);
  for (int i = 0; i < n; ++i) {
    metrics[static_cast<size_t>(i)].moments = moments[static_cast<size_t>(i)];
    metrics[static_cast<size_t>(i)].confidence = 1.0;
    params[static_cast<size_t>(i)] = {1.0f, 2.0f};
  }
  FedGtaOptions options;
  options.adaptive_epsilon = true;
  options.adaptive_quantile = 0.5;

  const int64_t calls_before = CounterValue("phase.similarity.calls");
  std::vector<std::vector<float>> out(static_cast<size_t>(n));
  FedGtaAggregate(metrics, params, train_sizes, AllParticipants(n), options,
                  &out);
  EXPECT_EQ(CounterValue("phase.similarity.calls") - calls_before, 1);
}

// --- Shard-boundary parity (DESIGN.md §5k) ---------------------------------
//
// The hierarchical root builds the Eq. 6 groups with the single-server
// code (GroupByAggregationSet); the shards then run Eq. 7 over their staged
// weights. These tests stage K ShardPlanes in-process and check the
// sharded Eq. 7 against the single-server oracle.

struct ShardedFixture {
  int n = 0;
  std::vector<int> participants;
  std::vector<std::vector<float>> moments;
  std::vector<std::vector<float>> params;
  std::vector<double> confidences;  // by client id
  std::vector<int64_t> train_sizes;
};

ShardedFixture MakeShardedFixture(int n, int dim, uint64_t seed) {
  ShardedFixture f;
  f.n = n;
  f.moments = ClusteredMoments(n, std::max(2, n / 8), 31, seed, 0.15f);
  f.params.resize(static_cast<size_t>(n));
  f.confidences.resize(static_cast<size_t>(n));
  f.train_sizes.resize(static_cast<size_t>(n));
  Rng rng(seed ^ 0xABCDull);
  for (int i = 0; i < n; ++i) {
    f.params[static_cast<size_t>(i)].resize(static_cast<size_t>(dim));
    for (float& x : f.params[static_cast<size_t>(i)]) x = rng.Normal();
    f.confidences[static_cast<size_t>(i)] = 0.5 + 0.01 * i;
    f.train_sizes[static_cast<size_t>(i)] = 10 + i;
    // Drop some clients so the survivor frame is irregular and shard
    // boundaries fall inside aggregation sets.
    if (i % 7 != 3) f.participants.push_back(i);
  }
  return f;
}

// The Eq. 7 half of the contract: on root-built sets, chaining
// AccumulatePartial across the shards in ascending shard order must
// reproduce the single-server personalized weights bit for bit, and a set
// that never crosses a shard boundary must short-circuit through
// AggregateLocalSet to the same bits.
TEST(ShardPlaneParityTest, ChainedPartialsBitIdenticalToSingleServer) {
  const int n = 36;
  const int dim = 40;
  const ShardedFixture f = MakeShardedFixture(n, dim, /*seed=*/77);

  // ε = 0.4 crosses shard boundaries with most sets; at 0.99 most are
  // singletons, which stay inside their shard.
  int local_sets = 0;
  int cross_sets = 0;
  for (double epsilon : {0.4, 0.99}) {
    FedGtaOptions options;
    options.epsilon = epsilon;

    // Single-server oracle: the full Eq. 6+7 plane.
    std::vector<ClientMetrics> metrics(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      metrics[static_cast<size_t>(i)].moments =
          f.moments[static_cast<size_t>(i)];
      metrics[static_cast<size_t>(i)].confidence =
          f.confidences[static_cast<size_t>(i)];
    }
    std::vector<std::vector<float>> oracle_out(static_cast<size_t>(n));
    FedGtaAggregate(metrics, f.params, f.train_sizes, f.participants, options,
                    &oracle_out);

    // The root's Eq. 6 over the same rows.
    const std::vector<AggregationGroup> groups =
        GroupByAggregationSet(f.moments, f.participants, options);

    for (int shards : {2, 3}) {
      const fed::Topology topo(n, shards, shards);
      std::vector<std::unique_ptr<fed::ShardPlane>> planes;
      for (int a = 0; a < shards; ++a) {
        planes.push_back(std::make_unique<fed::ShardPlane>(
            topo.ClientShard(a), options.disable_confidence, f.train_sizes));
        std::vector<fed::ShardUpload> uploads;
        for (int id : f.participants) {
          if (!topo.ClientShard(a).contains(id)) continue;
          uploads.push_back({id, f.params[static_cast<size_t>(id)],
                             f.confidences[static_cast<size_t>(id)]});
        }
        planes.back()->StageRound(std::move(uploads));
      }
      const auto plane_of = [&](int id) -> const fed::ShardPlane& {
        return *planes[static_cast<size_t>(topo.AggregatorOf(id))];
      };

      for (const AggregationGroup& group : groups) {
        const std::vector<int>& canonical = group.canonical;
        const fed::ShardPlane& first = plane_of(canonical.front());
        const bool local = first.shard().contains(canonical.back());
        std::vector<float> got;
        if (local) {
          ++local_sets;
          got = first.AggregateLocalSet(canonical);
        } else {
          ++cross_sets;
          // The root's weight sum, double-accumulated in canonical order.
          double weight_sum = 0.0;
          for (int m : canonical) weight_sum += plane_of(m).MemberWeight(m);
          got.assign(static_cast<size_t>(dim), 0.0f);
          for (const auto& plane : planes) {
            plane->AccumulatePartial(canonical, weight_sum, &got);
          }
        }
        for (int id : group.clients) {
          EXPECT_EQ(got, oracle_out[static_cast<size_t>(id)])
              << "client " << id << " epsilon=" << epsilon
              << " shards=" << shards
              << (local ? " (local set)" : " (cross-shard set)");
        }
      }
    }
  }
  EXPECT_GT(local_sets, 0);
  EXPECT_GT(cross_sets, 0);
}

TEST(FedGtaAggregatePlaneTest, PairCountersAccumulateInRegistry) {
  const int n = 10;
  const auto moments = ClusteredMoments(n, 2, 8, /*seed=*/63);
  const int64_t exact_before = CounterValue("fedgta.similarity.pairs_exact");
  (void)BuildAggregationSets(moments, AllParticipants(n), 0.3);
  EXPECT_EQ(CounterValue("fedgta.similarity.pairs_exact") - exact_before,
            static_cast<int64_t>(n) * (n - 1));
}

}  // namespace
}  // namespace fedgta
