// Tests of the server similarity/aggregation plane (DESIGN.md §5h): the
// GEMM-backed Eq. 6 block and its operand symmetry, the symmetric LSH
// pass's exact-set parity, the hardware/portable screen agreement,
// the nth_element quantile rewrite, and the deduplicated parallel Eq. 7.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fedgta_metrics.h"
#include "core/similarity.h"
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
      const LshShape shape = LshShapeFor(epsilon, plane);
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
        EXPECT_EQ(LshScreen(sig, sigs.data(), a + 1, rows, shape, &hardware),
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
// Drives the full cross-shard exchange in-process over K ShardPlanes —
// stage, signature concat, global frame install, candidate generation,
// moment fetch, set admission — and checks the result against the
// single-server oracle. This is the satellite contract: candidate pairs
// that cross shard boundaries must match the oracle's sets exactly, for
// every seed, shard count, and similarity mode.

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

// Stages every shard, runs the signature/candidate/moment exchange the
// root drives over RPC, and returns one ShardPlane per shard, ready for
// BuildSets. `candidates` receives each shard's candidate structure.
std::vector<std::unique_ptr<fed::ShardPlane>> RunShardedExchange(
    const ShardedFixture& f, const fed::Topology& topo,
    const FedGtaOptions& options, bool use_lsh,
    std::vector<fed::ShardPlane::Candidates>* candidates) {
  const int shards = topo.num_aggregators();
  std::vector<std::unique_ptr<fed::ShardPlane>> planes;
  std::vector<uint64_t> global_sigs;
  for (int a = 0; a < shards; ++a) {
    planes.push_back(std::make_unique<fed::ShardPlane>(
        f.n, topo.ClientShard(a), options, f.train_sizes));
    std::vector<fed::ShardUpload> uploads;
    for (int id : f.participants) {
      if (!topo.ClientShard(a).contains(id)) continue;
      fed::ShardUpload up;
      up.client_id = id;
      up.params = f.params[static_cast<size_t>(id)];
      up.moments = f.moments[static_cast<size_t>(id)];
      up.confidence = f.confidences[static_cast<size_t>(id)];
      uploads.push_back(std::move(up));
    }
    planes.back()->StageRound(std::move(uploads));
    if (use_lsh) {
      // Shard-order concat == survivor-major global order (contiguity).
      const std::vector<uint64_t> sigs = planes.back()->Signatures();
      global_sigs.insert(global_sigs.end(), sigs.begin(), sigs.end());
    }
  }
  std::vector<double> frame_confidences;
  for (int id : f.participants) {
    frame_confidences.push_back(f.confidences[static_cast<size_t>(id)]);
  }
  candidates->clear();
  for (int a = 0; a < shards; ++a) {
    planes[static_cast<size_t>(a)]->InstallGlobalFrame(
        f.participants, frame_confidences, global_sigs);
    candidates->push_back(
        planes[static_cast<size_t>(a)]->ComputeCandidates(use_lsh));
  }
  // MomentFetch: serve each shard's want-list from the owning shards.
  for (int a = 0; a < shards; ++a) {
    std::vector<std::vector<int>> by_owner(static_cast<size_t>(shards));
    for (int id : (*candidates)[static_cast<size_t>(a)].remote_wanted) {
      by_owner[static_cast<size_t>(topo.AggregatorOf(id))].push_back(id);
    }
    for (int src = 0; src < shards; ++src) {
      const std::vector<int>& ids = by_owner[static_cast<size_t>(src)];
      if (ids.empty()) continue;
      EXPECT_NE(src, a) << "shard wants a row it already owns";
      planes[static_cast<size_t>(a)]->InstallRemoteRows(
          ids, planes[static_cast<size_t>(src)]->ExportRows(ids));
    }
  }
  return planes;
}

TEST(ShardPlaneParityTest, CrossShardSetsMatchSingleServerOracle) {
  const int n = 48;
  const double epsilon = 0.3;
  for (uint64_t seed : {5ull, 311ull, 991ull}) {
    const ShardedFixture f = MakeShardedFixture(n, /*dim=*/8, seed);
    for (int shards : {2, 3, 4}) {
      for (bool use_lsh : {false, true}) {
        FedGtaOptions options;
        options.epsilon = epsilon;
        options.similarity.mode =
            use_lsh ? SimilarityMode::kLsh : SimilarityMode::kExact;

        SimilarityStats oracle_stats;
        const auto oracle_sets = BuildAggregationSets(
            f.moments, f.participants, epsilon, options.similarity,
            &oracle_stats);

        const fed::Topology topo(n, shards, shards);
        std::vector<fed::ShardPlane::Candidates> candidates;
        const auto planes =
            RunShardedExchange(f, topo, options, use_lsh, &candidates);

        // The sharded prescreen must examine exactly the pairs the
        // single-server sweep examines, with the same prune decisions.
        int64_t pairs_exact = 0;
        int64_t pairs_pruned = 0;
        for (const auto& c : candidates) {
          pairs_exact += c.pairs_exact;
          pairs_pruned += c.pairs_pruned;
        }
        EXPECT_EQ(pairs_exact, oracle_stats.pairs_exact)
            << "shards=" << shards << " lsh=" << use_lsh << " seed=" << seed;
        EXPECT_EQ(pairs_pruned, oracle_stats.pairs_pruned)
            << "shards=" << shards << " lsh=" << use_lsh << " seed=" << seed;

        // Every staged row's admitted set equals the oracle's, across
        // shard boundaries.
        for (int a = 0; a < shards; ++a) {
          const auto sets =
              planes[static_cast<size_t>(a)]->BuildSets(
                  candidates[static_cast<size_t>(a)]);
          const std::vector<int>& staged =
              planes[static_cast<size_t>(a)]->staged();
          ASSERT_EQ(sets.size(), staged.size());
          for (size_t r = 0; r < staged.size(); ++r) {
            EXPECT_EQ(sets[r],
                      oracle_sets[static_cast<size_t>(staged[r])])
                << "client " << staged[r] << " shard " << a
                << " shards=" << shards << " lsh=" << use_lsh
                << " seed=" << seed;
          }
        }
      }
    }
  }
}

// The Eq. 7 half of the contract: chaining AccumulatePartial across the
// shards in ascending shard order must reproduce the single-server
// personalized weights bit for bit, and a set that never crosses a shard
// boundary must short-circuit through AggregateLocalSet to the same bits.
TEST(ShardPlaneParityTest, ChainedPartialsBitIdenticalToSingleServer) {
  const int n = 36;
  const int dim = 40;
  const ShardedFixture f = MakeShardedFixture(n, dim, /*seed=*/77);

  FedGtaOptions options;
  options.epsilon = 0.4;

  // Single-server oracle: the full Eq. 6+7 plane.
  std::vector<ClientMetrics> metrics(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    metrics[static_cast<size_t>(i)].moments =
        f.moments[static_cast<size_t>(i)];
    metrics[static_cast<size_t>(i)].confidence =
        f.confidences[static_cast<size_t>(i)];
  }
  std::vector<std::vector<float>> oracle_out(static_cast<size_t>(n));
  std::vector<std::vector<int>> oracle_sets;
  FedGtaAggregate(metrics, f.params, f.train_sizes, f.participants, options,
                  &oracle_out, &oracle_sets);

  for (int shards : {2, 3}) {
    const fed::Topology topo(n, shards, shards);
    std::vector<fed::ShardPlane::Candidates> candidates;
    const auto planes =
        RunShardedExchange(f, topo, options, /*use_lsh=*/false, &candidates);

    for (int a = 0; a < shards; ++a) {
      const fed::ShardPlane& plane = *planes[static_cast<size_t>(a)];
      const auto sets = plane.BuildSets(candidates[static_cast<size_t>(a)]);
      for (size_t r = 0; r < plane.staged().size(); ++r) {
        const int id = plane.staged()[r];
        std::vector<int> canonical = sets[r];
        std::sort(canonical.begin(), canonical.end());
        const bool local =
            std::all_of(canonical.begin(), canonical.end(), [&](int m) {
              return plane.shard().contains(m);
            });
        std::vector<float> got;
        if (local) {
          got = plane.AggregateLocalSet(canonical);
        } else {
          const double weight_sum = plane.WeightSum(canonical);
          got.assign(static_cast<size_t>(dim), 0.0f);
          for (int src = 0; src < shards; ++src) {
            planes[static_cast<size_t>(src)]->AccumulatePartial(
                canonical, weight_sum, &got);
          }
        }
        EXPECT_EQ(got, oracle_out[static_cast<size_t>(id)])
            << "client " << id << " shards=" << shards
            << (local ? " (local set)" : " (cross-shard set)");
      }
    }
  }
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
