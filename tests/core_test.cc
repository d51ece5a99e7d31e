#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <gtest/gtest.h>

#include "core/fedgta_metrics.h"
#include "core/label_propagation.h"
#include "core/moments.h"
#include "core/similarity.h"
#include "core/smoothing_confidence.h"
#include "common/random.h"
#include "graph/generator.h"
#include "graph/normalized_adjacency.h"
#include "linalg/ops.h"

namespace fedgta {
namespace {

Graph PathGraph(int n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back({i, static_cast<NodeId>(i + 1)});
  return Graph::FromEdges(n, edges);
}

// Uniform soft labels over c classes for n nodes.
Matrix UniformSoftLabels(int n, int c) {
  return Matrix(n, c, 1.0f / static_cast<float>(c));
}

// One-hot soft labels, class = node index % c.
Matrix SharpSoftLabels(int n, int c) {
  Matrix y(n, c);
  for (int i = 0; i < n; ++i) y(i, i % c) = 1.0f;
  return y;
}

TEST(LabelPropagationOperatorTest, EntriesAreInverseSqrtDegrees) {
  Graph g = PathGraph(3);  // degrees 1,2,1 -> d̃ = 2,3,2
  const CsrMatrix op = LabelPropagationOperator(g);
  const Matrix dense = op.ToDense();
  EXPECT_NEAR(dense(0, 1), 1.0f / std::sqrt(6.0f), 1e-6f);
  EXPECT_NEAR(dense(1, 0), 1.0f / std::sqrt(6.0f), 1e-6f);
  EXPECT_FLOAT_EQ(dense(0, 0), 0.0f);  // no diagonal
  EXPECT_FLOAT_EQ(dense(0, 2), 0.0f);
}

TEST(NonParamLpTest, AlphaOneIsIdentity) {
  Graph g = PathGraph(5);
  const CsrMatrix op = LabelPropagationOperator(g);
  const Matrix y0 = SharpSoftLabels(5, 2);
  const auto hops = NonParamLabelPropagation(op, y0, /*alpha=*/1.0f, 3);
  ASSERT_EQ(hops.size(), 3u);
  for (const Matrix& hop : hops) EXPECT_TRUE(hop.AllClose(y0));
}

TEST(NonParamLpTest, MatchesManualRecursion) {
  Graph g = PathGraph(4);
  const CsrMatrix op = LabelPropagationOperator(g);
  Matrix y0(4, 2);
  y0(0, 0) = 1.0f;
  y0(1, 1) = 1.0f;
  y0(2, 0) = 0.5f;
  y0(2, 1) = 0.5f;
  y0(3, 0) = 1.0f;
  const float alpha = 0.5f;
  const auto hops = NonParamLabelPropagation(op, y0, alpha, 2);

  // Manual Eq. (3): Y^l = α Y^0 + (1-α) Op Y^{l-1}.
  Matrix manual = y0;
  for (int l = 0; l < 2; ++l) {
    Matrix prop = op * manual;
    manual = y0;
    manual *= alpha;
    manual.Axpy(1.0f - alpha, prop);
    EXPECT_TRUE(hops[static_cast<size_t>(l)].AllClose(manual, 1e-5f));
  }
}

TEST(NonParamLpTest, PropagationSpreadsInformation) {
  Graph g = PathGraph(6);
  const CsrMatrix op = LabelPropagationOperator(g);
  Matrix y0(6, 2);
  y0(0, 0) = 1.0f;  // only node 0 is labeled class 0
  for (int i = 1; i < 6; ++i) y0(i, 1) = 1.0f;
  const auto hops = NonParamLabelPropagation(op, y0, 0.5f, 4);
  // Node 2 (two hops away) gains class-0 mass only after 2+ hops.
  EXPECT_FLOAT_EQ(hops[0](2, 0), 0.5f * y0(2, 0));
  EXPECT_GT(hops[3](2, 0), hops[0](2, 0));
}

TEST(SmoothingConfidenceTest, SharpBeatsUniform) {
  Graph g = PathGraph(10);
  const auto degrees = SelfLoopDegrees(g);
  const double sharp = SmoothingConfidence(SharpSoftLabels(10, 4), degrees);
  const double uniform = SmoothingConfidence(UniformSoftLabels(10, 4), degrees);
  EXPECT_GT(sharp, uniform)
      << "lower-entropy predictions must yield higher confidence (Eq. 4)";
}

TEST(SmoothingConfidenceTest, SharpPredictionsHitTheoreticalMax) {
  Graph g = PathGraph(4);
  const auto degrees = SelfLoopDegrees(g);
  // Sharp predictions: every entry contributes exactly e^{-1}.
  const double h = SmoothingConfidence(SharpSoftLabels(4, 3), degrees);
  double expected = 0.0;
  for (float d : degrees) expected += d * 3.0 * std::exp(-1.0);
  EXPECT_NEAR(h, expected, 1e-6);
}

TEST(SmoothingConfidenceTest, DegreeWeighting) {
  // Same predictions, but degrees double: H doubles.
  Matrix y = SharpSoftLabels(4, 2);
  const std::vector<float> d1{1.0f, 1.0f, 1.0f, 1.0f};
  const std::vector<float> d2{2.0f, 2.0f, 2.0f, 2.0f};
  EXPECT_NEAR(SmoothingConfidence(y, d2), 2.0 * SmoothingConfidence(y, d1),
              1e-9);
}

TEST(MomentsTest, ShapeIsHopsTimesOrderTimesClasses) {
  std::vector<Matrix> hops{UniformSoftLabels(5, 3), UniformSoftLabels(5, 3)};
  const auto m = MixedMoments(hops, 4);
  EXPECT_EQ(m.size(), 2u * 4u * 3u);
}

TEST(MomentsTest, FirstMomentOfUniformIsZero) {
  // Uniform rows: every entry equals the row mean, so all central moments
  // vanish.
  std::vector<Matrix> hops{UniformSoftLabels(6, 4)};
  const auto m = MixedMoments(hops, 3);
  for (float v : m) EXPECT_NEAR(v, 0.0f, 1e-7f);
}

TEST(MomentsTest, MatchesManualComputation) {
  Matrix y(2, 2);
  y(0, 0) = 0.8f;
  y(0, 1) = 0.2f;
  y(1, 0) = 0.4f;
  y(1, 1) = 0.6f;
  const auto m = MixedMoments({y}, 2);
  ASSERT_EQ(m.size(), 4u);
  // Order 1, class 0: mean over nodes of (y_i0 - mean_i) = ((0.8-0.5)+(0.4-0.5))/2.
  EXPECT_NEAR(m[0], (0.3f - 0.1f) / 2.0f, 1e-6f);
  // Order 1, class 1: symmetric negative.
  EXPECT_NEAR(m[1], -m[0], 1e-6f);
  // Order 2, class 0: ((0.3)^2 + (-0.1)^2)/2.
  EXPECT_NEAR(m[2], (0.09f + 0.01f) / 2.0f, 1e-6f);
}

TEST(MomentsTest, DistinguishesLabelDistributions) {
  // Clients dominated by different classes produce dissimilar moments;
  // clients with the same dominant class produce similar moments.
  auto soft = [](int n, int c, int dominant) {
    Matrix y(n, c, 0.05f);
    for (int i = 0; i < n; ++i) y(i, dominant) = 0.9f;
    return y;
  };
  const auto a = MixedMoments({soft(50, 4, 0)}, 3);
  const auto b = MixedMoments({soft(60, 4, 0)}, 3);
  const auto c = MixedMoments({soft(50, 4, 2)}, 3);
  EXPECT_GT(CosineSimilarity(a, b), 0.99);
  EXPECT_LT(CosineSimilarity(a, c), 0.5);
}

// The Eq. 5 kernel as first written: the row mean recomputed per order and
// std::pow per element. Reference for the one-sweep MixedMoments.
std::vector<float> PowMixedMoments(const std::vector<Matrix>& y_hops,
                                   int moment_order) {
  const int64_t n = y_hops.front().rows();
  const int64_t c = y_hops.front().cols();
  std::vector<float> moments;
  std::vector<double> acc(static_cast<size_t>(c));
  for (const Matrix& y : y_hops) {
    for (int order = 1; order <= moment_order; ++order) {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (int64_t i = 0; i < n; ++i) {
        const float* row = y.data() + i * c;
        double mean = 0.0;
        for (int64_t j = 0; j < c; ++j) mean += row[j];
        mean /= static_cast<double>(c);
        for (int64_t j = 0; j < c; ++j) {
          acc[static_cast<size_t>(j)] +=
              std::pow(static_cast<double>(row[j]) - mean, order);
        }
      }
      for (int64_t j = 0; j < c; ++j) {
        moments.push_back(static_cast<float>(acc[static_cast<size_t>(j)] /
                                             static_cast<double>(n)));
      }
    }
  }
  return moments;
}

// Seeded softmax rows, one matrix per hop.
std::vector<Matrix> SoftmaxHops(int hops, int n, int c, uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> out;
  for (int l = 0; l < hops; ++l) {
    Matrix y(n, c);
    y.GaussianInit(rng, 1.0f);
    RowSoftmaxInPlace(&y);
    out.push_back(std::move(y));
  }
  return out;
}

// Number of representable floats between a and b.
int64_t UlpDistance(float a, float b) {
  auto ordered = [](float f) {
    int32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits >= 0 ? int64_t{bits} : int64_t{INT32_MIN} - bits;
  };
  return std::llabs(ordered(a) - ordered(b));
}

TEST(MomentsTest, MatchesPowReference) {
  int64_t values = 0;
  int64_t exact = 0;
  uint64_t seed = 11;
  for (int c : {3, 40}) {
    for (int order : {1, 2, 3, 4, 8, 20}) {
      for (int hops : {1, 5}) {
        SCOPED_TRACE(testing::Message() << "classes=" << c << " order="
                                        << order << " hops=" << hops);
        const std::vector<Matrix> y = SoftmaxHops(hops, 300, c, ++seed);
        const std::vector<float> got = MixedMoments(y, order);
        const std::vector<float> want = PowMixedMoments(y, order);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_LE(UlpDistance(got[i], want[i]), 1)
              << "index " << i << ": " << got[i] << " vs " << want[i];
          exact += got[i] == want[i] ? 1 : 0;
        }
        values += static_cast<int64_t>(got.size());
      }
    }
  }
  std::printf("MixedMoments: %lld of %lld values bitwise equal to pow\n",
              static_cast<long long>(exact), static_cast<long long>(values));
}

TEST(MomentsTest, LowerOrdersArePrefixOfHigher) {
  const int c = 7;
  const int hops = 3;
  const std::vector<Matrix> y = SoftmaxHops(hops, 50, c, 3);
  for (int order = 1; order <= 8; ++order) {
    SCOPED_TRACE(order);
    const std::vector<float> lower = MixedMoments(y, order);
    const std::vector<float> higher = MixedMoments(y, order + 1);
    for (int l = 0; l < hops; ++l) {
      for (int i = 0; i < order * c; ++i) {
        EXPECT_EQ(lower[static_cast<size_t>(l * order * c + i)],
                  higher[static_cast<size_t>(l * (order + 1) * c + i)])
            << "hop " << l << " entry " << i;
      }
    }
  }
}

TEST(SimilarityTest, MatrixIsSymmetricWithUnitDiagonal) {
  std::vector<std::vector<float>> moments{
      {1.0f, 0.0f}, {0.0f, 1.0f}, {1.0f, 1.0f}};
  const Matrix sim = ComputeSimilarityBlock(moments, {0, 1, 2}).values;
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(sim(i, i), 1.0f);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(sim(i, j), sim(j, i));
  }
  EXPECT_NEAR(sim(0, 1), 0.0f, 1e-6f);
  EXPECT_NEAR(sim(0, 2), 1.0f / std::sqrt(2.0f), 1e-6f);
}

TEST(SimilarityTest, NonParticipantsExcluded) {
  std::vector<std::vector<float>> moments{{1.0f, 0.0f}, {}, {1.0f, 0.1f}};
  const auto sets = BuildAggregationSets(moments, {0, 2}, 0.5);
  EXPECT_TRUE(sets[1].empty());
  EXPECT_EQ(sets[0].front(), 0);
  EXPECT_EQ(sets[2].front(), 2);
  // 0 and 2 are nearly parallel: grouped.
  EXPECT_EQ(sets[0].size(), 2u);
}

TEST(SimilarityTest, ThresholdControlsSetSize) {
  std::vector<std::vector<float>> moments{
      {1.0f, 0.0f}, {0.9f, 0.1f}, {0.0f, 1.0f}};
  const std::vector<int> participants{0, 1, 2};
  const auto strict = BuildAggregationSets(moments, participants, 0.99);
  const auto loose = BuildAggregationSets(moments, participants, -1.0);
  EXPECT_EQ(strict[0].size(), 2u);  // {0, 1}
  EXPECT_EQ(loose[0].size(), 3u);   // everyone
  EXPECT_EQ(strict[2].size(), 1u);  // {2} alone
}

TEST(SimilarityTest, SelfAlwaysIncluded) {
  std::vector<std::vector<float>> moments{{1.0f, 0.0f}, {-1.0f, 0.0f}};
  const auto sets = BuildAggregationSets(moments, {0, 1}, 0.9);
  EXPECT_EQ(sets[0], std::vector<int>{0});
  EXPECT_EQ(sets[1], std::vector<int>{1});
}

TEST(ComputeClientMetricsTest, EndToEndOnGeneratedGraph) {
  SbmConfig cfg;
  cfg.num_nodes = 80;
  cfg.num_classes = 4;
  cfg.avg_degree = 6.0;
  Rng rng(31);
  LabeledGraph lg = GeneratePlantedPartition(cfg, rng);
  Matrix logits(80, 4);
  logits.GaussianInit(rng, 1.0f);
  FedGtaOptions options;
  options.k = 3;
  options.moment_order = 2;
  const ClientMetrics metrics =
      ComputeClientMetrics(lg.graph, logits, options);
  EXPECT_GT(metrics.confidence, 0.0);
  EXPECT_EQ(metrics.moments.size(), 3u * 2u * 4u);
  for (float v : metrics.moments) EXPECT_TRUE(std::isfinite(v));
}

TEST(ComputeClientMetricsTest, SharperLogitsMoreConfident) {
  SbmConfig cfg;
  cfg.num_nodes = 80;
  cfg.num_classes = 4;
  Rng rng(33);
  LabeledGraph lg = GeneratePlantedPartition(cfg, rng);
  Matrix soft_logits(80, 4);
  soft_logits.GaussianInit(rng, 0.1f);
  Matrix sharp_logits = soft_logits;
  sharp_logits *= 50.0f;
  FedGtaOptions options;
  EXPECT_GT(ComputeClientMetrics(lg.graph, sharp_logits, options).confidence,
            ComputeClientMetrics(lg.graph, soft_logits, options).confidence);
}

TEST(FedGtaAggregateTest, SingletonSetKeepsOwnParams) {
  std::vector<ClientMetrics> metrics(2);
  metrics[0].confidence = 1.0;
  metrics[0].moments = {1.0f, 0.0f};
  metrics[1].confidence = 1.0;
  metrics[1].moments = {-1.0f, 0.0f};
  std::vector<std::vector<float>> params{{1.0f, 1.0f}, {5.0f, 5.0f}};
  std::vector<int64_t> sizes{10, 10};
  std::vector<std::vector<float>> personalized(2);
  FedGtaOptions options;
  options.epsilon = 0.9;
  FedGtaAggregate(metrics, params, sizes, {0, 1}, options, &personalized);
  EXPECT_FLOAT_EQ(personalized[0][0], 1.0f);
  EXPECT_FLOAT_EQ(personalized[1][0], 5.0f);
}

TEST(FedGtaAggregateTest, ConfidenceWeightsAggregation) {
  std::vector<ClientMetrics> metrics(2);
  metrics[0].confidence = 3.0;
  metrics[0].moments = {1.0f, 0.0f};
  metrics[1].confidence = 1.0;
  metrics[1].moments = {1.0f, 0.01f};
  std::vector<std::vector<float>> params{{0.0f}, {4.0f}};
  std::vector<int64_t> sizes{10, 10};
  std::vector<std::vector<float>> personalized(2);
  FedGtaOptions options;
  options.epsilon = 0.5;
  FedGtaAggregate(metrics, params, sizes, {0, 1}, options, &personalized);
  // Weight of client 1 = 1/4 -> 0*3/4 + 4*1/4 = 1.
  EXPECT_NEAR(personalized[0][0], 1.0f, 1e-5f);
  EXPECT_NEAR(personalized[1][0], 1.0f, 1e-5f);
}

TEST(FedGtaAggregateTest, DisableMomentsUsesAllParticipants) {
  std::vector<ClientMetrics> metrics(3);
  for (int i = 0; i < 3; ++i) {
    metrics[static_cast<size_t>(i)].confidence = 1.0;
    // Orthogonal moments: with moments enabled everyone would be alone.
    metrics[static_cast<size_t>(i)].moments = {i == 0 ? 1.0f : 0.0f,
                                               i == 1 ? 1.0f : 0.0f,
                                               i == 2 ? 1.0f : 0.0f};
  }
  std::vector<std::vector<float>> params{{3.0f}, {6.0f}, {9.0f}};
  std::vector<int64_t> sizes{1, 1, 1};
  std::vector<std::vector<float>> personalized(3);
  FedGtaOptions options;
  options.epsilon = 0.9;
  options.disable_moments = true;
  std::vector<std::vector<int>> sets;
  FedGtaAggregate(metrics, params, sizes, {0, 1, 2}, options, &personalized,
                  &sets);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sets[static_cast<size_t>(i)].size(), 3u);
    EXPECT_NEAR(personalized[static_cast<size_t>(i)][0], 6.0f, 1e-5f);
  }
}

TEST(FedGtaAggregateTest, DisableConfidenceUsesTrainSizes) {
  std::vector<ClientMetrics> metrics(2);
  metrics[0].confidence = 100.0;  // would dominate if enabled
  metrics[0].moments = {1.0f};
  metrics[1].confidence = 1.0;
  metrics[1].moments = {1.0f};
  std::vector<std::vector<float>> params{{0.0f}, {4.0f}};
  std::vector<int64_t> sizes{1, 3};
  std::vector<std::vector<float>> personalized(2);
  FedGtaOptions options;
  options.epsilon = 0.5;
  options.disable_confidence = true;
  FedGtaAggregate(metrics, params, sizes, {0, 1}, options, &personalized);
  // Size weights: 0*1/4 + 4*3/4 = 3.
  EXPECT_NEAR(personalized[0][0], 3.0f, 1e-5f);
}

TEST(FedGtaAggregateTest, PartialParticipationLeavesOthersUntouched) {
  std::vector<ClientMetrics> metrics(3);
  metrics[0].confidence = 1.0;
  metrics[0].moments = {1.0f};
  metrics[2].confidence = 1.0;
  metrics[2].moments = {1.0f};
  std::vector<std::vector<float>> params{{2.0f}, {}, {4.0f}};
  std::vector<int64_t> sizes{1, 1, 1};
  std::vector<std::vector<float>> personalized{
      {9.0f}, {7.0f}, {9.0f}};
  FedGtaOptions options;
  options.epsilon = 0.5;
  FedGtaAggregate(metrics, params, sizes, {0, 2}, options, &personalized);
  EXPECT_NEAR(personalized[0][0], 3.0f, 1e-5f);
  EXPECT_NEAR(personalized[2][0], 3.0f, 1e-5f);
  EXPECT_FLOAT_EQ(personalized[1][0], 7.0f) << "non-participant untouched";
}

}  // namespace
}  // namespace fedgta
