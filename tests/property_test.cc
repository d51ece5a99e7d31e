// Property-based sweeps (TEST_P) over randomized configurations: invariants
// that must hold for every seed / size / hyperparameter combination.

#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "core/fedgta_metrics.h"
#include "core/label_propagation.h"
#include "core/moments.h"
#include "data/federated.h"
#include "data/registry.h"
#include "graph/generator.h"
#include "graph/metrics.h"
#include "graph/normalized_adjacency.h"
#include "linalg/ops.h"
#include "partition/louvain.h"
#include "partition/metis.h"

namespace fedgta {
namespace {

// ---------------------------------------------------------------------------
// Graph generator invariants across seeds and shapes.

struct SbmCase {
  int nodes;
  int classes;
  double degree;
  double homophily;
  uint64_t seed;
};

class SbmPropertyTest : public ::testing::TestWithParam<SbmCase> {};

TEST_P(SbmPropertyTest, StructuralInvariants) {
  const SbmCase& c = GetParam();
  SbmConfig cfg;
  cfg.num_nodes = c.nodes;
  cfg.num_classes = c.classes;
  cfg.avg_degree = c.degree;
  cfg.homophily = c.homophily;
  Rng rng(c.seed);
  const LabeledGraph lg = GeneratePlantedPartition(cfg, rng);

  EXPECT_EQ(lg.graph.num_nodes(), c.nodes);
  EXPECT_EQ(static_cast<int>(lg.labels.size()), c.nodes);
  // Labels in range, all classes present.
  std::set<int> classes;
  for (int y : lg.labels) {
    ASSERT_GE(y, 0);
    ASSERT_LT(y, c.classes);
    classes.insert(y);
  }
  EXPECT_EQ(static_cast<int>(classes.size()), c.classes);
  // Degree sum == 2 * edges; no self loops (Degree counts neighbors).
  int64_t degree_sum = 0;
  for (NodeId v = 0; v < lg.graph.num_nodes(); ++v) {
    degree_sum += lg.graph.Degree(v);
    for (NodeId u : lg.graph.Neighbors(v)) ASSERT_NE(u, v);
  }
  EXPECT_EQ(degree_sum, 2 * lg.graph.num_edges());
  // Regions refine classes.
  for (int v = 0; v < c.nodes; ++v) {
    EXPECT_EQ(lg.regions[static_cast<size_t>(v)] / cfg.regions_per_class,
              lg.labels[static_cast<size_t>(v)]);
  }
}

TEST_P(SbmPropertyTest, NormalizedAdjacencySpectralBound) {
  const SbmCase& c = GetParam();
  SbmConfig cfg;
  cfg.num_nodes = c.nodes;
  cfg.num_classes = c.classes;
  cfg.avg_degree = c.degree;
  cfg.homophily = c.homophily;
  Rng rng(c.seed);
  const LabeledGraph lg = GeneratePlantedPartition(cfg, rng);
  const CsrMatrix adj = NormalizedAdjacency(lg.graph, 0.5f);
  // ||Ã x|| <= ||x|| for the symmetric normalization with self loops.
  Matrix x(c.nodes, 4);
  Rng xrng(c.seed + 1);
  x.GaussianInit(xrng, 1.0f);
  const Matrix y = adj * x;
  EXPECT_LE(y.FrobeniusNorm(), x.FrobeniusNorm() * (1.0 + 1e-4));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SbmPropertyTest,
    ::testing::Values(SbmCase{200, 2, 3.0, 0.9, 1}, SbmCase{500, 5, 6.0, 0.8, 2},
                      SbmCase{1000, 10, 12.0, 0.7, 3},
                      SbmCase{300, 3, 4.0, 0.3, 4},
                      SbmCase{800, 7, 8.0, 0.95, 5},
                      SbmCase{150, 6, 5.0, 0.5, 6}));

// ---------------------------------------------------------------------------
// Partitioners: every node assigned exactly once, all parts non-empty, for
// many (seed, k) combinations.

// `k` is 64-bit so the struct has no padding: gtest prints an unprintable
// parameter as raw bytes in the test name, and padding bytes would carry
// whatever the stack held, giving names that change from run to run.
struct PartitionCase {
  int64_t k;
  uint64_t seed;
};
static_assert(sizeof(PartitionCase) == sizeof(int64_t) + sizeof(uint64_t));

class PartitionPropertyTest : public ::testing::TestWithParam<PartitionCase> {
 protected:
  static const LabeledGraph& SharedGraph() {
    static const LabeledGraph* lg = [] {
      SbmConfig cfg;
      cfg.num_nodes = 1200;
      cfg.num_classes = 6;
      cfg.avg_degree = 8.0;
      Rng rng(99);
      return new LabeledGraph(GeneratePlantedPartition(cfg, rng));
    }();
    return *lg;
  }
};

TEST_P(PartitionPropertyTest, MetisIsCompletePartition) {
  const int k = static_cast<int>(GetParam().k);
  Rng rng(GetParam().seed);
  const std::vector<int> parts = MetisPartition(SharedGraph().graph, k, rng);
  std::vector<int64_t> counts(static_cast<size_t>(k), 0);
  for (int p : parts) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, k);
    ++counts[static_cast<size_t>(p)];
  }
  for (int64_t cnt : counts) EXPECT_GT(cnt, 0);
}

TEST_P(PartitionPropertyTest, FederatedSplitCoversEveryNodeOnce) {
  const int k = static_cast<int>(GetParam().k);
  const uint64_t seed = GetParam().seed;
  for (const SplitMethod method :
       {SplitMethod::kLouvain, SplitMethod::kMetis}) {
    SplitConfig split;
    split.method = method;
    split.num_clients = k;
    Rng rng(seed);
    const auto clients = FederatedSplit(SharedGraph().graph, split, rng);
    ASSERT_EQ(static_cast<int>(clients.size()), k);
    std::vector<int> seen(1200, 0);
    for (const auto& nodes : clients) {
      EXPECT_FALSE(nodes.empty());
      for (NodeId v : nodes) ++seen[static_cast<size_t>(v)];
    }
    EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 1200);
    EXPECT_EQ(*std::min_element(seen.begin(), seen.end()), 1);
    EXPECT_EQ(*std::max_element(seen.begin(), seen.end()), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ks, PartitionPropertyTest,
    ::testing::Values(PartitionCase{2, 1}, PartitionCase{3, 2},
                      PartitionCase{5, 3}, PartitionCase{8, 4},
                      PartitionCase{10, 5}, PartitionCase{16, 6},
                      PartitionCase{25, 7}));

// ---------------------------------------------------------------------------
// Label propagation: rows of Ŷ^k remain bounded and mass-controlled for any
// alpha/k, since the operator is substochastic.

struct LpCase {
  float alpha;
  int k;
};

class LabelPropPropertyTest : public ::testing::TestWithParam<LpCase> {};

TEST_P(LabelPropPropertyTest, OutputsBoundedAndFinite) {
  const auto& [alpha, k] = GetParam();
  SbmConfig cfg;
  cfg.num_nodes = 250;
  cfg.num_classes = 5;
  cfg.avg_degree = 7.0;
  Rng rng(11);
  const LabeledGraph lg = GeneratePlantedPartition(cfg, rng);
  const CsrMatrix op = LabelPropagationOperator(lg.graph);
  Matrix y0(250, 5);
  y0.GaussianInit(rng, 1.0f);
  RowSoftmaxInPlace(&y0);
  const auto hops = NonParamLabelPropagation(op, y0, alpha, k);
  ASSERT_EQ(hops.size(), static_cast<size_t>(k));
  for (const Matrix& hop : hops) {
    for (int64_t i = 0; i < hop.size(); ++i) {
      ASSERT_TRUE(std::isfinite(hop.data()[i]));
      ASSERT_GE(hop.data()[i], 0.0f);
      ASSERT_LE(hop.data()[i], 1.0f + 1e-5f);
    }
  }
}

TEST_P(LabelPropPropertyTest, MomentsFiniteForAllOrders) {
  const auto& [alpha, k] = GetParam();
  SbmConfig cfg;
  cfg.num_nodes = 250;
  cfg.num_classes = 5;
  Rng rng(12);
  const LabeledGraph lg = GeneratePlantedPartition(cfg, rng);
  const CsrMatrix op = LabelPropagationOperator(lg.graph);
  Matrix y0(250, 5, 0.2f);
  const auto hops = NonParamLabelPropagation(op, y0, alpha, k);
  for (int order : {1, 2, 3, 5, 8}) {
    const auto moments = MixedMoments(hops, order);
    EXPECT_EQ(moments.size(), static_cast<size_t>(k) * order * 5);
    for (float v : moments) ASSERT_TRUE(std::isfinite(v));
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaK, LabelPropPropertyTest,
                         ::testing::Values(LpCase{0.1f, 2}, LpCase{0.5f, 5},
                                           LpCase{0.9f, 3}, LpCase{0.3f, 8},
                                           LpCase{0.5f, 1}));

// ---------------------------------------------------------------------------
// FedGTA aggregation invariants under random uploads.

class AggregationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregationPropertyTest, ConvexityAndSetMembership) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.UniformInt(0, 8));
  const int dim = 4;
  const int moment_dim = 6;
  std::vector<ClientMetrics> metrics(static_cast<size_t>(n));
  std::vector<std::vector<float>> params(static_cast<size_t>(n));
  std::vector<int64_t> sizes(static_cast<size_t>(n));
  std::vector<int> participants;
  float lo = 1e9f, hi = -1e9f;
  for (int i = 0; i < n; ++i) {
    metrics[static_cast<size_t>(i)].confidence = rng.Uniform(0.1f, 5.0f);
    metrics[static_cast<size_t>(i)].moments.resize(moment_dim);
    for (float& v : metrics[static_cast<size_t>(i)].moments) v = rng.Normal();
    params[static_cast<size_t>(i)].resize(dim);
    for (float& v : params[static_cast<size_t>(i)]) {
      v = rng.Normal();
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    sizes[static_cast<size_t>(i)] = rng.UniformInt(1, 100);
    participants.push_back(i);
  }
  FedGtaOptions options;
  options.epsilon = rng.Uniform(-0.5f, 0.9f);
  std::vector<std::vector<float>> personalized(static_cast<size_t>(n));
  std::vector<std::vector<int>> sets;
  FedGtaAggregate(metrics, params, sizes, participants, options,
                  &personalized, &sets);
  for (int i = 0; i < n; ++i) {
    // Sets contain self first, only participants, no duplicates.
    const auto& set = sets[static_cast<size_t>(i)];
    ASSERT_FALSE(set.empty());
    EXPECT_EQ(set.front(), i);
    std::set<int> unique(set.begin(), set.end());
    EXPECT_EQ(unique.size(), set.size());
    // Convex combination: every coordinate within the participants' range.
    for (float v : personalized[static_cast<size_t>(i)]) {
      EXPECT_GE(v, lo - 1e-4f);
      EXPECT_LE(v, hi + 1e-4f);
    }
  }
}

TEST_P(AggregationPropertyTest, IdenticalUploadsAreFixedPoint) {
  Rng rng(GetParam() ^ 0xabc);
  const int n = 3 + static_cast<int>(rng.UniformInt(0, 5));
  std::vector<float> shared(8);
  for (float& v : shared) v = rng.Normal();
  std::vector<ClientMetrics> metrics(static_cast<size_t>(n));
  std::vector<std::vector<float>> params(static_cast<size_t>(n), shared);
  std::vector<int64_t> sizes(static_cast<size_t>(n), 10);
  std::vector<int> participants;
  for (int i = 0; i < n; ++i) {
    metrics[static_cast<size_t>(i)].confidence = rng.Uniform(0.5f, 2.0f);
    metrics[static_cast<size_t>(i)].moments = {1.0f, 2.0f, 3.0f};
    participants.push_back(i);
  }
  FedGtaOptions options;
  std::vector<std::vector<float>> personalized(static_cast<size_t>(n));
  FedGtaAggregate(metrics, params, sizes, participants, options,
                  &personalized);
  for (int i = 0; i < n; ++i) {
    for (size_t j = 0; j < shared.size(); ++j) {
      EXPECT_NEAR(personalized[static_cast<size_t>(i)][j], shared[j], 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Dataset registry: every registered surrogate materializes consistently.

class DatasetPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetPropertyTest, MaterializesConsistently) {
  const std::string& name = GetParam();
  if (name == "ogbn-products" || name == "ogbn-papers100m") {
    GTEST_SKIP() << "large surrogate covered by benches";
  }
  const Dataset ds = MakeDatasetByName(name, 123);
  const Result<DatasetSpec> spec = GetDatasetSpec(name);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(ds.graph.num_nodes(), spec->sbm.num_nodes);
  EXPECT_EQ(ds.num_classes, spec->sbm.num_classes);
  EXPECT_EQ(ds.features.cols(), spec->feature.dim);
  EXPECT_EQ(ds.inductive, spec->inductive);
  // Splits are disjoint and within range.
  std::set<int32_t> seen;
  for (const auto* idx : {&ds.train_idx, &ds.val_idx, &ds.test_idx}) {
    for (int32_t i : *idx) {
      ASSERT_GE(i, 0);
      ASSERT_LT(i, ds.graph.num_nodes());
      EXPECT_TRUE(seen.insert(i).second) << "index in two splits: " << i;
    }
  }
  // Features finite.
  for (int64_t i = 0; i < ds.features.size(); ++i) {
    ASSERT_TRUE(std::isfinite(ds.features.data()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, DatasetPropertyTest,
                         ::testing::ValuesIn(ListDatasets()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace fedgta
