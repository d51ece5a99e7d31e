#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "gnn/factory.h"
#include "gnn/gamlp.h"
#include "gnn/propagation.h"
#include "graph/generator.h"
#include "graph/normalized_adjacency.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"

namespace fedgta {
namespace {

// A small fixed labeled graph and features for model tests.
struct TestInput {
  Graph graph;
  Graph graph_train;
  Matrix features;
  std::vector<int> labels;
  std::vector<int32_t> train_rows;
  ModelInput input;
};

TestInput MakeTestInput(uint64_t seed, bool inductive = false) {
  TestInput t;
  SbmConfig cfg;
  cfg.num_nodes = 60;
  cfg.num_classes = 3;
  cfg.avg_degree = 6.0;
  cfg.homophily = 0.9;
  cfg.regions_per_class = 1;
  Rng rng(seed);
  LabeledGraph lg = GeneratePlantedPartition(cfg, rng);
  t.graph = std::move(lg.graph);
  FeatureConfig fcfg;
  fcfg.dim = 5;
  fcfg.center_scale = 1.0f;
  fcfg.noise_scale = 0.7f;
  t.features = GenerateFeatures(lg.labels, 3, fcfg, rng);
  t.labels = std::move(lg.labels);
  for (int32_t i = 0; i < 40; ++i) t.train_rows.push_back(i);
  if (inductive) {
    // Drop edges touching the last 10 nodes for the training view.
    std::vector<Edge> kept;
    for (const Edge& e : t.graph.UndirectedEdges()) {
      if (e.u < 50 && e.v < 50) kept.push_back(e);
    }
    t.graph_train = Graph::FromEdges(t.graph.num_nodes(), kept);
    t.input.graph_train = &t.graph_train;
  } else {
    t.input.graph_train = &t.graph;
  }
  t.input.graph_full = &t.graph;
  t.input.features = &t.features;
  t.input.num_classes = 3;
  return t;
}

ModelConfig ConfigFor(ModelType type) {
  ModelConfig cfg;
  cfg.type = type;
  cfg.hidden = 8;
  cfg.num_layers = 2;
  cfg.k = 3;
  cfg.dropout = 0.0f;  // deterministic for gradient checks
  return cfg;
}

class ModelTest : public ::testing::TestWithParam<ModelType> {};

TEST_P(ModelTest, ForwardShape) {
  TestInput t = MakeTestInput(1);
  auto model = MakeModel(ConfigFor(GetParam()));
  Rng rng(2);
  model->Prepare(t.input, rng);
  const Matrix logits = model->Forward(false);
  EXPECT_EQ(logits.rows(), 60);
  EXPECT_EQ(logits.cols(), 3);
  EXPECT_EQ(model->name(), ModelTypeName(GetParam()));
}

TEST_P(ModelTest, GradientsMatchFiniteDifferences) {
  TestInput t = MakeTestInput(3);
  auto model = MakeModel(ConfigFor(GetParam()));
  Rng rng(4);
  model->Prepare(t.input, rng);

  const auto params = model->Params();
  Matrix dlogits;
  auto loss_fn = [&]() {
    model->ZeroGrad();
    const Matrix logits = model->Forward(/*training=*/true);
    const double loss =
        SoftmaxCrossEntropy(logits, t.labels, t.train_rows, &dlogits);
    model->Backward(dlogits, nullptr);
    return loss;
  };
  (void)loss_fn();
  std::vector<float> analytic = FlattenGrads(params);
  std::vector<float> flat = FlattenParams(params);
  const float eps = 1e-2f;
  const size_t stride = std::max<size_t>(1, flat.size() / 30);
  for (size_t i = 0; i < flat.size(); i += stride) {
    const float saved = flat[i];
    flat[i] = saved + eps;
    UnflattenParams(flat, params);
    const double lp = loss_fn();
    flat[i] = saved - eps;
    UnflattenParams(flat, params);
    const double lm = loss_fn();
    flat[i] = saved;
    UnflattenParams(flat, params);
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                3e-2 * std::max(1.0, std::fabs(numeric)))
        << ModelTypeName(GetParam()) << " param " << i;
  }
}

TEST_P(ModelTest, LearnsEasyTask) {
  TestInput t = MakeTestInput(5);
  ModelConfig cfg = ConfigFor(GetParam());
  auto model = MakeModel(cfg);
  Rng rng(6);
  model->Prepare(t.input, rng);

  OptimizerConfig opt_cfg;
  opt_cfg.lr = 0.05f;
  opt_cfg.weight_decay = 0.0f;
  auto opt = MakeOptimizer(opt_cfg);
  const auto params = model->Params();

  Matrix dlogits;
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    const Matrix logits = model->Forward(true);
    const double loss =
        SoftmaxCrossEntropy(logits, t.labels, t.train_rows, &dlogits);
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
    model->ZeroGrad();
    model->Backward(dlogits, nullptr);
    opt->Step(params);
  }
  EXPECT_LT(last_loss, 0.5 * first_loss) << ModelTypeName(GetParam());
  const double train_acc =
      Accuracy(model->Forward(false), t.labels, t.train_rows);
  EXPECT_GT(train_acc, 0.85) << ModelTypeName(GetParam());
}

TEST_P(ModelTest, InductiveViewsDiffer) {
  TestInput t = MakeTestInput(7, /*inductive=*/true);
  ModelConfig cfg = ConfigFor(GetParam());
  auto model = MakeModel(cfg);
  Rng rng(8);
  model->Prepare(t.input, rng);
  const Matrix train_logits = model->Forward(true);
  const Matrix full_logits = model->Forward(false);
  EXPECT_FALSE(train_logits.AllClose(full_logits, 1e-6f))
      << "training view must exclude test edges";
}

TEST_P(ModelTest, ParamRoundTripPreservesOutputs) {
  TestInput t = MakeTestInput(9);
  auto model = MakeModel(ConfigFor(GetParam()));
  Rng rng(10);
  model->Prepare(t.input, rng);
  const Matrix before = model->Forward(false);
  const auto params = model->Params();
  std::vector<float> flat = FlattenParams(params);
  // Perturb then restore.
  std::vector<float> perturbed = flat;
  for (float& v : perturbed) v += 0.5f;
  UnflattenParams(perturbed, params);
  const Matrix changed = model->Forward(false);
  EXPECT_FALSE(before.AllClose(changed, 1e-6f));
  UnflattenParams(flat, params);
  const Matrix after = model->Forward(false);
  EXPECT_TRUE(before.AllClose(after));
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, ModelTest,
                         ::testing::Values(ModelType::kGcn, ModelType::kSage,
                                           ModelType::kSgc, ModelType::kSign,
                                           ModelType::kS2gc, ModelType::kGbp,
                                           ModelType::kGamlp),
                         [](const auto& info) {
                           return std::string(ModelTypeName(info.param));
                         });

TEST(PropagationTest, HopsMatchRepeatedMultiply) {
  TestInput t = MakeTestInput(11);
  const CsrMatrix adj = NormalizedAdjacency(t.graph);
  const auto hops = PropagateHops(adj, t.features, 3);
  ASSERT_EQ(hops.size(), 4u);
  EXPECT_TRUE(hops[0].AllClose(t.features));
  Matrix manual = t.features;
  for (int l = 1; l <= 3; ++l) {
    manual = adj * manual;
    EXPECT_TRUE(hops[static_cast<size_t>(l)].AllClose(manual, 1e-4f));
  }
  EXPECT_TRUE(PropagateK(adj, t.features, 3).AllClose(manual, 1e-4f));
  EXPECT_TRUE(PropagateK(adj, t.features, 0).AllClose(t.features));
}

TEST(PropagationTest, SmoothingReducesVariance) {
  TestInput t = MakeTestInput(12);
  const CsrMatrix adj = NormalizedAdjacency(t.graph);
  const Matrix smoothed = PropagateK(adj, t.features, 5);
  // Spectral norm of Ã is <= 1: propagated magnitude should not blow up,
  // and repeated smoothing shrinks it on connected graphs.
  EXPECT_LT(smoothed.FrobeniusNorm(), t.features.FrobeniusNorm() * 1.01);
}

TEST(SgcTest, HasSingleLinearLayer) {
  TestInput t = MakeTestInput(13);
  ModelConfig cfg = ConfigFor(ModelType::kSgc);
  auto model = MakeModel(cfg);
  Rng rng(14);
  model->Prepare(t.input, rng);
  // 5 input dims x 3 classes + 3 bias.
  EXPECT_EQ(ParamCount(model->Params()), 5 * 3 + 3);
}

TEST(SignTest, ConcatenatesAllHops) {
  TestInput t = MakeTestInput(15);
  ModelConfig cfg = ConfigFor(ModelType::kSign);
  cfg.k = 2;
  cfg.num_layers = 1;  // linear head exposes the input dim directly
  auto model = MakeModel(cfg);
  Rng rng(16);
  model->Prepare(t.input, rng);
  // Input dim = (k+1) * f = 3 * 5 = 15.
  EXPECT_EQ(ParamCount(model->Params()), 15 * 3 + 3);
}

TEST(GamlpTest, AttentionIsSoftmax) {
  TestInput t = MakeTestInput(17);
  GamlpModel model(3, 8, 2, 0.0f, 0.5f);
  Rng rng(18);
  model.Prepare(t.input, rng);
  const auto attention = model.HopAttention();
  ASSERT_EQ(attention.size(), 4u);
  float sum = 0.0f;
  for (float a : attention) {
    EXPECT_GT(a, 0.0f);
    sum += a;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  // Fresh gates are zero: uniform attention.
  for (float a : attention) EXPECT_NEAR(a, 0.25f, 1e-5f);
}

TEST(GamlpTest, GatesReceiveGradient) {
  TestInput t = MakeTestInput(19);
  GamlpModel model(2, 8, 2, 0.0f, 0.5f);
  Rng rng(20);
  model.Prepare(t.input, rng);
  Matrix dlogits;
  const Matrix logits = model.Forward(true);
  (void)SoftmaxCrossEntropy(logits, t.labels, t.train_rows, &dlogits);
  model.ZeroGrad();
  model.Backward(dlogits, nullptr);
  // The gate parameter is the last ParamRef.
  const auto params = model.Params();
  EXPECT_GT(params.back().grad->FrobeniusNorm(), 0.0);
}

TEST(FactoryTest, NamesRoundTrip) {
  for (ModelType type :
       {ModelType::kGcn, ModelType::kSage, ModelType::kSgc, ModelType::kSign,
        ModelType::kS2gc, ModelType::kGbp, ModelType::kGamlp}) {
    const Result<ModelType> parsed = ParseModelType(ModelTypeName(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(ParseModelType("transformer").ok());
}

// Layer 0's input gradient is d(features), which nothing reads: one
// Backward of an L-layer coupled model runs no GEMM or SpMM for it.
struct BackwardCostCase {
  ModelType type;
  int num_layers;
  int64_t gemms;
  int64_t spmms;
};

class BackwardCostTest : public ::testing::TestWithParam<BackwardCostCase> {};

TEST_P(BackwardCostTest, SkipsLayerZeroInputGradient) {
  const BackwardCostCase c = GetParam();
  TestInput t = MakeTestInput(23);
  ModelConfig cfg = ConfigFor(c.type);
  cfg.num_layers = c.num_layers;
  auto model = MakeModel(cfg);
  Rng rng(24);
  model->Prepare(t.input, rng);
  Matrix dlogits;
  (void)SoftmaxCrossEntropy(model->Forward(true), t.labels, t.train_rows,
                            &dlogits);
  Counter& gemms = GlobalMetrics().GetCounter("phase.gemm.calls");
  Counter& spmms = GlobalMetrics().GetCounter("phase.spmm.calls");
  const int64_t gemms_before = gemms.value();
  const int64_t spmms_before = spmms.value();
  model->ZeroGrad();
  model->Backward(dlogits, nullptr);
  EXPECT_EQ(gemms.value() - gemms_before, c.gemms);
  EXPECT_EQ(spmms.value() - spmms_before, c.spmms);
}

INSTANTIATE_TEST_SUITE_P(
    CoupledModels, BackwardCostTest,
    ::testing::Values(BackwardCostCase{ModelType::kGcn, 2, 3, 1},
                      BackwardCostCase{ModelType::kSage, 2, 6, 1},
                      BackwardCostCase{ModelType::kGcn, 1, 1, 0},
                      BackwardCostCase{ModelType::kSage, 1, 2, 0}),
    [](const auto& info) {
      return std::string(ModelTypeName(info.param.type)) + "_" +
             std::to_string(info.param.num_layers) + "layer";
    });

TEST(HiddenTest, MoonHookSeesLastHidden) {
  TestInput t = MakeTestInput(21);
  ModelConfig cfg = ConfigFor(ModelType::kGcn);
  auto model = MakeModel(cfg);
  Rng rng(22);
  model->Prepare(t.input, rng);
  (void)model->Forward(false);
  const Matrix& hidden = model->Hidden();
  EXPECT_EQ(hidden.rows(), 60);
  EXPECT_EQ(hidden.cols(), 8);
}

}  // namespace
}  // namespace fedgta
