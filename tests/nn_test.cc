#include <cmath>
#include <cstring>
#include <functional>

#include <gtest/gtest.h>

#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/parameters.h"

namespace fedgta {
namespace {

// Finite-difference check of d(loss)/d(param) against analytic gradients.
// `loss_fn` must run forward+backward (with grads zeroed first) and return
// the scalar loss.
void CheckGradients(const std::vector<ParamRef>& params,
                    const std::function<double()>& loss_fn,
                    float tolerance = 2e-2f) {
  (void)loss_fn();  // populate analytic gradients
  std::vector<float> analytic = FlattenGrads(params);
  std::vector<float> flat = FlattenParams(params);
  const float eps = 1e-2f;
  int checked = 0;
  for (size_t i = 0; i < flat.size(); i += std::max<size_t>(1, flat.size() / 40)) {
    const float saved = flat[i];
    flat[i] = saved + eps;
    UnflattenParams(flat, params);
    const double loss_plus = loss_fn();
    flat[i] = saved - eps;
    UnflattenParams(flat, params);
    const double loss_minus = loss_fn();
    flat[i] = saved;
    UnflattenParams(flat, params);
    const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tolerance * std::max(1.0, std::fabs(numeric)))
        << "param index " << i;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(ParametersTest, FlattenUnflattenRoundTrip) {
  Rng rng(1);
  Matrix a(2, 3), ga(2, 3), b(1, 4), gb(1, 4);
  a.GaussianInit(rng, 1.0f);
  b.GaussianInit(rng, 1.0f);
  std::vector<ParamRef> params{{&a, &ga}, {&b, &gb}};
  EXPECT_EQ(ParamCount(params), 10);
  const std::vector<float> flat = FlattenParams(params);
  EXPECT_EQ(flat.size(), 10u);
  EXPECT_FLOAT_EQ(flat[0], a(0, 0));
  EXPECT_FLOAT_EQ(flat[6], b(0, 0));

  std::vector<float> modified = flat;
  for (float& v : modified) v += 1.0f;
  UnflattenParams(modified, params);
  EXPECT_FLOAT_EQ(a(0, 0), flat[0] + 1.0f);
  EXPECT_FLOAT_EQ(b(0, 3), flat[9] + 1.0f);

  ga.Fill(2.0f);
  gb.Fill(3.0f);
  const std::vector<float> grads = FlattenGrads(params);
  EXPECT_FLOAT_EQ(grads[0], 2.0f);
  EXPECT_FLOAT_EQ(grads[9], 3.0f);
  ZeroGrads(params);
  EXPECT_FLOAT_EQ(ga(0, 0), 0.0f);
}

TEST(LinearTest, ForwardComputesAffine) {
  Rng rng(2);
  Linear layer(2, 2, rng);
  Matrix x(1, 2);
  x(0, 0) = 1.0f;
  x(0, 1) = 2.0f;
  const Matrix y = layer.Forward(x);
  const Matrix& w = layer.weight();
  EXPECT_NEAR(y(0, 0), w(0, 0) + 2.0f * w(1, 0), 1e-5f);
  EXPECT_NEAR(y(0, 1), w(0, 1) + 2.0f * w(1, 1), 1e-5f);
}

TEST(LinearTest, GradientsMatchFiniteDifferences) {
  Rng rng(3);
  Linear layer(4, 3, rng);
  Matrix x(5, 4);
  x.GaussianInit(rng, 1.0f);
  Matrix direction(5, 3);
  direction.GaussianInit(rng, 1.0f);

  const auto params = layer.Params();
  auto loss_fn = [&]() {
    layer.ZeroGrad();
    const Matrix y = layer.Forward(x);
    double loss = 0.0;
    for (int64_t i = 0; i < y.size(); ++i) {
      loss += static_cast<double>(y.data()[i]) * direction.data()[i];
    }
    (void)layer.Backward(direction);
    return loss;
  };
  CheckGradients(params, loss_fn);
}

TEST(LinearTest, BackwardReturnsInputGradient) {
  Rng rng(4);
  Linear layer(3, 2, rng);
  Matrix x(1, 3);
  x.GaussianInit(rng, 1.0f);
  (void)layer.Forward(x);
  Matrix dy(1, 2);
  dy(0, 0) = 1.0f;
  const Matrix dx = layer.Backward(dy);
  // dx = dy W^T: with dy = e0, dx = first column of W.
  EXPECT_NEAR(dx(0, 0), layer.weight()(0, 0), 1e-6f);
  EXPECT_NEAR(dx(0, 2), layer.weight()(2, 0), 1e-6f);
}

TEST(LinearTest, BackwardParamsMatchesBackward) {
  Rng init_a(5);
  Rng init_b(5);
  Linear full(6, 4, init_a);
  Linear params_only(6, 4, init_b);
  Rng rng(6);
  for (int step = 0; step < 2; ++step) {  // the second step accumulates
    Matrix x(9, 6);
    x.GaussianInit(rng, 1.0f);
    Matrix dy(9, 4);
    dy.GaussianInit(rng, 1.0f);
    (void)full.Forward(x);
    (void)params_only.Forward(x);
    (void)full.Backward(dy);
    params_only.BackwardParams(dy);
  }
  const std::vector<float> want = FlattenGrads(full.Params());
  const std::vector<float> got = FlattenGrads(params_only.Params());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
}

TEST(MlpTest, ForwardShapesAndHidden) {
  Rng rng(5);
  MlpConfig cfg;
  cfg.in_dim = 6;
  cfg.hidden_dim = 8;
  cfg.out_dim = 3;
  cfg.num_layers = 3;
  cfg.dropout = 0.0f;
  Mlp mlp(cfg, rng);
  Matrix x(4, 6);
  x.GaussianInit(rng, 1.0f);
  const Matrix y = mlp.Forward(x, /*training=*/false);
  EXPECT_EQ(y.rows(), 4);
  EXPECT_EQ(y.cols(), 3);
  EXPECT_EQ(mlp.Hidden().rows(), 4);
  EXPECT_EQ(mlp.Hidden().cols(), 8);
  // Hidden is post-ReLU: non-negative.
  for (int64_t i = 0; i < mlp.Hidden().size(); ++i) {
    EXPECT_GE(mlp.Hidden().data()[i], 0.0f);
  }
}

TEST(MlpTest, SingleLayerIsLinear) {
  Rng rng(6);
  MlpConfig cfg;
  cfg.in_dim = 3;
  cfg.hidden_dim = 99;  // unused
  cfg.out_dim = 2;
  cfg.num_layers = 1;
  Mlp mlp(cfg, rng);
  Matrix x(2, 3);
  x.GaussianInit(rng, 1.0f);
  Matrix x2 = x;
  x2 *= 2.0f;
  const Matrix y1 = mlp.Forward(x, false);
  const Matrix y2 = mlp.Forward(x2, false);
  // Affine: y2 - b = 2 (y1 - b).
  Matrix zero(2, 3);
  const Matrix b = mlp.Forward(zero, false);
  for (int64_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y2.data()[i] - b.data()[i], 2.0f * (y1.data()[i] - b.data()[i]),
                1e-4f);
  }
}

TEST(MlpTest, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  MlpConfig cfg;
  cfg.in_dim = 5;
  cfg.hidden_dim = 7;
  cfg.out_dim = 4;
  cfg.num_layers = 2;
  cfg.dropout = 0.0f;  // determinism for the check
  Mlp mlp(cfg, rng);
  Matrix x(6, 5);
  x.GaussianInit(rng, 1.0f);
  std::vector<int> labels{0, 1, 2, 3, 0, 1};
  std::vector<int32_t> rows{0, 1, 2, 3, 4, 5};

  const auto params = mlp.Params();
  Matrix dlogits;
  auto loss_fn = [&]() {
    mlp.ZeroGrad();
    const Matrix logits = mlp.Forward(x, /*training=*/true);
    const double loss = SoftmaxCrossEntropy(logits, labels, rows, &dlogits);
    (void)mlp.Backward(dlogits);
    return loss;
  };
  CheckGradients(params, loss_fn);
}

TEST(MlpTest, HiddenGradientInjectionFlowsToFirstLayer) {
  Rng rng(8);
  MlpConfig cfg;
  cfg.in_dim = 3;
  cfg.hidden_dim = 4;
  cfg.out_dim = 2;
  cfg.num_layers = 2;
  cfg.dropout = 0.0f;
  Mlp mlp(cfg, rng);
  Matrix x(2, 3);
  x.GaussianInit(rng, 1.0f);
  (void)mlp.Forward(x, true);

  Matrix dlogits(2, 2);  // zero task gradient
  Matrix dhidden(2, 4, 1.0f);
  mlp.ZeroGrad();
  (void)mlp.Backward(dlogits, &dhidden);
  // First-layer weight gradient must be non-zero (driven only by dhidden).
  const auto params = mlp.Params();
  EXPECT_GT(params[0].grad->FrobeniusNorm(), 0.0);
  // Final layer saw zero gradient.
  EXPECT_DOUBLE_EQ(params[2].grad->FrobeniusNorm(), 0.0);
}

// A params-only backward (input_grad false) skips the first layer's dX
// GEMM and must leave every parameter gradient bitwise unchanged, with
// dropout masks and an injected hidden gradient in play.
TEST(MlpTest, ParamsOnlyBackwardMatchesFullBackward) {
  for (int layers : {1, 2, 3}) {
    SCOPED_TRACE(testing::Message() << "layers=" << layers);
    Rng rng(21);
    MlpConfig cfg;
    cfg.in_dim = 6;
    cfg.hidden_dim = 5;
    cfg.out_dim = 3;
    cfg.num_layers = layers;
    cfg.dropout = 0.3f;
    Mlp mlp(cfg, rng);
    Matrix x(8, 6);
    x.GaussianInit(rng, 1.0f);
    (void)mlp.Forward(x, /*training=*/true);
    Matrix dlogits(8, 3);
    dlogits.GaussianInit(rng, 1.0f);
    Matrix dhidden(8, layers == 1 ? 6 : 5);
    dhidden.GaussianInit(rng, 1.0f);

    const auto grads = [&](bool input_grad) {
      mlp.ZeroGrad();
      const Matrix dx = mlp.Backward(dlogits, &dhidden, input_grad);
      EXPECT_EQ(dx.empty(), !input_grad);
      std::vector<Matrix> out;
      for (const ParamRef& p : mlp.Params()) out.push_back(*p.grad);
      return out;
    };
    const std::vector<Matrix> full = grads(true);
    const std::vector<Matrix> params_only = grads(false);
    ASSERT_EQ(full.size(), params_only.size());
    for (size_t i = 0; i < full.size(); ++i) {
      const size_t bytes = sizeof(float) * static_cast<size_t>(full[i].size());
      ASSERT_EQ(params_only[i].size(), full[i].size());
      EXPECT_EQ(std::memcmp(params_only[i].data(), full[i].data(), bytes), 0)
          << "param " << i;
    }
  }
}

TEST(MlpTest, DropoutActiveOnlyInTraining) {
  Rng rng(9);
  MlpConfig cfg;
  cfg.in_dim = 10;
  cfg.hidden_dim = 50;
  cfg.out_dim = 2;
  cfg.num_layers = 2;
  cfg.dropout = 0.5f;
  Mlp mlp(cfg, rng);
  Matrix x(3, 10);
  x.GaussianInit(rng, 1.0f);
  const Matrix eval1 = mlp.Forward(x, false);
  const Matrix eval2 = mlp.Forward(x, false);
  EXPECT_TRUE(eval1.AllClose(eval2)) << "inference must be deterministic";
  const Matrix train1 = mlp.Forward(x, true);
  const Matrix train2 = mlp.Forward(x, true);
  EXPECT_FALSE(train1.AllClose(train2, 1e-7f))
      << "dropout should randomize training forwards";
}

TEST(LossTest, CrossEntropyMatchesManual) {
  Matrix logits(2, 3);
  logits(0, 0) = 1.0f;
  logits(0, 1) = 0.0f;
  logits(0, 2) = -1.0f;
  logits(1, 0) = 0.0f;
  logits(1, 1) = 2.0f;
  logits(1, 2) = 0.0f;
  Matrix dlogits;
  const double loss =
      SoftmaxCrossEntropy(logits, {0, 1}, {0, 1}, &dlogits);
  // Manual: -log softmax(x)[y].
  const double l0 = -std::log(std::exp(1.0) / (std::exp(1.0) + 1.0 + std::exp(-1.0)));
  const double l1 = -std::log(std::exp(2.0) / (1.0 + std::exp(2.0) + 1.0));
  EXPECT_NEAR(loss, (l0 + l1) / 2.0, 1e-6);
  // Gradient rows sum to zero (softmax minus one-hot).
  for (int64_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (int64_t c = 0; c < 3; ++c) sum += dlogits(r, c);
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(LossTest, MaskedRowsHaveZeroGradient) {
  Rng rng(10);
  Matrix logits(4, 3);
  logits.GaussianInit(rng, 1.0f);
  Matrix dlogits;
  (void)SoftmaxCrossEntropy(logits, {0, 1, 2, 0}, {1, 3}, &dlogits);
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(dlogits(0, c), 0.0f);
    EXPECT_FLOAT_EQ(dlogits(2, c), 0.0f);
  }
  EXPECT_GT(dlogits.FrobeniusNorm(), 0.0);
}

TEST(LossTest, PerfectPredictionLowLoss) {
  Matrix logits(1, 2);
  logits(0, 0) = 20.0f;
  logits(0, 1) = -20.0f;
  Matrix dlogits;
  const double loss = SoftmaxCrossEntropy(logits, {0}, {0}, &dlogits);
  EXPECT_LT(loss, 1e-6);
}

TEST(LossTest, SoftCrossEntropyAgainstUniformTarget) {
  Matrix logits(1, 2);
  logits(0, 0) = 0.0f;
  logits(0, 1) = 0.0f;
  Matrix targets(1, 2, 0.5f);
  Matrix dlogits(1, 2);
  const double loss = SoftCrossEntropy(logits, targets, {0}, 1.0f, &dlogits);
  EXPECT_NEAR(loss, std::log(2.0), 1e-6);
  // Prediction already matches the target: zero gradient.
  EXPECT_NEAR(dlogits(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(dlogits(0, 1), 0.0f, 1e-6f);
}

TEST(LossTest, SoftCrossEntropyWeightScalesGradient) {
  Rng rng(11);
  Matrix logits(2, 3);
  logits.GaussianInit(rng, 1.0f);
  Matrix targets(2, 3);
  targets.Fill(1.0f / 3.0f);
  Matrix d1(2, 3), d2(2, 3);
  (void)SoftCrossEntropy(logits, targets, {0, 1}, 1.0f, &d1);
  (void)SoftCrossEntropy(logits, targets, {0, 1}, 2.0f, &d2);
  for (int64_t i = 0; i < d1.size(); ++i) {
    EXPECT_NEAR(d2.data()[i], 2.0f * d1.data()[i], 1e-6f);
  }
}

TEST(LossTest, AccuracyCounting) {
  Matrix logits(3, 2);
  logits(0, 0) = 1.0f;  // pred 0
  logits(1, 1) = 1.0f;  // pred 1
  logits(2, 0) = 1.0f;  // pred 0
  EXPECT_DOUBLE_EQ(Accuracy(logits, {0, 1, 1}, {0, 1, 2}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, {0, 1, 1}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, {0, 1, 1}, {}), 0.0);
}

TEST(SgdTest, PlainStepMatchesManual) {
  OptimizerConfig cfg;
  cfg.type = OptimizerType::kSgd;
  cfg.lr = 0.1f;
  cfg.momentum = 0.0f;
  cfg.weight_decay = 0.0f;
  SgdOptimizer opt(cfg);
  Matrix w(1, 2, 1.0f), g(1, 2, 0.5f);
  std::vector<ParamRef> params{{&w, &g}};
  opt.Step(params);
  EXPECT_NEAR(w(0, 0), 1.0f - 0.1f * 0.5f, 1e-6f);
}

TEST(SgdTest, MomentumAccumulates) {
  OptimizerConfig cfg;
  cfg.type = OptimizerType::kSgd;
  cfg.lr = 1.0f;
  cfg.momentum = 0.9f;
  cfg.weight_decay = 0.0f;
  SgdOptimizer opt(cfg);
  Matrix w(1, 1, 0.0f), g(1, 1, 1.0f);
  std::vector<ParamRef> params{{&w, &g}};
  opt.Step(params);  // v=1, w=-1
  EXPECT_NEAR(w(0, 0), -1.0f, 1e-6f);
  opt.Step(params);  // v=1.9, w=-2.9
  EXPECT_NEAR(w(0, 0), -2.9f, 1e-6f);
  opt.Reset();
  opt.Step(params);  // momentum buffer cleared: v=1
  EXPECT_NEAR(w(0, 0), -3.9f, 1e-6f);
}

TEST(SgdTest, WeightDecayShrinksWeights) {
  OptimizerConfig cfg;
  cfg.type = OptimizerType::kSgd;
  cfg.lr = 0.1f;
  cfg.momentum = 0.0f;
  cfg.weight_decay = 0.5f;
  SgdOptimizer opt(cfg);
  Matrix w(1, 1, 2.0f), g(1, 1, 0.0f);
  std::vector<ParamRef> params{{&w, &g}};
  opt.Step(params);
  EXPECT_NEAR(w(0, 0), 2.0f - 0.1f * 0.5f * 2.0f, 1e-6f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  OptimizerConfig cfg;
  cfg.type = OptimizerType::kAdam;
  cfg.lr = 0.1f;
  cfg.weight_decay = 0.0f;
  AdamOptimizer opt(cfg);
  Matrix w(1, 3);
  w(0, 0) = 5.0f;
  w(0, 1) = -3.0f;
  w(0, 2) = 1.0f;
  Matrix g(1, 3);
  std::vector<ParamRef> params{{&w, &g}};
  for (int step = 0; step < 300; ++step) {
    for (int64_t i = 0; i < 3; ++i) g(0, i) = 2.0f * w(0, i);  // d/dw w^2
    opt.Step(params);
  }
  EXPECT_LT(w.FrobeniusNorm(), 0.05);
}

TEST(AdamTest, FirstStepIsLrSizedRegardlessOfGradScale) {
  OptimizerConfig cfg;
  cfg.type = OptimizerType::kAdam;
  cfg.lr = 0.01f;
  cfg.weight_decay = 0.0f;
  for (float scale : {1e-3f, 1.0f, 1e3f}) {
    AdamOptimizer opt(cfg);
    Matrix w(1, 1, 0.0f), g(1, 1, scale);
    std::vector<ParamRef> params{{&w, &g}};
    opt.Step(params);
    EXPECT_NEAR(w(0, 0), -0.01f, 1e-4f) << "scale " << scale;
  }
}

TEST(OptimizerFactoryTest, MakesConfiguredType) {
  OptimizerConfig cfg;
  cfg.type = OptimizerType::kSgd;
  EXPECT_NE(dynamic_cast<SgdOptimizer*>(MakeOptimizer(cfg).get()), nullptr);
  cfg.type = OptimizerType::kAdam;
  EXPECT_NE(dynamic_cast<AdamOptimizer*>(MakeOptimizer(cfg).get()), nullptr);
}

}  // namespace
}  // namespace fedgta
