#include "nn/mlp.h"

namespace fedgta {

Mlp::Mlp(const MlpConfig& config, Rng& rng)
    : config_(config), dropout_rng_(rng.Fork(0xd20)) {
  FEDGTA_CHECK_GT(config.in_dim, 0);
  FEDGTA_CHECK_GT(config.out_dim, 0);
  FEDGTA_CHECK_GE(config.num_layers, 1);
  layers_.reserve(static_cast<size_t>(config.num_layers));
  for (int l = 0; l < config.num_layers; ++l) {
    const int64_t in = l == 0 ? config.in_dim : config.hidden_dim;
    const int64_t out =
        l == config.num_layers - 1 ? config.out_dim : config.hidden_dim;
    layers_.emplace_back(in, out, rng);
  }
}

Matrix Mlp::Forward(const Matrix& x, bool training) {
  last_training_ = training;
  const int hidden_count = config_.num_layers - 1;
  pre_activations_.assign(static_cast<size_t>(hidden_count), Matrix());
  dropout_masks_.assign(static_cast<size_t>(hidden_count), Matrix());

  // Each layer keeps its input, so the last one holds Hidden().
  Matrix h = layers_[0].Forward(x);
  for (int l = 0; l < hidden_count; ++l) {
    pre_activations_[static_cast<size_t>(l)] = h;  // cache pre-ReLU
    ReluInPlace(&h);
    if (training && config_.dropout > 0.0f) {
      DropoutForward(config_.dropout, dropout_rng_, &h,
                     &dropout_masks_[static_cast<size_t>(l)]);
    }
    h = layers_[static_cast<size_t>(l + 1)].Forward(std::move(h));
  }
  return h;
}

Matrix Mlp::Backward(const Matrix& dlogits, const Matrix* dhidden,
                     bool input_grad) {
  if (config_.num_layers == 1 && !input_grad) {
    layers_[0].BackwardParams(dlogits);
    return Matrix();
  }
  Matrix grad = layers_.back().Backward(dlogits);
  if (dhidden != nullptr) {
    FEDGTA_CHECK_EQ(dhidden->rows(), grad.rows());
    FEDGTA_CHECK_EQ(dhidden->cols(), grad.cols());
    grad += *dhidden;
  }
  for (int l = config_.num_layers - 2; l >= 0; --l) {
    if (last_training_ && config_.dropout > 0.0f) {
      DropoutBackward(dropout_masks_[static_cast<size_t>(l)], &grad);
    }
    ReluBackwardInPlace(pre_activations_[static_cast<size_t>(l)], &grad);
    if (l == 0 && !input_grad) {
      layers_[0].BackwardParams(grad);
      return Matrix();
    }
    grad = layers_[static_cast<size_t>(l)].Backward(grad);
  }
  return grad;
}

std::vector<ParamRef> Mlp::Params() {
  std::vector<ParamRef> params;
  for (Linear& layer : layers_) {
    for (const ParamRef& p : layer.Params()) params.push_back(p);
  }
  return params;
}

void Mlp::ZeroGrad() {
  for (Linear& layer : layers_) layer.ZeroGrad();
}

}  // namespace fedgta
