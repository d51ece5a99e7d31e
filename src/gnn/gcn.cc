#include "gnn/gcn.h"

#include "graph/normalized_adjacency.h"
#include "linalg/ops.h"

namespace fedgta {

GcnModel::GcnModel(int num_layers, int hidden, float dropout, float r)
    : num_layers_(num_layers), hidden_dim_(hidden), dropout_(dropout), r_(r) {
  FEDGTA_CHECK_GE(num_layers, 1);
}

void GcnModel::Prepare(const ModelInput& input, Rng& rng) {
  FEDGTA_CHECK(layers_.empty()) << "Prepare called twice";
  FEDGTA_CHECK(input.graph_full != nullptr && input.graph_train != nullptr &&
               input.features != nullptr);
  adj_full_ = NormalizedAdjacency(*input.graph_full, r_);
  train_is_full_ = input.graph_train == input.graph_full;
  if (!train_is_full_) adj_train_ = NormalizedAdjacency(*input.graph_train, r_);
  features_ = input.features;
  dropout_rng_ = rng.Fork(0x6c4);

  layers_.reserve(static_cast<size_t>(num_layers_));
  for (int l = 0; l < num_layers_; ++l) {
    const int64_t in = l == 0 ? features_->cols() : hidden_dim_;
    const int64_t out = l == num_layers_ - 1 ? input.num_classes : hidden_dim_;
    layers_.emplace_back(in, out, rng);
  }
}

Matrix GcnModel::Forward(bool training) {
  FEDGTA_CHECK(!layers_.empty()) << "Forward before Prepare";
  last_training_ = training;
  const CsrMatrix& adj = Adjacency(training);
  const int hidden_count = num_layers_ - 1;
  pre_activations_.assign(static_cast<size_t>(hidden_count), Matrix());
  dropout_masks_.assign(static_cast<size_t>(hidden_count), Matrix());

  // Each layer reads `input` (the features, then the previous layer's
  // post-dropout activation, kept in hidden_) and hands Ã H to its Linear.
  const Matrix* input = features_;
  Matrix h;
  for (int l = 0; l < num_layers_; ++l) {
    h = layers_[static_cast<size_t>(l)].Forward(adj * *input);  // Ã H W
    if (l < hidden_count) {
      pre_activations_[static_cast<size_t>(l)] = h;
      ReluInPlace(&h);
      if (training && dropout_ > 0.0f) {
        DropoutForward(dropout_, dropout_rng_, &h,
                       &dropout_masks_[static_cast<size_t>(l)]);
      }
      hidden_ = std::move(h);
      input = &hidden_;
    }
  }
  if (hidden_count == 0) hidden_ = *features_;
  return h;
}

void GcnModel::Backward(const Matrix& dlogits, const Matrix* dhidden) {
  FEDGTA_CHECK(!layers_.empty());
  const CsrMatrix& adj = Adjacency(last_training_);
  // Layer 0's input gradient would be d(features), which nothing reads, so
  // layer 0 accumulates its parameter gradients only.
  if (num_layers_ == 1) {
    layers_[0].BackwardParams(dlogits);
    return;
  }
  // Ã is symmetric (r = 0.5) up to the kernel coefficient; for r != 0.5 the
  // exact adjoint is Ã^T, which equals Ã only in the symmetric case, so we
  // propagate through the transpose-free path used in practice for r = 0.5.
  Matrix grad = layers_.back().Backward(dlogits);
  grad = adj * grad;  // d(input of last propagation)
  for (int l = num_layers_ - 2; l >= 0; --l) {
    if (dhidden != nullptr && l == num_layers_ - 2) {
      // Extra gradient on the post-activation hidden representation must be
      // injected before undoing dropout of that layer. Hidden() is the
      // dropout output, so add directly.
      // (grad currently corresponds to d(post-dropout activation).)
      FEDGTA_CHECK_EQ(dhidden->rows(), grad.rows());
      FEDGTA_CHECK_EQ(dhidden->cols(), grad.cols());
      grad += *dhidden;
    }
    if (last_training_ && dropout_ > 0.0f) {
      DropoutBackward(dropout_masks_[static_cast<size_t>(l)], &grad);
    }
    ReluBackwardInPlace(pre_activations_[static_cast<size_t>(l)], &grad);
    if (l == 0) {
      layers_[0].BackwardParams(grad);
      break;
    }
    grad = layers_[static_cast<size_t>(l)].Backward(grad);
    grad = adj * grad;
  }
}

std::vector<ParamRef> GcnModel::Params() {
  std::vector<ParamRef> params;
  for (Linear& layer : layers_) {
    for (const ParamRef& p : layer.Params()) params.push_back(p);
  }
  return params;
}

void GcnModel::ZeroGrad() {
  for (Linear& layer : layers_) layer.ZeroGrad();
}

}  // namespace fedgta
