#include "gnn/sage.h"

#include "graph/normalized_adjacency.h"
#include "linalg/ops.h"

namespace fedgta {

SageModel::SageModel(int num_layers, int hidden, float dropout)
    : num_layers_(num_layers), hidden_dim_(hidden), dropout_(dropout) {
  FEDGTA_CHECK_GE(num_layers, 1);
}

void SageModel::Prepare(const ModelInput& input, Rng& rng) {
  FEDGTA_CHECK(self_layers_.empty()) << "Prepare called twice";
  FEDGTA_CHECK(input.graph_full != nullptr && input.graph_train != nullptr &&
               input.features != nullptr);
  mean_full_ = RowMeanAdjacency(*input.graph_full);
  mean_full_t_ = mean_full_.Transposed();
  train_is_full_ = input.graph_train == input.graph_full;
  if (!train_is_full_) {
    mean_train_ = RowMeanAdjacency(*input.graph_train);
    mean_train_t_ = mean_train_.Transposed();
  }
  features_ = input.features;
  dropout_rng_ = rng.Fork(0x5a6e);

  self_layers_.reserve(static_cast<size_t>(num_layers_));
  nbr_layers_.reserve(static_cast<size_t>(num_layers_));
  for (int l = 0; l < num_layers_; ++l) {
    const int64_t in = l == 0 ? features_->cols() : hidden_dim_;
    const int64_t out = l == num_layers_ - 1 ? input.num_classes : hidden_dim_;
    self_layers_.emplace_back(in, out, rng);
    nbr_layers_.emplace_back(in, out, rng);
  }
}

Matrix SageModel::Forward(bool training) {
  FEDGTA_CHECK(!self_layers_.empty()) << "Forward before Prepare";
  last_training_ = training;
  const CsrMatrix& mean = Mean(training);
  const int hidden_count = num_layers_ - 1;
  pre_activations_.assign(static_cast<size_t>(hidden_count), Matrix());
  dropout_masks_.assign(static_cast<size_t>(hidden_count), Matrix());

  // The self layers keep their inputs, so the last one holds Hidden().
  Matrix h;
  for (int l = 0; l < num_layers_; ++l) {
    Matrix aggregated = mean * (l == 0 ? *features_ : h);
    Matrix z = l == 0 ? self_layers_[0].Forward(*features_)
                      : self_layers_[static_cast<size_t>(l)].Forward(
                            std::move(h));
    z += nbr_layers_[static_cast<size_t>(l)].Forward(std::move(aggregated));
    h = std::move(z);
    if (l < hidden_count) {
      pre_activations_[static_cast<size_t>(l)] = h;
      ReluInPlace(&h);
      if (training && dropout_ > 0.0f) {
        DropoutForward(dropout_, dropout_rng_, &h,
                       &dropout_masks_[static_cast<size_t>(l)]);
      }
    }
  }
  return h;
}

void SageModel::Backward(const Matrix& dlogits, const Matrix* dhidden) {
  FEDGTA_CHECK(!self_layers_.empty());
  const CsrMatrix& mean_t = MeanTransposed(last_training_);

  Matrix dz = dlogits;
  for (int l = num_layers_ - 1; l >= 0; --l) {
    Linear& self_layer = self_layers_[static_cast<size_t>(l)];
    Linear& nbr_layer = nbr_layers_[static_cast<size_t>(l)];
    // Layer 0's input gradient would be d(features), which nothing reads.
    if (l == 0) {
      self_layer.BackwardParams(dz);
      nbr_layer.BackwardParams(dz);
      break;
    }
    Matrix dh = self_layer.Backward(dz);
    Matrix dagg = nbr_layer.Backward(dz);
    dh += mean_t * dagg;
    // dh is the gradient on the previous layer's post-dropout activation.
    if (dhidden != nullptr && l == num_layers_ - 1) {
      FEDGTA_CHECK_EQ(dhidden->rows(), dh.rows());
      FEDGTA_CHECK_EQ(dhidden->cols(), dh.cols());
      dh += *dhidden;
    }
    if (last_training_ && dropout_ > 0.0f) {
      DropoutBackward(dropout_masks_[static_cast<size_t>(l - 1)], &dh);
    }
    ReluBackwardInPlace(pre_activations_[static_cast<size_t>(l - 1)], &dh);
    dz = std::move(dh);
  }
}

std::vector<ParamRef> SageModel::Params() {
  std::vector<ParamRef> params;
  for (int l = 0; l < num_layers_; ++l) {
    for (const ParamRef& p : self_layers_[static_cast<size_t>(l)].Params()) {
      params.push_back(p);
    }
    for (const ParamRef& p : nbr_layers_[static_cast<size_t>(l)].Params()) {
      params.push_back(p);
    }
  }
  return params;
}

void SageModel::ZeroGrad() {
  for (Linear& layer : self_layers_) layer.ZeroGrad();
  for (Linear& layer : nbr_layers_) layer.ZeroGrad();
}

}  // namespace fedgta
