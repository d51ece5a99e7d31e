#include "gnn/model.h"

#include "gnn/propagation.h"
#include "graph/normalized_adjacency.h"

namespace fedgta {

DecoupledGnn::DecoupledGnn(int k, int hidden, int mlp_layers, float dropout,
                           float r)
    : k_(k), hidden_(hidden), mlp_layers_(mlp_layers), dropout_(dropout),
      r_(r) {
  FEDGTA_CHECK_GE(k, 0);
  FEDGTA_CHECK_GE(mlp_layers, 1);
}

void DecoupledGnn::Prepare(const ModelInput& input, Rng& rng) {
  FEDGTA_CHECK(input.graph_full != nullptr && input.graph_train != nullptr &&
               input.features != nullptr);
  FEDGTA_CHECK_GT(input.num_classes, 0);
  FEDGTA_CHECK(mlp_ == nullptr) << "Prepare called twice";

  const CsrMatrix adj_full = NormalizedAdjacency(*input.graph_full, r_);
  features_full_ = CombineHops(PropagateHops(adj_full, *input.features, k_));
  // Transductive shards share one propagated matrix for both views; a
  // separate train-view precompute exists only when the graphs differ
  // (inductive data). Saves one O(n·d·k)-sized copy per client.
  if (input.graph_train != input.graph_full) {
    const CsrMatrix adj_train = NormalizedAdjacency(*input.graph_train, r_);
    features_train_ =
        CombineHops(PropagateHops(adj_train, *input.features, k_));
  }

  MlpConfig cfg;
  cfg.in_dim = features_full_.cols();
  cfg.hidden_dim = hidden_;
  cfg.out_dim = input.num_classes;
  cfg.num_layers = mlp_layers_;
  cfg.dropout = dropout_;
  mlp_ = std::make_unique<Mlp>(cfg, rng);
}

Matrix DecoupledGnn::Forward(bool training) {
  FEDGTA_CHECK(mlp_ != nullptr) << "Forward before Prepare";
  last_training_ = training;
  const Matrix& features = training && !features_train_.empty()
                               ? features_train_
                               : features_full_;
  return mlp_->Forward(features, training);
}

void DecoupledGnn::Backward(const Matrix& dlogits, const Matrix* dhidden) {
  FEDGTA_CHECK(mlp_ != nullptr);
  // The propagated features are constants: no input gradient.
  mlp_->Backward(dlogits, dhidden, /*input_grad=*/false);
}

std::vector<ParamRef> DecoupledGnn::Params() {
  FEDGTA_CHECK(mlp_ != nullptr);
  return mlp_->Params();
}

void DecoupledGnn::ZeroGrad() {
  FEDGTA_CHECK(mlp_ != nullptr);
  mlp_->ZeroGrad();
}

}  // namespace fedgta
