#ifndef FEDGTA_NN_MLP_H_
#define FEDGTA_NN_MLP_H_

#include <memory>
#include <vector>

#include "nn/linear.h"

namespace fedgta {

/// Multi-layer perceptron configuration.
struct MlpConfig {
  int64_t in_dim = 0;
  int64_t hidden_dim = 64;
  int64_t out_dim = 0;
  /// Number of Linear layers (>= 1). 1 == plain linear/logistic model.
  int num_layers = 2;
  /// Dropout rate applied after every hidden activation during training.
  float dropout = 0.5f;
};

/// MLP with ReLU activations and inverted dropout, manual backprop.
/// Exposes the last hidden activation (the representation fed to the final
/// layer), which MOON's model-contrastive loss operates on.
class Mlp {
 public:
  Mlp(const MlpConfig& config, Rng& rng);

  /// Full forward pass. Dropout is active only when `training`.
  Matrix Forward(const Matrix& x, bool training);

  /// Backward from the loss gradient wrt logits; optionally add a gradient
  /// wrt the last hidden representation (`dhidden`, may be nullptr).
  /// Accumulates parameter gradients and returns dX. With `input_grad`
  /// false the first layer runs Linear::BackwardParams, skipping the dX
  /// GEMM, and an empty matrix is returned (the parameter gradients are
  /// bitwise the same).
  Matrix Backward(const Matrix& dlogits, const Matrix* dhidden = nullptr,
                  bool input_grad = true);

  std::vector<ParamRef> Params();
  void ZeroGrad();

  /// Last hidden activation from the most recent Forward. For a 1-layer MLP
  /// this is the input itself.
  const Matrix& Hidden() const { return layers_.back().input(); }

  const MlpConfig& config() const { return config_; }

  /// Dropout stream; checkpointing captures it so a resumed run draws the
  /// same masks as the uninterrupted one.
  Rng* mutable_dropout_rng() { return &dropout_rng_; }

 private:
  MlpConfig config_;
  std::vector<Linear> layers_;
  Rng dropout_rng_;
  // Per-hidden-layer caches from the last Forward.
  std::vector<Matrix> pre_activations_;
  std::vector<Matrix> dropout_masks_;
  bool last_training_ = false;
};

}  // namespace fedgta

#endif  // FEDGTA_NN_MLP_H_
