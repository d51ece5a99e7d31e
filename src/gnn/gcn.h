#ifndef FEDGTA_GNN_GCN_H_
#define FEDGTA_GNN_GCN_H_

#include <memory>

#include "gnn/model.h"
#include "nn/linear.h"

namespace fedgta {

/// GCN (Kipf & Welling 2017): L coupled layers H^{l+1} = σ(Ã H^l W_l), with
/// ReLU + dropout between layers and a linear output layer. Full-batch
/// training; backprop goes through the (symmetric) normalized adjacency.
class GcnModel : public GnnModel {
 public:
  GcnModel(int num_layers, int hidden, float dropout, float r);

  void Prepare(const ModelInput& input, Rng& rng) override;
  Matrix Forward(bool training) override;
  void Backward(const Matrix& dlogits, const Matrix* dhidden) override;
  std::vector<ParamRef> Params() override;
  void ZeroGrad() override;
  const Matrix& Hidden() const override { return hidden_; }
  std::string_view name() const override { return "gcn"; }
  Rng* MutableDropoutRng() override { return &dropout_rng_; }

 private:
  int num_layers_;
  int hidden_dim_;
  float dropout_;
  float r_;

  /// Ã of the training view (`training`) or of the full graph.
  const CsrMatrix& Adjacency(bool training) const {
    return training && !train_is_full_ ? adj_train_ : adj_full_;
  }

  CsrMatrix adj_full_;
  CsrMatrix adj_train_;  // empty when the training view is the full graph
  bool train_is_full_ = false;
  const Matrix* features_ = nullptr;
  std::vector<Linear> layers_;
  Rng dropout_rng_{0};

  // Caches from the last Forward.
  std::vector<Matrix> pre_activations_;
  std::vector<Matrix> dropout_masks_;
  Matrix hidden_;
  bool last_training_ = false;
};

}  // namespace fedgta

#endif  // FEDGTA_GNN_GCN_H_
