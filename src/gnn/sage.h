#ifndef FEDGTA_GNN_SAGE_H_
#define FEDGTA_GNN_SAGE_H_

#include "gnn/model.h"
#include "nn/linear.h"

namespace fedgta {

/// GraphSAGE (Hamilton et al. 2017) with the mean aggregator, full-neighbor
/// version: H^{l+1} = σ(H^l W_self + mean_nbr(H^l) W_nbr). The two weight
/// blocks are the split form of the original concatenation [H || mean] W.
class SageModel : public GnnModel {
 public:
  SageModel(int num_layers, int hidden, float dropout);

  void Prepare(const ModelInput& input, Rng& rng) override;
  Matrix Forward(bool training) override;
  void Backward(const Matrix& dlogits, const Matrix* dhidden) override;
  std::vector<ParamRef> Params() override;
  void ZeroGrad() override;
  const Matrix& Hidden() const override { return self_layers_.back().input(); }
  std::string_view name() const override { return "sage"; }
  Rng* MutableDropoutRng() override { return &dropout_rng_; }

 private:
  int num_layers_;
  int hidden_dim_;
  float dropout_;

  /// Mean adjacency of the training view (`training`) or the full graph.
  const CsrMatrix& Mean(bool training) const {
    return training && !train_is_full_ ? mean_train_ : mean_full_;
  }
  /// Its transpose, the adjoint used by Backward.
  const CsrMatrix& MeanTransposed(bool training) const {
    return training && !train_is_full_ ? mean_train_t_ : mean_full_t_;
  }

  CsrMatrix mean_full_;
  CsrMatrix mean_full_t_;
  // Both empty when the training view is the full graph.
  CsrMatrix mean_train_;
  CsrMatrix mean_train_t_;
  bool train_is_full_ = false;
  const Matrix* features_ = nullptr;
  std::vector<Linear> self_layers_;
  std::vector<Linear> nbr_layers_;
  Rng dropout_rng_{0};

  std::vector<Matrix> pre_activations_;
  std::vector<Matrix> dropout_masks_;
  bool last_training_ = false;
};

}  // namespace fedgta

#endif  // FEDGTA_GNN_SAGE_H_
