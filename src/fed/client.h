#ifndef FEDGTA_FED_CLIENT_H_
#define FEDGTA_FED_CLIENT_H_

#include <functional>
#include <memory>
#include <span>

#include "core/fedgta_metrics.h"
#include "data/federated.h"
#include "gnn/factory.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace fedgta {

/// Optional extension points strategies inject into local training.
/// All hooks may be empty.
struct TrainHooks {
  /// Called once per optimization step after gradients are accumulated,
  /// with the flattened current parameters and mutable flattened gradients.
  /// FedProx / Scaffold / FedDC add their correction terms here.
  std::function<void(std::span<const float> params, std::span<float> grads)>
      grad_hook;
  /// Called after each forward pass with the hidden representation; returns
  /// an extra gradient matrix on it (empty Matrix == none). MOON's
  /// model-contrastive term lives here.
  std::function<Matrix(const Matrix& hidden)> hidden_grad_hook;
  /// Called after the task-loss gradient is formed; may add extra loss
  /// gradient into dlogits (FedGL pseudo-label supervision). Returns the
  /// extra loss value.
  std::function<double(const Matrix& logits, Matrix* dlogits)> logits_hook;
};

/// Merges two hook sets (both are invoked; extra losses add).
TrainHooks MergeHooks(TrainHooks a, TrainHooks b);

/// One federated participant: local shard + local model + local optimizer.
/// The model is Prepared once at construction (propagation precompute);
/// weights are swapped in and out by the server between rounds.
class Client {
 public:
  /// `data` must outlive the client.
  Client(const ClientData* data, const ModelConfig& model_config,
         const OptimizerConfig& opt_config, uint64_t seed);

  Client(Client&&) = default;

  int id() const { return data_->client_id; }
  const ClientData& data() const { return *data_; }
  GnnModel& model() { return *model_; }
  int64_t num_train() const { return data_->num_train(); }
  int64_t param_count() const;

  std::vector<float> GetParams();
  void SetParams(std::span<const float> params);

  /// Minibatch size for local training; 0 (default) trains full-batch.
  /// When positive, each local step computes the loss on a random sample of
  /// min(batch_size, |train|) training nodes — the paper's stack trains
  /// with minibatches (batch size b in its Table 1), and the gradient noise
  /// this injects is what keeps drift-correction baselines (Scaffold,
  /// FedDC) at FedAvg level.
  void SetBatchSize(int batch_size);
  int batch_size() const { return batch_size_; }

  /// Runs `epochs` local training steps (one optimizer step each), Eq. (2),
  /// full-batch by default (see SetBatchSize). Returns the mean training
  /// loss. The optimizer state is reset first, matching the per-round local
  /// optimization of FGL simulators. Clients with no training nodes return
  /// 0 without touching weights.
  double TrainLocal(int epochs, const TrainHooks& hooks = {});

  /// Full-batch gradient of the local training loss at the current
  /// weights, without taking an optimizer step (Scaffold's option-I control
  /// variate). Zeros when the client has no training nodes.
  std::vector<float> GradientAtCurrentParams();

  /// Full-view (inference) logits for every local node.
  Matrix Predict();

  /// Accuracy of the current weights on the local test and validation
  /// sets, both scored from one inference forward pass. An empty split
  /// scores 0.
  struct Accuracies {
    double test = 0.0;
    double val = 0.0;
  };
  Accuracies EvalAccuracies();
  double TestAccuracy() { return EvalAccuracies().test; }
  double ValAccuracy() { return EvalAccuracies().val; }

  /// Client-side FedGTA metric computation (Algorithm 1 lines 5-10) using
  /// the current weights over the full local graph. Round-invariant pieces
  /// (propagation operator, degrees, FedGTA+feat feature moments) are
  /// cached across rounds in `metrics_cache_`.
  ClientMetrics ComputeFedGtaMetrics(const FedGtaOptions& options);

  /// Runs a forward pass with `params` and returns a copy of the hidden
  /// representation; restores the current weights afterwards. Used by MOON.
  Matrix HiddenWithParams(std::span<const float> params);

  /// Checkpoint hooks: everything a client carries across rounds — model
  /// weights, optimizer buffers, and the minibatch/dropout RNG streams.
  /// The shard itself is rebuilt from the dataset, never serialized.
  /// LoadState shape-checks against the live model and returns an error
  /// Status on any mismatch.
  void SaveState(serialize::Writer* writer);
  Status LoadState(serialize::Reader* reader);

 private:
  const ClientData* data_;
  std::unique_ptr<GnnModel> model_;
  std::unique_ptr<Optimizer> optimizer_;
  OptimizerConfig opt_config_;
  int batch_size_ = 0;
  Rng batch_rng_{0x6a7c};
  ClientMetricsCache metrics_cache_;
};

}  // namespace fedgta

#endif  // FEDGTA_FED_CLIENT_H_
