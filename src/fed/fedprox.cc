#include "fed/fedprox.h"

namespace fedgta {

LocalResult FedProxStrategy::TrainClient(Client& client, int epochs,
                                         const TrainHooks& extra_hooks) {
  client.SetParams(ParamsFor(client.id()));
  // Snapshot of the round's global weights for the proximal pull.
  const std::vector<float> anchor(global_model_);
  TrainHooks hooks;
  hooks.grad_hook = [this, &anchor](std::span<const float> params,
                                    std::span<float> grads) {
    FEDGTA_CHECK_EQ(params.size(), anchor.size());
    for (size_t i = 0; i < grads.size(); ++i) {
      grads[i] += mu_ * (params[i] - anchor[i]);
    }
  };

  LocalResult result;
  result.client_id = client.id();
  result.loss = client.TrainLocal(epochs, MergeHooks(hooks, extra_hooks));
  result.params = client.GetParams();
  result.num_samples = client.num_train();
  return result;
}

void FedProxStrategy::Aggregate(const std::vector<int>& /*participants*/,
                                const std::vector<LocalResult>& results) {
  if (results.empty()) return;
  WeightedAverage(results, &global_model_);
}

}  // namespace fedgta
