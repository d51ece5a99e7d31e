#include "fed/feddc.h"

#include "linalg/ops.h"

namespace fedgta {

void FedDcStrategy::Initialize(int num_clients,
                               const std::vector<int64_t>& train_sizes,
                               const std::vector<float>& init_params) {
  Strategy::Initialize(num_clients, train_sizes, init_params);
  drift_.assign(static_cast<size_t>(num_clients),
                std::vector<float>(init_params.size(), 0.0f));
}

LocalResult FedDcStrategy::TrainClient(Client& client, int epochs,
                                       const TrainHooks& extra_hooks) {
  const int id = client.id();
  client.SetParams(ParamsFor(id));
  const std::vector<float> start(global_model_);
  const std::vector<float>& h_i = drift_[static_cast<size_t>(id)];

  TrainHooks hooks;
  hooks.grad_hook = [this, &start, &h_i](std::span<const float> params,
                                         std::span<float> grads) {
    for (size_t j = 0; j < grads.size(); ++j) {
      grads[j] += alpha_ * (params[j] + h_i[j] - start[j]);
    }
  };

  LocalResult result;
  result.client_id = id;
  result.loss = client.TrainLocal(epochs, MergeHooks(hooks, extra_hooks));
  result.params = client.GetParams();
  result.num_samples = client.num_train();

  // h_i += y_i - x (accumulated drift).
  std::vector<float>& h = drift_[static_cast<size_t>(id)];
  for (size_t j = 0; j < h.size(); ++j) {
    h[j] += result.params[j] - start[j];
  }
  return result;
}

void FedDcStrategy::Aggregate(const std::vector<int>& /*participants*/,
                              const std::vector<LocalResult>& results) {
  if (results.empty()) return;
  // Aggregate drift-corrected weights: avg over participants of (y_i + h_i),
  // weighted by data size.
  std::vector<LocalResult> corrected = results;
  for (LocalResult& r : corrected) {
    const std::vector<float>& h = drift_[static_cast<size_t>(r.client_id)];
    for (size_t j = 0; j < r.params.size(); ++j) r.params[j] += h[j];
  }
  WeightedAverage(corrected, &global_model_);
}

void FedDcStrategy::SaveState(serialize::Writer* writer) const {
  Strategy::SaveState(writer);
  SaveFloatVecs(drift_, writer);
}

Status FedDcStrategy::LoadState(serialize::Reader* reader) {
  FEDGTA_RETURN_IF_ERROR(Strategy::LoadState(reader));
  std::vector<std::vector<float>> drift;
  FEDGTA_RETURN_IF_ERROR(LoadFloatVecs(reader, &drift));
  if (drift.size() != static_cast<size_t>(num_clients_)) {
    return FailedPreconditionError("drift table size mismatch");
  }
  drift_ = std::move(drift);
  return OkStatus();
}

}  // namespace fedgta
