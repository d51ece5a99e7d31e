#include "fed/scaffold.h"

#include "linalg/ops.h"

namespace fedgta {

void ScaffoldStrategy::Initialize(int num_clients,
                                  const std::vector<int64_t>& train_sizes,
                                  const std::vector<float>& init_params) {
  Strategy::Initialize(num_clients, train_sizes, init_params);
  server_control_.assign(init_params.size(), 0.0f);
  client_control_.assign(static_cast<size_t>(num_clients),
                         std::vector<float>(init_params.size(), 0.0f));
  round_control_delta_.assign(static_cast<size_t>(num_clients), {});
}

LocalResult ScaffoldStrategy::TrainClient(Client& client, int epochs,
                                          const TrainHooks& extra_hooks) {
  const int id = client.id();
  client.SetParams(ParamsFor(id));
  std::vector<float>& c_i = client_control_[static_cast<size_t>(id)];

  // Control-variate refresh (option I): c_i^+ = gradient of the local loss
  // at the server model. Option I stays bounded at gradient scale under any
  // local optimizer (option II's (x - y)/(Kη) assumes plain SGD).
  std::vector<float> c_new = client.GradientAtCurrentParams();

  TrainHooks hooks;
  hooks.grad_hook = [this, &c_i](std::span<const float> /*params*/,
                                 std::span<float> grads) {
    for (size_t j = 0; j < grads.size(); ++j) {
      grads[j] += server_control_[j] - c_i[j];
    }
  };

  LocalResult result;
  result.client_id = id;
  result.loss = client.TrainLocal(epochs, MergeHooks(hooks, extra_hooks));
  result.params = client.GetParams();
  result.num_samples = client.num_train();

  std::vector<float> delta(c_i.size());
  for (size_t j = 0; j < c_i.size(); ++j) {
    delta[j] = c_new[j] - c_i[j];
    c_i[j] = c_new[j];
  }
  // Own client-id slot only: safe under concurrent TrainClient calls.
  round_control_delta_[static_cast<size_t>(id)] = std::move(delta);
  return result;
}

Strategy::CommunicationStats ScaffoldStrategy::RoundCommunication(
    const std::vector<LocalResult>& results) const {
  CommunicationStats stats = Strategy::RoundCommunication(results);
  for (const LocalResult& r : results) {
    stats.download_floats += static_cast<int64_t>(r.params.size());
    stats.upload_floats += static_cast<int64_t>(r.params.size());
  }
  return stats;
}

void ScaffoldStrategy::Aggregate(const std::vector<int>& /*participants*/,
                                 const std::vector<LocalResult>& results) {
  if (results.empty()) return;
  // x <- x + (1/|S|) Σ (y_i - x): with unit server lr this equals averaging
  // participant weights; the paper setup weights by data size.
  WeightedAverage(results, &global_model_);
  // c <- c + (|S|/N) * mean of control deltas, accumulated in result order
  // so the float summation matches the serial round exactly.
  const float scale = static_cast<float>(results.size()) /
                      static_cast<float>(num_clients_) /
                      static_cast<float>(results.size());
  for (const LocalResult& r : results) {
    std::vector<float>& delta =
        round_control_delta_[static_cast<size_t>(r.client_id)];
    if (delta.empty()) continue;
    Axpy(scale, delta, server_control_);
    delta.clear();
  }
}

void ScaffoldStrategy::SaveState(serialize::Writer* writer) const {
  Strategy::SaveState(writer);
  writer->WriteFloatVec(server_control_);
  SaveFloatVecs(client_control_, writer);
}

Status ScaffoldStrategy::LoadState(serialize::Reader* reader) {
  FEDGTA_RETURN_IF_ERROR(Strategy::LoadState(reader));
  std::vector<float> server_control;
  FEDGTA_RETURN_IF_ERROR(reader->ReadFloatVec(&server_control));
  std::vector<std::vector<float>> client_control;
  FEDGTA_RETURN_IF_ERROR(LoadFloatVecs(reader, &client_control));
  if (server_control.size() != global_model_.size() ||
      client_control.size() != static_cast<size_t>(num_clients_)) {
    return FailedPreconditionError("control-variate shape mismatch");
  }
  server_control_ = std::move(server_control);
  client_control_ = std::move(client_control);
  // Round deltas are transient (cleared by Aggregate); checkpoints are
  // taken between rounds, so a resumed round starts with empty slots.
  round_control_delta_.assign(static_cast<size_t>(num_clients_), {});
  return OkStatus();
}

}  // namespace fedgta
