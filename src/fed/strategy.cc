#include "fed/strategy.h"

#include "fed/feddc.h"
#include "fed/fedgta_strategy.h"
#include "fed/fedprox.h"
#include "fed/gcfl_plus.h"
#include "fed/moon.h"
#include "fed/scaffold.h"
#include "linalg/ops.h"
#include "obs/phase.h"

namespace fedgta {

void Strategy::Initialize(int num_clients,
                          const std::vector<int64_t>& train_sizes,
                          const std::vector<float>& init_params) {
  FEDGTA_CHECK_GE(num_clients, 1);
  FEDGTA_CHECK_EQ(train_sizes.size(), static_cast<size_t>(num_clients));
  num_clients_ = num_clients;
  train_sizes_ = train_sizes;
  global_model_ = init_params;
}

std::span<const float> Strategy::ParamsFor(int client_id) const {
  FEDGTA_CHECK(client_id >= 0 && client_id < num_clients_);
  return global_model_;
}

LocalResult Strategy::TrainClient(Client& client, int epochs,
                                  const TrainHooks& extra_hooks) {
  client.SetParams(ParamsFor(client.id()));
  LocalResult result;
  result.client_id = client.id();
  result.loss = client.TrainLocal(epochs, extra_hooks);
  result.params = client.GetParams();
  result.num_samples = client.num_train();
  return result;
}

Strategy::CommunicationStats Strategy::RoundCommunication(
    const std::vector<LocalResult>& results) const {
  CommunicationStats stats;
  for (const LocalResult& r : results) {
    stats.download_floats += static_cast<int64_t>(r.params.size());
    stats.upload_floats += static_cast<int64_t>(r.params.size()) +
                           static_cast<int64_t>(r.metrics.moments.size()) +
                           (r.metrics.moments.empty() ? 0 : 1);
  }
  return stats;
}

void Strategy::WeightedAverage(const std::vector<LocalResult>& results,
                               std::vector<float>* out) {
  FEDGTA_CHECK(out != nullptr);
  FEDGTA_CHECK(!results.empty());
  double total = 0.0;
  for (const LocalResult& r : results) {
    total += static_cast<double>(std::max<int64_t>(1, r.num_samples));
  }
  out->assign(results.front().params.size(), 0.0f);
  for (const LocalResult& r : results) {
    const float w = static_cast<float>(
        static_cast<double>(std::max<int64_t>(1, r.num_samples)) / total);
    Axpy(w, r.params, *out);
  }
}

void Strategy::SaveState(serialize::Writer* writer) const {
  FEDGTA_CHECK(writer != nullptr);
  writer->WriteString(name());
  writer->WriteU32(static_cast<uint32_t>(num_clients_));
  writer->WriteI64Vec(train_sizes_);
  writer->WriteFloatVec(global_model_);
}

Status Strategy::LoadState(serialize::Reader* reader) {
  FEDGTA_CHECK(reader != nullptr);
  std::string saved_name;
  FEDGTA_RETURN_IF_ERROR(reader->ReadString(&saved_name));
  if (saved_name != name()) {
    return FailedPreconditionError("checkpoint strategy '" + saved_name +
                                   "' does not match live strategy '" +
                                   std::string(name()) + "'");
  }
  uint32_t saved_clients = 0;
  FEDGTA_RETURN_IF_ERROR(reader->ReadU32(&saved_clients));
  if (saved_clients != static_cast<uint32_t>(num_clients_)) {
    return FailedPreconditionError(
        "checkpoint has " + std::to_string(saved_clients) +
        " clients, federation has " + std::to_string(num_clients_));
  }
  std::vector<int64_t> saved_sizes;
  FEDGTA_RETURN_IF_ERROR(reader->ReadI64Vec(&saved_sizes));
  if (saved_sizes != train_sizes_) {
    return FailedPreconditionError(
        "checkpoint train-set sizes do not match the federation");
  }
  std::vector<float> saved_params;
  FEDGTA_RETURN_IF_ERROR(reader->ReadFloatVec(&saved_params));
  if (saved_params.size() != global_model_.size()) {
    return FailedPreconditionError(
        "checkpoint parameter count " + std::to_string(saved_params.size()) +
        " does not match model parameter count " +
        std::to_string(global_model_.size()));
  }
  global_model_ = std::move(saved_params);
  return OkStatus();
}

void Strategy::SaveFloatVecs(const std::vector<std::vector<float>>& vecs,
                             serialize::Writer* writer) {
  writer->WriteU32(static_cast<uint32_t>(vecs.size()));
  for (const std::vector<float>& v : vecs) writer->WriteFloatVec(v);
}

Status Strategy::LoadFloatVecs(serialize::Reader* reader,
                               std::vector<std::vector<float>>* vecs) {
  uint32_t count = 0;
  FEDGTA_RETURN_IF_ERROR(reader->ReadU32(&count));
  std::vector<std::vector<float>> loaded(count);
  for (std::vector<float>& v : loaded) {
    FEDGTA_RETURN_IF_ERROR(reader->ReadFloatVec(&v));
  }
  *vecs = std::move(loaded);
  return OkStatus();
}

void FedAvgStrategy::Aggregate(const std::vector<int>& /*participants*/,
                               const std::vector<LocalResult>& results) {
  FEDGTA_PHASE_SCOPE("aggregation");
  if (results.empty()) return;
  WeightedAverage(results, &global_model_);
}

void LocalOnlyStrategy::Initialize(int num_clients,
                                   const std::vector<int64_t>& train_sizes,
                                   const std::vector<float>& init_params) {
  Strategy::Initialize(num_clients, train_sizes, init_params);
  personal_.assign(static_cast<size_t>(num_clients), init_params);
}

std::span<const float> LocalOnlyStrategy::ParamsFor(int client_id) const {
  FEDGTA_CHECK(client_id >= 0 && client_id < num_clients_);
  return personal_[static_cast<size_t>(client_id)];
}

void LocalOnlyStrategy::Aggregate(const std::vector<int>& /*participants*/,
                                  const std::vector<LocalResult>& results) {
  for (const LocalResult& r : results) {
    personal_[static_cast<size_t>(r.client_id)] = r.params;
  }
}

void LocalOnlyStrategy::SaveState(serialize::Writer* writer) const {
  Strategy::SaveState(writer);
  SaveFloatVecs(personal_, writer);
}

Status LocalOnlyStrategy::LoadState(serialize::Reader* reader) {
  FEDGTA_RETURN_IF_ERROR(Strategy::LoadState(reader));
  std::vector<std::vector<float>> personal;
  FEDGTA_RETURN_IF_ERROR(LoadFloatVecs(reader, &personal));
  if (personal.size() != static_cast<size_t>(num_clients_)) {
    return FailedPreconditionError("per-client model table size mismatch");
  }
  personal_ = std::move(personal);
  return OkStatus();
}

std::vector<std::string> ListStrategies() {
  return {"fedavg", "fedprox", "scaffold", "moon",
          "feddc",  "gcfl+",   "fedgta",   "local"};
}

Result<std::unique_ptr<Strategy>> MakeStrategy(
    const std::string& name, const StrategyOptions& options) {
  std::unique_ptr<Strategy> strategy;
  if (name == "fedavg") {
    strategy = std::make_unique<FedAvgStrategy>();
  } else if (name == "local") {
    strategy = std::make_unique<LocalOnlyStrategy>();
  } else if (name == "fedprox") {
    strategy = std::make_unique<FedProxStrategy>(options.prox_mu);
  } else if (name == "scaffold") {
    strategy = std::make_unique<ScaffoldStrategy>(options.scaffold_lr);
  } else if (name == "moon") {
    strategy = std::make_unique<MoonStrategy>(options.moon_mu, options.moon_tau);
  } else if (name == "feddc") {
    strategy = std::make_unique<FedDcStrategy>(options.feddc_alpha);
  } else if (name == "gcfl+") {
    strategy = std::make_unique<GcflPlusStrategy>(
        options.gcfl_window, options.gcfl_eps1, options.gcfl_eps2);
  } else if (name == "fedgta") {
    strategy = std::make_unique<FedGtaStrategy>(options.fedgta);
  } else {
    return InvalidArgumentError("unknown strategy: " + name);
  }
  return strategy;
}

}  // namespace fedgta
