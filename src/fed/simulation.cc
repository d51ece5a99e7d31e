#include "fed/simulation.h"

#include <algorithm>
#include <filesystem>

#include "common/serialize.h"
#include "common/timer.h"
#include "fed/executor.h"
#include "obs/metrics.h"

namespace fedgta {
namespace {

// Partial-run snapshot: the accuracy curve plus every cumulative total that
// Run() would have accumulated so far. setup_seconds and metrics_json are
// per-process and deliberately not persisted.
void SavePartialResult(const SimulationResult& r, serialize::Writer* w) {
  w->WriteU32(static_cast<uint32_t>(r.curve.size()));
  for (const RoundStats& s : r.curve) {
    w->WriteI32(s.round);
    w->WriteDouble(s.test_accuracy);
    w->WriteDouble(s.val_accuracy);
    w->WriteDouble(s.train_loss);
    w->WriteDouble(s.client_seconds);
    w->WriteDouble(s.server_seconds);
    w->WriteI64(s.upload_floats);
    w->WriteI64(s.download_floats);
    w->WriteI64(s.dropped_clients);
    w->WriteI64(s.straggler_clients);
    w->WriteI64(s.crashed_clients);
  }
  w->WriteDouble(r.best_test_accuracy);
  w->WriteDouble(r.final_test_accuracy);
  w->WriteDouble(r.total_client_seconds);
  w->WriteDouble(r.total_server_seconds);
  w->WriteI64(r.total_upload_floats);
  w->WriteI64(r.total_download_floats);
  w->WriteI64(r.total_dropped_clients);
  w->WriteI64(r.total_straggler_clients);
  w->WriteI64(r.total_crashed_clients);
}

Status LoadPartialResult(serialize::Reader* reader, SimulationResult* r) {
  uint32_t n = 0;
  FEDGTA_RETURN_IF_ERROR(reader->ReadU32(&n));
  r->curve.clear();
  r->curve.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RoundStats s;
    FEDGTA_RETURN_IF_ERROR(reader->ReadI32(&s.round));
    FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&s.test_accuracy));
    FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&s.val_accuracy));
    FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&s.train_loss));
    FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&s.client_seconds));
    FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&s.server_seconds));
    FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&s.upload_floats));
    FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&s.download_floats));
    FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&s.dropped_clients));
    FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&s.straggler_clients));
    FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&s.crashed_clients));
    r->curve.push_back(s);
  }
  FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&r->best_test_accuracy));
  FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&r->final_test_accuracy));
  FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&r->total_client_seconds));
  FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&r->total_server_seconds));
  FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&r->total_upload_floats));
  FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&r->total_download_floats));
  FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&r->total_dropped_clients));
  FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&r->total_straggler_clients));
  FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&r->total_crashed_clients));
  return OkStatus();
}

}  // namespace

Simulation::Simulation(const FederatedDataset* data,
                       const ModelConfig& model_config,
                       const OptimizerConfig& opt_config,
                       std::unique_ptr<Strategy> strategy,
                       const SimulationConfig& config)
    : data_(data), config_(config), strategy_(std::move(strategy)) {
  FEDGTA_CHECK(data_ != nullptr);
  FEDGTA_CHECK(strategy_ != nullptr);
  FEDGTA_CHECK_GE(config.participation, 0.0);
  FEDGTA_CHECK_LE(config.participation, 1.0);

  WallTimer setup_timer;
  Rng rng(config.seed);
  const std::vector<ClientData>* shards = &data_->clients;
  if (config.fgl == FglModel::kFedSage) {
    Rng sage_rng = rng.Fork(0x5a63);
    augmented_ = FedSageAugment(data_->clients, config.fedsage, sage_rng);
    shards = &augmented_;
  }

  clients_.reserve(shards->size());
  for (const ClientData& shard : *shards) {
    clients_.emplace_back(&shard, model_config, opt_config, config.seed);
    clients_.back().SetBatchSize(config.batch_size);
  }

  if (config.fgl == FglModel::kFedGl) {
    fedgl_ = std::make_unique<FedGlCoordinator>(data_, config.fedgl);
  }

  // Common initialization: client 0's fresh weights become round-0 global.
  std::vector<int64_t> train_sizes;
  train_sizes.reserve(clients_.size());
  for (Client& client : clients_) train_sizes.push_back(client.num_train());
  strategy_->Initialize(static_cast<int>(clients_.size()), train_sizes,
                        clients_.front().GetParams());
  setup_seconds_ = setup_timer.Seconds();
}

std::vector<ClientOutcome> Simulation::Train(
    int /*round*/, const std::vector<int>& participants,
    const std::vector<ClientFate>& fates) {
  // All participants run concurrently on the shared pool, results land in
  // participant-aligned slots. Hooks are materialized up front — FedGL's
  // coordinator need not be re-entrant.
  std::vector<TrainHooks> hooks;
  if (fedgl_ != nullptr) {
    hooks.reserve(participants.size());
    for (int id : participants) hooks.push_back(fedgl_->HooksFor(id));
  }
  return RoundExecutor::TrainRound(*strategy_, clients_, participants,
                                  config_.local_epochs, hooks, fates);
}

Status Simulation::Aggregate(int /*round*/, const std::vector<int>& ids,
                             std::vector<LocalResult>& results) {
  strategy_->Aggregate(ids, results);
  if (fedgl_ != nullptr) fedgl_->UpdatePseudoLabels(clients_, ids);
  return OkStatus();
}

Strategy::CommunicationStats Simulation::Communication(
    const std::vector<LocalResult>& results) {
  return strategy_->RoundCommunication(results);
}

Status Simulation::Evaluate(int /*round*/, fed::ClientAccuracies* acc) {
  RoundExecutor::ForEachClient(
      static_cast<int64_t>(clients_.size()), [this, acc](int64_t i) {
        Client& client = clients_[static_cast<size_t>(i)];
        client.SetParams(strategy_->ParamsFor(client.id()));
        const Client::Accuracies scored = client.EvalAccuracies();
        acc->test[static_cast<size_t>(i)] = scored.test;
        acc->val[static_cast<size_t>(i)] = scored.val;
        acc->evaluated[static_cast<size_t>(i)] = 1;
      });
  return OkStatus();
}

std::string Simulation::CheckpointPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "checkpoint.ckpt").string();
}

Status Simulation::SaveCheckpoint(const std::string& path, int completed_rounds,
                                  const Rng& sampling_rng, double best_val,
                                  const SimulationResult& partial) {
  serialize::Writer writer;
  writer.WriteU64(config_.seed);
  writer.WriteU32(static_cast<uint32_t>(completed_rounds));
  writer.WriteString(sampling_rng.SaveState());
  writer.WriteDouble(best_val);
  SavePartialResult(partial, &writer);
  strategy_->SaveState(&writer);
  writer.WriteU32(static_cast<uint32_t>(clients_.size()));
  for (Client& client : clients_) client.SaveState(&writer);
  writer.WriteBool(fedgl_ != nullptr);
  if (fedgl_ != nullptr) fedgl_->SaveState(&writer);
  return writer.WriteToFile(path);
}

Status Simulation::LoadCheckpoint(const std::string& path) {
  Result<serialize::Reader> reader_or = serialize::Reader::FromFile(path);
  FEDGTA_RETURN_IF_ERROR(reader_or.status());
  serialize::Reader& reader = *reader_or;

  uint64_t seed = 0;
  FEDGTA_RETURN_IF_ERROR(reader.ReadU64(&seed));
  if (seed != config_.seed) {
    return FailedPreconditionError(
        "checkpoint was written by a run with a different seed");
  }
  uint32_t completed = 0;
  FEDGTA_RETURN_IF_ERROR(reader.ReadU32(&completed));
  if (completed > static_cast<uint32_t>(config_.rounds)) {
    return FailedPreconditionError(
        "checkpoint round exceeds the configured round count");
  }
  std::string rng_state;
  FEDGTA_RETURN_IF_ERROR(reader.ReadString(&rng_state));
  {
    // Validate the stream before committing anything.
    Rng probe(0);
    FEDGTA_RETURN_IF_ERROR(probe.LoadState(rng_state));
  }
  double best_val = -1.0;
  FEDGTA_RETURN_IF_ERROR(reader.ReadDouble(&best_val));
  SimulationResult partial;
  FEDGTA_RETURN_IF_ERROR(LoadPartialResult(&reader, &partial));
  FEDGTA_RETURN_IF_ERROR(strategy_->LoadState(&reader));
  uint32_t n_clients = 0;
  FEDGTA_RETURN_IF_ERROR(reader.ReadU32(&n_clients));
  if (n_clients != clients_.size()) {
    return FailedPreconditionError("checkpoint client count mismatch");
  }
  for (Client& client : clients_) {
    FEDGTA_RETURN_IF_ERROR(client.LoadState(&reader));
  }
  bool has_fedgl = false;
  FEDGTA_RETURN_IF_ERROR(reader.ReadBool(&has_fedgl));
  if (has_fedgl != (fedgl_ != nullptr)) {
    return FailedPreconditionError("checkpoint FedGL configuration mismatch");
  }
  if (fedgl_ != nullptr) {
    FEDGTA_RETURN_IF_ERROR(fedgl_->LoadState(&reader));
  }
  if (!reader.AtEnd()) {
    return InvalidArgumentError("trailing bytes in checkpoint payload");
  }

  resume_ = std::make_unique<fed::RoundEngine::Resume>();
  resume_->completed_rounds = static_cast<int>(completed);
  resume_->sampling_rng_state = std::move(rng_state);
  resume_->best_val = best_val;
  resume_->partial = std::move(partial);
  return OkStatus();
}

SimulationResult Simulation::Run() {
  if (config_.async) {
    // The async runtime holds stale updates across round boundaries with no
    // serialized representation, so checkpoint/resume (and the test-only
    // halt that exists for it) is rejected rather than silently lossy. FGL
    // wrappers assume strict round alignment of their pseudo-label /
    // mending state and are out of scope for the async path (DESIGN.md
    // §5i), as is any strategy that has not opted into async aggregation.
    FEDGTA_CHECK(config_.checkpoint_dir.empty() && !config_.resume &&
                 config_.halt_after_round == 0)
        << "async mode does not support checkpointing";
    FEDGTA_CHECK(config_.fgl == FglModel::kNone)
        << "async mode does not support FGL model wrappers";
    FEDGTA_CHECK(strategy_->Capabilities().async_capable)
        << "strategy '" << strategy_->name() << "' is not async-capable";
    FEDGTA_CHECK_GE(config_.staleness_tau, 0);
    FEDGTA_CHECK(config_.staleness_decay > 0.0 &&
                 config_.staleness_decay <= 1.0)
        << "staleness_decay must be in (0, 1]";
  }
  const bool checkpointing = !config_.checkpoint_dir.empty();
  const std::string ckpt_path =
      checkpointing ? CheckpointPath(config_.checkpoint_dir) : std::string();
  if (config_.resume && checkpointing &&
      std::filesystem::exists(ckpt_path)) {
    const Status loaded = LoadCheckpoint(ckpt_path);
    FEDGTA_CHECK(loaded.ok()) << "resume from " << ckpt_path
                              << " failed: " << loaded;
  }

  const auto after_round = [&](int round, const Rng& rng, double best_val,
                               const SimulationResult& partial) {
    const bool halting =
        config_.halt_after_round > 0 && round >= config_.halt_after_round;
    const int every = std::max(1, config_.checkpoint_every);
    if (checkpointing &&
        (round % every == 0 || round == config_.rounds || halting)) {
      std::error_code ec;
      std::filesystem::create_directories(config_.checkpoint_dir, ec);
      const Status saved =
          SaveCheckpoint(ckpt_path, round, rng, best_val, partial);
      FEDGTA_CHECK(saved.ok()) << "checkpoint write to " << ckpt_path
                               << " failed: " << saved;
    }
    return halting;
  };
  fed::RoundEngine engine(config_, config_.seed,
                          config_.fgl == FglModel::kFedSage ? augmented_
                                                            : data_->clients,
                          this);
  Result<SimulationResult> result = engine.Run(resume_.get(), after_round);
  FEDGTA_CHECK(result.ok()) << result.status();
  result->setup_seconds = setup_seconds_;
  result->metrics_json = GlobalMetrics().ToJson();
  return std::move(*result);
}

}  // namespace fedgta
