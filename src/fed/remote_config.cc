#include "fed/remote_config.h"

#include "data/registry.h"
#include "fed/strategy.h"

namespace fedgta {

FederatedDataset MaterializeFederatedDataset(const std::string& dataset,
                                             uint64_t seed,
                                             const SplitConfig& split,
                                             const FederatedOptions& options) {
  Dataset ds = MakeDatasetByName(dataset, seed);
  Rng split_rng(seed ^ 0x5714);
  return BuildFederatedDataset(std::move(ds), split, split_rng, options);
}

Status ValidateDistributedConfig(const RemoteFedConfig& config) {
  if (config.num_workers < 1) {
    return InvalidArgumentError("num_workers must be >= 1");
  }
  if (config.num_workers > config.split.num_clients) {
    return InvalidArgumentError(
        "more workers than clients: every worker must host at least one");
  }
  if (config.sim.fgl != FglModel::kNone) {
    return InvalidArgumentError(
        "FGL model wrappers are not supported in distributed mode");
  }
  if (!config.sim.checkpoint_dir.empty() || config.sim.resume) {
    return InvalidArgumentError(
        "checkpointing is not supported in distributed mode");
  }
  if (config.sim.participation <= 0.0 || config.sim.participation > 1.0) {
    return InvalidArgumentError("participation must be in (0, 1]");
  }
  if (config.sim.rounds < 1 || config.sim.local_epochs < 1) {
    return InvalidArgumentError("rounds and local_epochs must be >= 1");
  }
  if (config.sim.async) {
    if (config.sim.staleness_tau < 0) {
      return InvalidArgumentError("staleness_tau must be >= 0");
    }
    if (!(config.sim.staleness_decay > 0.0 &&
          config.sim.staleness_decay <= 1.0)) {
      return InvalidArgumentError("staleness_decay must be in (0, 1]");
    }
  }
  if (config.compress != "off" &&
      net::compress::FindCodec(config.compress) == nullptr) {
    return InvalidArgumentError("unknown compress codec '" + config.compress +
                                "'");
  }
  if (config.compress_topk < 0) {
    return InvalidArgumentError("compress_topk must be >= 0");
  }
  return GetDatasetSpec(config.dataset).status();
}

Result<std::unique_ptr<Strategy>> MakeRemoteStrategy(
    const RemoteFedConfig& config) {
  Result<std::unique_ptr<Strategy>> strategy =
      MakeStrategy(config.strategy, config.strategy_options);
  FEDGTA_RETURN_IF_ERROR(strategy.status());
  if (!(*strategy)->Capabilities().remote_executable) {
    return FailedPreconditionError(
        "strategy '" + config.strategy +
        "' mutates per-client server state inside TrainClient and cannot "
        "run on remote workers (see DESIGN.md §5e)");
  }
  if (config.sim.async && !(*strategy)->Capabilities().async_capable) {
    return FailedPreconditionError(
        "strategy '" + config.strategy +
        "' is not async-capable: its aggregation assumes strict round "
        "alignment (see DESIGN.md §5i)");
  }
  return strategy;
}

net::WireFedConfig ToWireConfig(const RemoteFedConfig& config) {
  net::WireFedConfig wire;
  wire.dataset = config.dataset;
  wire.seed = config.seed;
  wire.split_method = SplitMethodName(config.split.method);
  wire.num_clients = config.split.num_clients;
  wire.overlap_fraction = config.federated.overlap_fraction;
  wire.model = ModelTypeName(config.model.type);
  wire.hidden = config.model.hidden;
  wire.num_layers = config.model.num_layers;
  wire.model_k = config.model.k;
  wire.dropout = config.model.dropout;
  wire.gbp_beta = config.model.gbp_beta;
  wire.r = config.model.r;
  wire.optimizer =
      config.optimizer.type == OptimizerType::kAdam ? "adam" : "sgd";
  wire.lr = config.optimizer.lr;
  wire.momentum = config.optimizer.momentum;
  wire.weight_decay = config.optimizer.weight_decay;
  wire.beta1 = config.optimizer.beta1;
  wire.beta2 = config.optimizer.beta2;
  wire.adam_epsilon = config.optimizer.epsilon;
  wire.strategy = config.strategy;
  wire.prox_mu = config.strategy_options.prox_mu;
  wire.gta_alpha = config.strategy_options.fedgta.alpha;
  wire.gta_k = config.strategy_options.fedgta.k;
  wire.gta_moment_order = config.strategy_options.fedgta.moment_order;
  wire.gta_use_feature_moments =
      config.strategy_options.fedgta.use_feature_moments;
  wire.gta_feature_moment_dims =
      config.strategy_options.fedgta.feature_moment_dims;
  wire.local_epochs = config.sim.local_epochs;
  wire.batch_size = config.sim.batch_size;
  wire.fail_dropout = config.sim.failure.dropout_rate;
  wire.fail_straggler = config.sim.failure.straggler_rate;
  wire.fail_crash = config.sim.failure.crash_rate;
  wire.fail_seed = config.sim.failure.seed;
  wire.async = config.sim.async;
  wire.staleness_tau = config.sim.staleness_tau;
  wire.staleness_decay = config.sim.staleness_decay;
  return wire;
}

Status SetupFromWireConfig(const net::WireFedConfig& wire,
                           WorkerSetup* setup) {
  FEDGTA_CHECK(setup != nullptr);
  FEDGTA_RETURN_IF_ERROR(GetDatasetSpec(wire.dataset).status());
  Result<ModelType> model_type = ParseModelType(wire.model);
  FEDGTA_RETURN_IF_ERROR(model_type.status());
  Result<SplitMethod> split_method = ParseSplitMethod(wire.split_method);
  FEDGTA_RETURN_IF_ERROR(split_method.status());
  if (wire.num_clients < 1) {
    return InvalidArgumentError("num_clients must be >= 1, got " +
                                std::to_string(wire.num_clients));
  }
  if (wire.local_epochs < 1) {
    return InvalidArgumentError("local_epochs must be >= 1, got " +
                                std::to_string(wire.local_epochs));
  }
  if (wire.batch_size < 0) {
    return InvalidArgumentError("batch_size must be >= 0");
  }

  OptimizerType opt_type;
  if (wire.optimizer == "adam") {
    opt_type = OptimizerType::kAdam;
  } else if (wire.optimizer == "sgd") {
    opt_type = OptimizerType::kSgd;
  } else {
    return InvalidArgumentError("unknown optimizer: " + wire.optimizer);
  }

  StrategyOptions strategy_options;
  strategy_options.prox_mu = wire.prox_mu;
  strategy_options.fedgta.alpha = wire.gta_alpha;
  strategy_options.fedgta.k = wire.gta_k;
  strategy_options.fedgta.moment_order = wire.gta_moment_order;
  strategy_options.fedgta.use_feature_moments = wire.gta_use_feature_moments;
  strategy_options.fedgta.feature_moment_dims = wire.gta_feature_moment_dims;
  Result<std::unique_ptr<Strategy>> probe =
      MakeStrategy(wire.strategy, strategy_options);
  FEDGTA_RETURN_IF_ERROR(probe.status());
  if (!(*probe)->Capabilities().remote_executable) {
    return FailedPreconditionError(
        "strategy '" + wire.strategy +
        "' mutates per-client server state inside TrainClient and cannot "
        "run on remote workers (see DESIGN.md §5e)");
  }
  if (wire.async) {
    if (!(*probe)->Capabilities().async_capable) {
      return FailedPreconditionError(
          "strategy '" + wire.strategy +
          "' is not async-capable: its aggregation assumes strict round "
          "alignment (see DESIGN.md §5i)");
    }
    if (wire.staleness_tau < 0) {
      return InvalidArgumentError("staleness_tau must be >= 0, got " +
                                  std::to_string(wire.staleness_tau));
    }
    if (!(wire.staleness_decay > 0.0 && wire.staleness_decay <= 1.0)) {
      return InvalidArgumentError("staleness_decay must be in (0, 1]");
    }
  }

  setup->model.type = *model_type;
  setup->model.hidden = wire.hidden;
  setup->model.num_layers = wire.num_layers;
  setup->model.k = wire.model_k;
  setup->model.dropout = wire.dropout;
  setup->model.gbp_beta = wire.gbp_beta;
  setup->model.r = wire.r;
  setup->optimizer.type = opt_type;
  setup->optimizer.lr = wire.lr;
  setup->optimizer.momentum = wire.momentum;
  setup->optimizer.weight_decay = wire.weight_decay;
  setup->optimizer.beta1 = wire.beta1;
  setup->optimizer.beta2 = wire.beta2;
  setup->optimizer.epsilon = wire.adam_epsilon;
  setup->strategy = wire.strategy;
  setup->prox_mu = wire.prox_mu;
  setup->gta = strategy_options.fedgta;
  setup->failure.dropout_rate = wire.fail_dropout;
  setup->failure.straggler_rate = wire.fail_straggler;
  setup->failure.crash_rate = wire.fail_crash;
  setup->failure.seed = wire.fail_seed;
  setup->local_epochs = wire.local_epochs;
  setup->batch_size = wire.batch_size;
  setup->async = wire.async;

  SplitConfig split;
  split.method = *split_method;
  split.num_clients = wire.num_clients;
  FederatedOptions federated;
  federated.overlap_fraction = wire.overlap_fraction;
  setup->data =
      MaterializeFederatedDataset(wire.dataset, wire.seed, split, federated);
  return OkStatus();
}

}  // namespace fedgta
