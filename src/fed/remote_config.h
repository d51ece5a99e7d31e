#ifndef FEDGTA_FED_REMOTE_CONFIG_H_
#define FEDGTA_FED_REMOTE_CONFIG_H_

#include <string>

#include "data/federated.h"
#include "fed/simulation.h"
#include "net/rpc.h"

namespace fedgta {

/// Server-side description of a distributed FedGTA run: the experiment
/// identity shipped to workers (dataset recipe, model/optimizer/strategy
/// hyperparameters, round shape, failure rates) plus the transport knobs
/// that stay local to the server.
struct RemoteFedConfig {
  std::string dataset = "cora";
  uint64_t seed = 42;
  SplitConfig split;
  FederatedOptions federated;
  ModelConfig model;
  OptimizerConfig optimizer;
  std::string strategy = "fedgta";
  StrategyOptions strategy_options;
  /// Round shape (rounds, local_epochs, batch_size, participation,
  /// eval_every, failure). FGL wrappers and checkpointing are not supported
  /// over the wire and must stay at their defaults. `sim.seed` is ignored:
  /// the top-level `seed` above governs dataset, client init, and
  /// participant sampling alike (match them when comparing against an
  /// in-process Simulation).
  SimulationConfig sim;

  /// Wire compression (DESIGN.md §5j): a codec name from
  /// net::compress::ListCodecNames() ("raw", "int8", "delta"), assigned to
  /// every worker connection. Raw ships the uncompressed bytes.
  std::string compress = "raw";
  /// Elements per delta-sparsified tensor; 0 = auto (n/8, floored so
  /// small tensors ship whole). Only meaningful
  /// with compress = "delta".
  int compress_topk = 0;

  /// Workers to accept before round 1; client i is hosted by worker
  /// i % num_workers (accept order).
  int num_workers = 1;
  /// Regional aggregators of a hierarchical deployment (DESIGN.md §5k).
  /// 0 = the flat topology: RemoteCoordinator speaks the worker protocol
  /// directly. > 0 = fed::RootCoordinator accepts this many aggregator
  /// connections instead of workers, deals each a contiguous client shard
  /// and a block of the worker count, and the aggregators accept the
  /// workers.
  int num_aggregators = 0;
  /// Per-RPC deadline / retry / backoff. `rpc.deadline_ms` is the straggler
  /// deadline: a worker that blows it is dropped from the round and the
  /// server moves on.
  net::RpcOptions rpc;
  /// How long Run() waits for each worker to dial in.
  int accept_timeout_ms = 30000;
  /// Live status endpoint (net/status.h): bound in Listen(), serving from
  /// the start of Run() until the coordinator is destroyed. 0 picks an
  /// ephemeral port (see RemoteCoordinator::status_port()); negative
  /// disables the endpoint.
  int status_port = -1;
};

/// The checks the flat and the hierarchical server share before binding:
/// at least one worker and no more workers than clients, the round shape
/// (participation, rounds, local epochs), no FGL wrappers or checkpointing
/// (in-process only), valid async staleness knobs, a known wire codec and
/// top-k, and a known dataset. All failures are InvalidArgument.
Status ValidateDistributedConfig(const RemoteFedConfig& config);

/// Builds the configured strategy and checks it can run on remote workers
/// (and, in async mode, is async-capable); FailedPrecondition otherwise.
Result<std::unique_ptr<Strategy>> MakeRemoteStrategy(
    const RemoteFedConfig& config);

/// Projects the worker-relevant slice of `config` into the AssignConfig
/// payload, with this process's active kernel backend. Server-only knobs
/// (FedGTA's Eq. 6-7 aggregation options, transport settings) are
/// deliberately not shipped.
net::WireFedConfig ToWireConfig(const RemoteFedConfig& config);

/// Everything a worker reconstructs from a received WireFedConfig.
struct WorkerSetup {
  FederatedDataset data;
  ModelConfig model;
  OptimizerConfig optimizer;
  std::string strategy;
  float prox_mu = 0.01f;
  /// Client-side FedGTA knobs (Eq. 3-5); the server keeps Eq. 6-7 to
  /// itself.
  FedGtaOptions gta;
  FailureConfig failure;
  int local_epochs = 3;
  int batch_size = 0;
  /// Async runtime: stragglers ship their full (late) payload instead of an
  /// empty one — the server's bounded-staleness queue decides admission.
  bool async = false;
};

/// Parses and validates a wire config, selects its kernel backend for this
/// process (linalg::SetActiveBackend), then materializes the deterministic
/// federated dataset exactly as the server (and RunExperiment) would.
/// Unknown dataset/model/split/optimizer/strategy/backend names are
/// InvalidArgument; a strategy whose Capabilities() are not
/// remote-executable is a FailedPrecondition.
Status SetupFromWireConfig(const net::WireFedConfig& wire, WorkerSetup* setup);

/// The shared dataset recipe both endpoints must follow to agree on shards:
/// MakeDatasetByName(dataset, seed), then BuildFederatedDataset under
/// Rng(seed ^ 0x5714) — byte-for-byte the RunExperiment recipe.
FederatedDataset MaterializeFederatedDataset(const std::string& dataset,
                                             uint64_t seed,
                                             const SplitConfig& split,
                                             const FederatedOptions& options);

}  // namespace fedgta

#endif  // FEDGTA_FED_REMOTE_CONFIG_H_
