#ifndef FEDGTA_EVAL_CLI_H_
#define FEDGTA_EVAL_CLI_H_

// Unified command-line surface for the four FedGTA entry points
// (run_experiment, fedgta_server, fedgta_aggregator, fedgta_worker). One
// flag table, one validation pass, one help-text generator — so round
// shape, failure injection, thread-pool, and kernel-backend options cannot
// drift between binaries. Each role exposes the subset of flags that
// applies to it; flags outside the role's subset are rejected as unknown.

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/similarity.h"
#include "data/registry.h"
#include "eval/experiment.h"
#include "fed/aggregator.h"
#include "fed/remote_client_runner.h"
#include "fed/remote_config.h"

namespace fedgta {
namespace cli {

/// Which binary is parsing. Decides the flag subset, the help text, and
/// which validation rules fire.
enum class Role { kRunExperiment, kServer, kWorker, kAggregator };

/// Every option any of the three binaries accepts, with the shared
/// defaults. Fields outside the parsing role's subset keep their defaults.
struct ExperimentCli {
  /// --help was given; callers print HelpText(role) and exit 0. No
  /// validation is performed in this case.
  bool help = false;

  // Experiment identity (run_experiment, server).
  std::string dataset = "cora";
  std::string model = "gamlp";
  std::string strategy = "fedgta";
  std::string split = "louvain";
  int clients = 10;
  int rounds = 50;
  int epochs = 3;
  int hidden = 64;
  int k = 3;
  int batch = 0;
  int repeats = 1;
  double participation = 1.0;
  double epsilon = 0.3;
  bool adaptive_epsilon = false;
  bool feature_moments = false;
  /// Eq. 6 evaluation strategy: exact | auto | lsh (DESIGN.md §5h).
  std::string similarity_mode = "exact";
  uint64_t seed = 42;

  // Failure injection (run_experiment, server).
  double fail_dropout = 0.0;
  double fail_straggler = 0.0;
  double fail_crash = 0.0;
  uint64_t fail_seed = 0xFA11;

  // Async runtime (run_experiment, server; DESIGN.md §5i). The staleness
  // knobs only make sense under --async, so their *_given markers let
  // validation reject them otherwise.
  bool async_mode = false;
  int staleness_tau = 0;
  bool staleness_tau_given = false;
  double staleness_decay = 0.5;
  bool staleness_decay_given = false;

  // Runtime (all roles).
  int num_threads = 0;  // 0 = FEDGTA_NUM_THREADS env / hardware default
  bool num_threads_given = false;
  /// Kernel backend name; empty = FEDGTA_BACKEND env / "simd".
  std::string backend;
  /// False for workers and aggregators: they take no --backend and select
  /// none at startup, but switch to the server's when its config arrives.
  bool selects_backend = true;

  // Outputs (csv is run_experiment-only; trace_out works in every role —
  // per-process files that trace_merge stitches into one fleet timeline).
  std::string csv;
  std::string metrics_json;
  std::string trace_out;
  /// Live round timeline JSON-lines dump (run_experiment, server).
  std::string timeline_out;

  // Checkpointing (run_experiment).
  std::string checkpoint_dir;
  int checkpoint_every = 0;
  bool resume = false;
  int halt_after_round = 0;

  // Wire compression (server; DESIGN.md §5j): the codec assigned to every
  // worker connection.
  std::string compress = "raw";
  /// Elements kept per delta-sparsified tensor; 0 = auto (n/8, floored
  /// so small tensors ship whole). Requires --compress=delta.
  int compress_topk = 0;
  bool compress_topk_given = false;

  // Transport (server, aggregator, worker).
  int port = 5714;
  int workers = 1;
  /// Regional aggregators the server accepts instead of workers; 0 keeps
  /// the flat topology (server; DESIGN.md §5k).
  int aggregators = 0;
  std::string host = "127.0.0.1";
  int deadline_ms = 120000;
  int accept_timeout_ms = 60000;
  int connect_attempts = 20;
  int idle_timeout_ms = 0;
  int max_train_requests = 0;
  /// Live status endpoint (server, aggregator): 0 = ephemeral, negative =
  /// disabled.
  int status_port = -1;
  /// Worker-facing listening port of an aggregator; 0 = ephemeral.
  int listen_port = 0;
  /// Where an aggregator publishes "<worker_port>\n<agg_index>\n" once its
  /// listener is bound (atomic rename; launch scripts poll this).
  std::string port_file;

  // Filled by validation (run_experiment, server).
  ModelType model_type = ModelType::kGamlp;
  SplitMethod split_method = SplitMethod::kLouvain;
  SimilarityMode similarity_mode_parsed = SimilarityMode::kExact;

  /// Strategy options assembled from the flags above.
  StrategyOptions ToStrategyOptions() const;
  /// In-process experiment config (Role::kRunExperiment).
  ExperimentConfig ToExperimentConfig() const;
  /// Distributed coordinator config (Role::kServer).
  RemoteFedConfig ToRemoteConfig() const;
  /// Worker process options (Role::kWorker).
  RemoteRunnerOptions ToRunnerOptions() const;
  /// Regional aggregator process options (Role::kAggregator).
  fed::AggregatorOptions ToAggregatorOptions() const;
};

/// Full flag reference for `role`, ready to print.
std::string HelpText(Role role);

/// Parses argv against `role`'s flag subset and validates the result:
/// unknown flags, out-of-range round shapes, bad failure rates, unknown
/// dataset/model/split/strategy/backend names, and resume preconditions
/// all come back as InvalidArgument with a message naming the offending
/// flag — before any dataset generation is paid for. A parse that saw
/// --help returns ok with .help set and skips validation.
Result<ExperimentCli> ParseAndValidate(Role role, int argc, char** argv);

/// Applies the process-wide runtime options: resizes the shared thread
/// pool (--num_threads) and, where the role selects one, the kernel backend
/// (--backend, falling back to the FEDGTA_BACKEND env selection and logging
/// the choice).
Status ApplyRuntimeOptions(const ExperimentCli& cli);

}  // namespace cli
}  // namespace fedgta

#endif  // FEDGTA_EVAL_CLI_H_
