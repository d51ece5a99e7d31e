#ifndef FEDGTA_FED_SIMULATION_H_
#define FEDGTA_FED_SIMULATION_H_

#include <memory>
#include <string>
#include <vector>

#include "fed/client.h"
#include "fed/failure.h"
#include "fed/fedgl.h"
#include "fed/fedsage.h"
#include "fed/round_engine.h"
#include "fed/run_result.h"
#include "fed/strategy.h"

namespace fedgta {

/// Optional FGL Model wrapper applied on top of the optimization strategy
/// (paper Tables 3 & 5).
enum class FglModel { kNone, kFedGl, kFedSage };

/// Round-based federated training configuration.
struct SimulationConfig {
  int rounds = 50;
  /// Local epochs per round (paper: 3 small / 5 large datasets).
  int local_epochs = 3;
  /// Minibatch size of the local steps; 0 = full-batch (see
  /// Client::SetBatchSize for why this matters to the baselines).
  int batch_size = 0;
  /// Fraction of clients sampled each round (Fig. 6).
  double participation = 1.0;
  uint64_t seed = 1;
  /// Evaluate every this many rounds (accuracy curve resolution).
  int eval_every = 1;
  FglModel fgl = FglModel::kNone;
  FedGlConfig fedgl;
  FedSageConfig fedsage;
  /// Deterministic client failure injection (fed/failure.h). Disabled while
  /// all rates are zero.
  FailureConfig failure;
  /// When non-empty, a checkpoint is written to
  /// `<checkpoint_dir>/checkpoint.ckpt` (atomically) every
  /// `checkpoint_every` rounds and after the final round; `checkpoint_every`
  /// <= 0 means every round.
  std::string checkpoint_dir;
  int checkpoint_every = 0;
  /// Resume from an existing checkpoint in `checkpoint_dir` (fresh start if
  /// none exists). A resumed run is bit-identical to an uninterrupted one.
  bool resume = false;
  /// Stop after this many rounds have completed (checkpointing first when a
  /// checkpoint_dir is set); 0 runs to `rounds`. Used by tests to emulate a
  /// kill at a round boundary without killing the process.
  int halt_after_round = 0;
  /// Async runtime (DESIGN.md §5i): client updates stream through an
  /// AsyncUpdateQueue instead of a hard round barrier. Injected stragglers
  /// deliver their update `FailurePlan::StragglerDelay` rounds late rather
  /// than being discarded; each round admits updates at most
  /// `staleness_tau` rounds stale (older ones are dropped and counted) and
  /// discounts admitted stale updates by `staleness_decay`^staleness before
  /// aggregation. With staleness_tau = 0 the run is bit-identical to the
  /// synchronous path. Incompatible with FGL wrappers and checkpointing.
  bool async = false;
  int staleness_tau = 0;
  /// Per-round staleness discount in (0, 1] applied to an admitted update's
  /// confidence (FedGTA Eq. 7 weight) and data-size weight.
  double staleness_decay = 0.5;
};

/// Round statistics and run outcome live in fed/run_result.h so the
/// in-process, flat TCP, and hierarchical planes return one type and
/// bit-identity tests compare it with fed::DeterministicEquals. The
/// historical names remain as aliases.
using RoundStats = fed::RoundStats;
using SimulationResult = fed::RunResult;

/// The in-process deployment: `rounds` of strategy-managed federated
/// training over the clients of a FederatedDataset, with participants
/// trained concurrently on the shared pool (RoundExecutor). It is the
/// RoundEngine's reference transport (DESIGN.md "Round engine"): every
/// other plane must reproduce its RunResult bit for bit. Evaluation is the
/// data-size-weighted accuracy of each client's served model on its local
/// test set (the standard subgraph FL protocol; for global-model
/// strategies this equals evaluating the global model).
class Simulation : private fed::RoundTransport {
 public:
  /// `data` must outlive the simulation. The strategy is owned.
  Simulation(const FederatedDataset* data, const ModelConfig& model_config,
             const OptimizerConfig& opt_config,
             std::unique_ptr<Strategy> strategy,
             const SimulationConfig& config);

  /// Runs the remaining rounds (all of them unless a checkpoint was
  /// loaded). With `config.async` the updates stream through the engine's
  /// AsyncUpdateQueue: training still runs under a per-round barrier and
  /// stragglers arrive StragglerDelay rounds late, so admission, and the
  /// whole run, stays deterministic for any tau.
  SimulationResult Run();

  Strategy& strategy() override { return *strategy_; }
  std::vector<Client>& clients() { return clients_; }

  /// Checkpoint file inside `dir`.
  static std::string CheckpointPath(const std::string& dir);

  /// Restores round counter, sampling RNG, strategy state, client state,
  /// partial curve/totals, and FedGL targets from `path`. A missing,
  /// truncated, foreign, or corrupted file surfaces as an error Status —
  /// never an abort. Must be called on a freshly constructed Simulation
  /// built with the same dataset / strategy / config as the writer; any
  /// mismatch (seed, strategy name, client count, tensor shapes) is a
  /// FailedPrecondition. Public so tests can assert corruption handling;
  /// Run() calls it itself when `config.resume` is set.
  Status LoadCheckpoint(const std::string& path);

 private:
  // fed::RoundTransport
  std::vector<ClientOutcome> Train(
      int round, const std::vector<int>& participants,
      const std::vector<ClientFate>& fates) override;
  /// Strategy::Aggregate, then the FedGL pseudo-label refresh.
  Status Aggregate(int round, const std::vector<int>& ids,
                   std::vector<LocalResult>& results) override;
  Status Evaluate(int round, fed::ClientAccuracies* acc) override;

  /// Atomically writes the full simulation state after `completed_rounds`.
  Status SaveCheckpoint(const std::string& path, int completed_rounds,
                        const Rng& sampling_rng, double best_val,
                        const SimulationResult& partial);

  const FederatedDataset* data_;
  SimulationConfig config_;
  std::unique_ptr<Strategy> strategy_;
  std::vector<ClientData> augmented_;  // FedSage+ mended shards, if any
  std::vector<Client> clients_;
  std::unique_ptr<FedGlCoordinator> fedgl_;
  double setup_seconds_ = 0.0;
  /// Staged by LoadCheckpoint, consumed by Run().
  std::unique_ptr<fed::RoundEngine::Resume> resume_;
};

}  // namespace fedgta

#endif  // FEDGTA_FED_SIMULATION_H_
