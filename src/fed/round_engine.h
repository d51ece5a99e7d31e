#ifndef FEDGTA_FED_ROUND_ENGINE_H_
#define FEDGTA_FED_ROUND_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "data/federated.h"
#include "fed/executor.h"
#include "fed/failure.h"
#include "fed/run_result.h"
#include "fed/strategy.h"

namespace fedgta {

struct SimulationConfig;

namespace fed {

/// Per-client accuracies of one evaluation pass, indexed by client id.
/// `evaluated[id] == 0` marks a client the transport could not reach; it
/// drops out of the weighted reduction.
struct ClientAccuracies {
  std::vector<double> test;
  std::vector<double> val;
  std::vector<char> evaluated;
};

/// What a deployment plugs into the RoundEngine: how participants train,
/// how survivors aggregate, and how clients evaluate. Everything else in
/// a round — sampling, failure fates, survivor filtering or async
/// admission, counters, timeline events and the RunResult — is the
/// engine's, so the in-process Simulation, the flat RemoteCoordinator and
/// the hierarchical RootCoordinator cannot drift apart.
class RoundTransport {
 public:
  /// Receives one dispatched participant's outcome in async mode. Safe to
  /// call from any thread.
  using Completion = std::function<void(int round, int client_id,
                                        ClientFate fate, ClientOutcome)>;

  /// Trains participants[i] under fates[i] and returns once all have
  /// reported, outcomes index-aligned with `participants`. Dropouts must
  /// never be contacted; their slots are ignored. Stragglers and crashed
  /// clients do their (full / truncated) work; the engine discards it.
  virtual std::vector<ClientOutcome> Train(
      int round, const std::vector<int>& participants,
      const std::vector<ClientFate>& fates) = 0;

  /// Async runtime: starts training every non-dropout participant; each
  /// outcome goes to `done` exactly once, possibly after this returns. The
  /// default trains at a barrier (Train) and reports in participant order.
  virtual void TrainAsync(int round, const std::vector<int>& participants,
                          const std::vector<ClientFate>& fates,
                          const Completion& done);

  /// Aggregates the round's survivors (`ids` ascending, `results` aligned).
  virtual Status Aggregate(int round, const std::vector<int>& ids,
                           std::vector<LocalResult>& results) = 0;

  /// The round's simulated communication volume over the aggregated
  /// results (Strategy::RoundCommunication's formula).
  virtual Strategy::CommunicationStats Communication(
      const std::vector<LocalResult>& results) = 0;

  /// Evaluates every client with its served parameters into `acc`
  /// (pre-sized and zeroed by the engine).
  virtual Status Evaluate(int round, ClientAccuracies* acc) = 0;

 protected:
  /// Deployments are never deleted through their transport.
  ~RoundTransport() = default;
};

/// The one federated round loop every deployment runs (DESIGN.md "Round
/// engine"). Per round it samples participants from Rng(seed ^ 0x517),
/// computes FailurePlan fates, has the transport train them, filters
/// survivors in participant order (sync) or admits queued updates with the
/// staleness discount (async), aggregates, records the round's counters,
/// histograms and timeline events, and on evaluation rounds reduces the
/// per-client accuracies in client order into a RoundStats. Every
/// reduction runs in a fixed order, so any transport that reproduces the
/// in-process client semantics yields a bit-identical RunResult.
class RoundEngine {
 public:
  /// State restored from a checkpoint (in-process runs only).
  struct Resume {
    int completed_rounds = 0;
    std::string sampling_rng_state;
    double best_val = -1.0;
    RunResult partial;
  };
  /// Called after each completed round with the sampling RNG, best
  /// validation accuracy and the partial result — everything a checkpoint
  /// needs. Returning true stops the run after this round.
  using AfterRound = std::function<bool(int round, const Rng& sampling_rng,
                                        double best_val,
                                        const RunResult& partial)>;

  /// `sim` supplies the round shape (rounds, participation, eval_every,
  /// failure, async knobs) and must outlive the engine; `seed` drives
  /// sampling. `shards` give the eval weights (test/val sizes per client).
  /// A nonzero `trace_id` installs a per-round TraceContext so every RPC
  /// of the round carries it.
  RoundEngine(const SimulationConfig& sim, uint64_t seed,
              const std::vector<ClientData>& shards, RoundTransport* transport,
              uint64_t trace_id = 0);

  /// Runs rounds `resume->completed_rounds + 1 .. sim.rounds` (all of them
  /// without a resume). Fails only when the transport does.
  Result<RunResult> Run(const Resume* resume = nullptr,
                        const AfterRound& after_round = {});

 private:
  struct RoundTally;

  std::vector<int> SampleParticipants(Rng& rng) const;
  void SyncStep(int round, const std::vector<int>& participants,
                const std::vector<ClientFate>& fates, RoundTally* tally);
  void AsyncStep(int round, const std::vector<int>& participants,
                 const std::vector<ClientFate>& fates, bool eval_round,
                 RoundTally* tally);
  /// Async Completion target: maps one outcome onto the update queue.
  void Complete(int round, int client_id, ClientFate fate,
                ClientOutcome outcome);
  Status Evaluate(int round, double* test_accuracy, double* val_accuracy);

  const SimulationConfig& sim_;
  const uint64_t seed_;
  const uint64_t trace_id_;
  RoundTransport& transport_;
  FailurePlan plan_;
  /// Per-client eval weights, client order.
  std::vector<int64_t> test_sizes_;
  std::vector<int64_t> val_sizes_;
  /// Async runtime state (null on synchronous runs).
  std::unique_ptr<AsyncUpdateQueue> queue_;
  RoundTransport::Completion complete_;
  std::atomic<int64_t> rpc_failures_{0};
  int64_t rpc_failures_seen_ = 0;
};

/// Renders the round-latency block of a status endpoint reply (p50/p99 of
/// the round, RPC and client/server split histograms).
std::string RoundLatencyStatus();

}  // namespace fed
}  // namespace fedgta

#endif  // FEDGTA_FED_ROUND_ENGINE_H_
