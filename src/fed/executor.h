#ifndef FEDGTA_FED_EXECUTOR_H_
#define FEDGTA_FED_EXECUTOR_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "fed/client.h"
#include "fed/failure.h"
#include "fed/strategy.h"

namespace fedgta {

/// One participant's training outcome, whichever process trained it.
struct ClientOutcome {
  /// A transport failure (dead worker, blown deadline): the participant
  /// never reported and counts as dropped. Always OK in process.
  Status status;
  /// The upload. Only healthy participants (and, in async mode, late
  /// stragglers) reach aggregation; a dropout's holds only its client id.
  LocalResult result;
  /// Wall seconds of the client's local work (its own span; under parallel
  /// execution these overlap, so they do not sum to round time).
  double seconds = 0.0;
};

/// Parallel client-execution engine for federated rounds.
///
/// Real FGL deployments run participants concurrently; the simulation's
/// round loop does the same by dispatching one task per participant onto the
/// shared thread pool. Inside a client task the linear-algebra kernels run
/// inline (see ParallelFor's nested semantics), so the round is parallel
/// *across* clients rather than *within* one — the right trade once the
/// participant count approaches the core count.
///
/// Determinism guarantee: results are written into index-aligned slots and
/// every reduction over them happens afterwards in participant order, so a
/// run with N pool workers is bit-identical to the serial (1-worker) run.
/// The engine relies on the Strategy thread-safety contract (see
/// Strategy::TrainClient and DESIGN.md "Execution engine"): concurrent
/// TrainClient calls for distinct clients may only touch per-client state
/// slots plus round-constant shared state.
class RoundExecutor {
 public:
  /// Runs fn(i) for each i in [0, n) with one pool task per index, blocking
  /// until all complete. Runs serially inline when n <= 1, when the global
  /// pool has a single worker, or when already called from a pool worker.
  /// `fn` must be safe to invoke concurrently for distinct i.
  static void ForEachClient(int64_t n, const std::function<void(int64_t)>& fn);

  /// Executes one round of local training: for every participants[i],
  /// strategy.TrainClient(clients[participants[i]], epochs, hooks[i]).
  /// `hooks` must be index-aligned with `participants` (or empty for no
  /// extra hooks), `fates` index-aligned. Per-client wall times land in the
  /// `client.train_seconds` histogram and per-client `client_train` trace
  /// spans are emitted on the executing worker's buffer.
  ///
  /// Dropouts do no work, crashed clients train only ceil(epochs/2) local
  /// epochs, stragglers train fully. Discarding failed results (and
  /// renormalizing aggregation weights over the survivors) is the caller's
  /// job.
  static std::vector<ClientOutcome> TrainRound(
      Strategy& strategy, std::vector<Client>& clients,
      const std::vector<int>& participants, int epochs,
      const std::vector<TrainHooks>& hooks,
      const std::vector<ClientFate>& fates);
};

/// One client update flowing through the async runtime.
struct AsyncUpdate {
  /// Round whose weights this update was trained from.
  int dispatch_round = 0;
  /// First round at which the update may be admitted. Equal to
  /// `dispatch_round` for updates that arrive on time (their staleness at a
  /// later drain is real wall-clock lateness); `dispatch_round + delay` for
  /// injected stragglers, whose lateness is virtual so the schedule stays a
  /// pure function of (seed, round, client).
  int arrival_round = 0;
  LocalResult result;
};

/// Server-side update queue of the async federation runtime (DESIGN.md §5i)
/// — the single component the RoundEngine's async runtime feeds, whether
/// the updates come from the in-process oracle or from remote workers.
///
/// Producers (worker feed threads, or the in-process round loop) push
/// completed updates; every dispatched unit of work must eventually be
/// either Push()ed or MarkAccounted()ed (dropout, crash, transport
/// failure), so the bounded-staleness wait rule — "round t may aggregate
/// once every update dispatched at rounds <= t - tau is accounted for" —
/// can be expressed as WaitDispatchedThrough(t - tau).
///
/// DrainRound applies the admission rule: an update drained at round t with
/// staleness s = t - dispatch_round is admitted iff s <= tau, else dropped
/// and counted (`fed.async.stale_dropped`). When one client has several
/// admissible updates in a drain, only the freshest survives
/// (`fed.async.superseded`); admitted updates come back sorted by client id
/// so downstream reductions stay deterministic. All methods are
/// thread-safe.
class AsyncUpdateQueue {
 public:
  AsyncUpdateQueue();

  /// Declares `count` units of work dispatched at `round`.
  void MarkDispatched(int round, int count);
  /// Accounts one dispatched unit that will never produce an update
  /// (dropout, crash, RPC failure).
  void MarkAccounted(int round);
  /// Delivers one completed update (accounts its dispatch slot).
  void Push(AsyncUpdate update);

  /// Blocks until every unit dispatched at rounds <= `round` is accounted
  /// for. Rounds never dispatched are trivially satisfied; `round` past the
  /// last dispatch waits for everything in flight.
  void WaitDispatchedThrough(int round);

  struct Drain {
    /// Admitted updates, freshest-per-client, ascending client id.
    std::vector<AsyncUpdate> admitted;
    int64_t stale_dropped = 0;
    int64_t superseded = 0;
    int64_t undelivered = 0;
  };

  /// Removes every received update with arrival_round <= `round` and
  /// applies the admission rule at staleness bound `tau`. With
  /// `final_round` set the whole buffer is drained: updates whose arrival
  /// round lies past the end of the run are discarded as undelivered
  /// (`fed.async.undelivered`) rather than stale — they are not late, the
  /// run simply ended first.
  Drain DrainRound(int round, int tau, bool final_round);

  /// Received-but-undrained updates (the `fed.async.queue_depth` gauge).
  size_t depth() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable accounted_cv_;
  /// dispatch round -> dispatched-but-unaccounted count.
  std::map<int, int> outstanding_;
  std::vector<AsyncUpdate> received_;
};

/// Applies the staleness discount of the async runtime to an admitted
/// update: the FedGTA Eq. 7 confidence H and the data-size weight every
/// averaging strategy uses are both scaled by decay^staleness, so a late
/// update still contributes but cannot outvote fresh ones. Exactly a no-op
/// at staleness 0 — the tau=0 path stays bit-identical to the synchronous
/// runtime.
void ApplyStalenessDiscount(int staleness, double decay, LocalResult* result);

}  // namespace fedgta

#endif  // FEDGTA_FED_EXECUTOR_H_
