#include "fed/executor.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fedgta {

void RoundExecutor::ForEachClient(int64_t n,
                                  const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  // One client is better served inline: the caller thread stays out of the
  // pool, so the client's own GEMM/SpMM calls still parallelize.
  if (n == 1) {
    fn(0);
    return;
  }
  ParallelFor(0, n, fn, /*grain=*/1);
}

std::vector<ClientOutcome> RoundExecutor::TrainRound(
    Strategy& strategy, std::vector<Client>& clients,
    const std::vector<int>& participants, int epochs,
    const std::vector<TrainHooks>& hooks,
    const std::vector<ClientFate>& fates) {
  FEDGTA_CHECK(hooks.empty() || hooks.size() == participants.size());
  FEDGTA_CHECK_EQ(fates.size(), participants.size());
  std::vector<ClientOutcome> outcomes(participants.size());

  static Counter& tasks = GlobalMetrics().GetCounter("executor.client_tasks");
  static Gauge& threads = GlobalMetrics().GetGauge("executor.pool_threads");
  threads.Set(static_cast<double>(GlobalThreadPoolSize()));
  tasks.Increment(static_cast<int64_t>(participants.size()));

  const TrainHooks no_hooks;
  ForEachClient(
      static_cast<int64_t>(participants.size()), [&](int64_t i) {
        FEDGTA_TRACE_SCOPE("client_train");
        Client& client =
            clients[static_cast<size_t>(participants[static_cast<size_t>(i)])];
        ClientOutcome& outcome = outcomes[static_cast<size_t>(i)];
        const ClientFate fate = fates[static_cast<size_t>(i)];
        if (fate == ClientFate::kDropout) {
          // Sampled but never reports: no download, no local work.
          outcome.result.client_id = client.id();
          return;
        }
        // A crash kills the client partway through its local epochs; the
        // work up to that point still advances its RNG streams, exactly as
        // a real partial run would.
        const int effective_epochs =
            fate == ClientFate::kCrash ? (epochs + 1) / 2 : epochs;
        const TrainHooks& extra =
            hooks.empty() ? no_hooks : hooks[static_cast<size_t>(i)];
        WallTimer timer;
        outcome.result = strategy.TrainClient(client, effective_epochs, extra);
        outcome.seconds = timer.Seconds();
      });

  // Ordered reduction into the metrics registry: recording in participant
  // order keeps the histogram stream identical to a serial run's.
  static Histogram& train_seconds =
      GlobalMetrics().GetHistogram("client.train_seconds");
  for (const ClientOutcome& outcome : outcomes) {
    train_seconds.Record(outcome.seconds);
  }
  return outcomes;
}

namespace {

// Like the rpc.cc accessors: resolved through the registry on every
// construction, never cached in a function-local static (see that file).
struct AsyncCounters {
  Counter& admitted = GlobalMetrics().GetCounter("fed.async.admitted");
  Counter& stale_dropped =
      GlobalMetrics().GetCounter("fed.async.stale_dropped");
  Counter& superseded = GlobalMetrics().GetCounter("fed.async.superseded");
  Counter& undelivered = GlobalMetrics().GetCounter("fed.async.undelivered");
  Gauge& queue_depth = GlobalMetrics().GetGauge("fed.async.queue_depth");
  Histogram& staleness = GlobalMetrics().GetHistogram("fed.async.staleness");
};

}  // namespace

AsyncUpdateQueue::AsyncUpdateQueue() {
  // Materialize the async metric family up front so a status/metrics dump
  // shows the async plane (at zero) from the first round.
  AsyncCounters();
}

void AsyncUpdateQueue::MarkDispatched(int round, int count) {
  if (count <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  outstanding_[round] += count;
}

void AsyncUpdateQueue::MarkAccounted(int round) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = outstanding_.find(round);
  FEDGTA_CHECK(it != outstanding_.end() && it->second > 0)
      << "accounting an update round " << round << " never dispatched";
  if (--it->second == 0) outstanding_.erase(it);
  accounted_cv_.notify_all();
}

void AsyncUpdateQueue::Push(AsyncUpdate update) {
  FEDGTA_CHECK_GE(update.arrival_round, update.dispatch_round);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = outstanding_.find(update.dispatch_round);
  FEDGTA_CHECK(it != outstanding_.end() && it->second > 0)
      << "pushing an update for round " << update.dispatch_round
      << " never dispatched";
  if (--it->second == 0) outstanding_.erase(it);
  received_.push_back(std::move(update));
  AsyncCounters().queue_depth.Set(static_cast<double>(received_.size()));
  accounted_cv_.notify_all();
}

void AsyncUpdateQueue::WaitDispatchedThrough(int round) {
  std::unique_lock<std::mutex> lock(mutex_);
  accounted_cv_.wait(lock, [this, round] {
    // outstanding_ is ordered by round: nothing at or below the barrier
    // means every dispatch through `round` is accounted for.
    return outstanding_.empty() || outstanding_.begin()->first > round;
  });
}

AsyncUpdateQueue::Drain AsyncUpdateQueue::DrainRound(int round, int tau,
                                                     bool final_round) {
  Drain drain;
  std::vector<AsyncUpdate> eligible;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<AsyncUpdate> rest;
    for (AsyncUpdate& u : received_) {
      if (u.arrival_round <= round) {
        eligible.push_back(std::move(u));
      } else if (final_round) {
        ++drain.undelivered;  // the run ended before this could arrive
      } else {
        rest.push_back(std::move(u));
      }
    }
    received_ = std::move(rest);
    AsyncCounters().queue_depth.Set(static_cast<double>(received_.size()));
  }

  AsyncCounters counters;
  // Admission rule, then freshest-per-client dedup. `eligible` holds at
  // most one update per (client, dispatch_round), so "freshest dispatch
  // round wins" is unambiguous.
  std::unordered_map<int, size_t> best;  // client id -> index in admitted
  for (AsyncUpdate& u : eligible) {
    const int staleness = round - u.dispatch_round;
    counters.staleness.Record(static_cast<double>(staleness));
    if (staleness > tau) {
      ++drain.stale_dropped;
      continue;
    }
    const auto [it, inserted] =
        best.emplace(u.result.client_id, drain.admitted.size());
    if (inserted) {
      drain.admitted.push_back(std::move(u));
      continue;
    }
    AsyncUpdate& held = drain.admitted[it->second];
    if (u.dispatch_round > held.dispatch_round) held = std::move(u);
    ++drain.superseded;
  }
  std::sort(drain.admitted.begin(), drain.admitted.end(),
            [](const AsyncUpdate& a, const AsyncUpdate& b) {
              return a.result.client_id < b.result.client_id;
            });

  counters.admitted.Increment(static_cast<int64_t>(drain.admitted.size()));
  if (drain.stale_dropped > 0) {
    counters.stale_dropped.Increment(drain.stale_dropped);
  }
  if (drain.superseded > 0) counters.superseded.Increment(drain.superseded);
  if (drain.undelivered > 0) {
    counters.undelivered.Increment(drain.undelivered);
  }
  return drain;
}

size_t AsyncUpdateQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return received_.size();
}

void ApplyStalenessDiscount(int staleness, double decay,
                            LocalResult* result) {
  FEDGTA_CHECK(result != nullptr);
  if (staleness <= 0) return;  // exact no-op: tau=0 stays bit-identical
  const double scale = std::pow(decay, static_cast<double>(staleness));
  result->metrics.confidence *= scale;
  // Floor at 1 so a deeply stale update keeps a nonzero (but minimal)
  // data-size weight instead of silently vanishing from the average.
  result->num_samples = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::llround(static_cast<double>(result->num_samples) * scale)));
}

}  // namespace fedgta
