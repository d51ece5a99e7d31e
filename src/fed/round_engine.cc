#include "fed/round_engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/timer.h"
#include "fed/simulation.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fedgta {
namespace fed {
namespace {

int64_t CounterValue(const char* name) {
  const Counter* c = GlobalMetrics().FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

}  // namespace

void RoundTransport::TrainAsync(int round,
                                const std::vector<int>& participants,
                                const std::vector<ClientFate>& fates,
                                const Completion& done) {
  std::vector<ClientOutcome> outcomes = Train(round, participants, fates);
  for (size_t i = 0; i < participants.size(); ++i) {
    if (fates[i] == ClientFate::kDropout) continue;
    done(round, participants[i], fates[i], std::move(outcomes[i]));
  }
}

/// One round's reduction: who aggregated, what they uploaded, who failed.
struct RoundEngine::RoundTally {
  std::vector<int> ids;
  std::vector<LocalResult> results;
  double loss_sum = 0.0;
  int64_t dropped = 0;
  int64_t stragglers = 0;
  int64_t crashed = 0;
  int64_t stale_dropped = 0;
};

RoundEngine::RoundEngine(const SimulationConfig& sim, uint64_t seed,
                         const std::vector<ClientData>& shards,
                         RoundTransport* transport, uint64_t trace_id)
    : sim_(sim),
      seed_(seed),
      trace_id_(trace_id),
      transport_(*transport),
      plan_(sim.failure) {
  test_sizes_.reserve(shards.size());
  val_sizes_.reserve(shards.size());
  for (const ClientData& shard : shards) {
    test_sizes_.push_back(static_cast<int64_t>(shard.test_idx.size()));
    val_sizes_.push_back(static_cast<int64_t>(shard.val_idx.size()));
  }
  if (sim.async) {
    queue_ = std::make_unique<AsyncUpdateQueue>();
    complete_ = [this](int round, int client_id, ClientFate fate,
                       ClientOutcome outcome) {
      Complete(round, client_id, fate, std::move(outcome));
    };
  }
}

std::vector<int> RoundEngine::SampleParticipants(Rng& rng) const {
  const int n_clients = static_cast<int>(test_sizes_.size());
  const int per_round = std::max(
      1, static_cast<int>(std::lround(sim_.participation * n_clients)));
  std::vector<int> participants(static_cast<size_t>(n_clients));
  if (per_round >= n_clients) {
    std::iota(participants.begin(), participants.end(), 0);
  } else {
    participants = rng.SampleWithoutReplacement(n_clients, per_round);
    std::sort(participants.begin(), participants.end());
  }
  return participants;
}

void RoundEngine::SyncStep(int round, const std::vector<int>& participants,
                           const std::vector<ClientFate>& fates,
                           RoundTally* tally) {
  std::vector<ClientOutcome> outcomes =
      transport_.Train(round, participants, fates);
  // Survivors in participant order: failed participants never report, so
  // aggregation renormalizes every strategy's weights (FedGTA Eq. 7
  // included) over the clients that actually did. A transport failure maps
  // onto the dropout semantics.
  Timeline& timeline = GlobalTimeline();
  for (size_t i = 0; i < participants.size(); ++i) {
    const int id = participants[i];
    const std::string fate_name(ClientFateName(fates[i]));
    if (fates[i] == ClientFate::kDropout) {
      ++tally->dropped;
      timeline.ClientFate(round, id, fate_name, 0.0);
      continue;
    }
    ClientOutcome& outcome = outcomes[i];
    if (!outcome.status.ok()) {
      ++tally->dropped;
      timeline.ClientFate(round, id, "rpc_failed", 0.0);
      continue;
    }
    timeline.ClientFate(round, id, fate_name, outcome.seconds);
    switch (fates[i]) {
      case ClientFate::kHealthy:
        tally->ids.push_back(id);
        tally->loss_sum += outcome.result.loss;
        tally->results.push_back(std::move(outcome.result));
        break;
      case ClientFate::kStraggler:
        ++tally->stragglers;
        break;
      case ClientFate::kCrash:
        ++tally->crashed;
        break;
      case ClientFate::kDropout:
        break;  // handled above
    }
  }
}

void RoundEngine::AsyncStep(int round, const std::vector<int>& participants,
                            const std::vector<ClientFate>& fates,
                            bool eval_round, RoundTally* tally) {
  AsyncUpdateQueue& queue = *queue_;
  queue.MarkDispatched(round, static_cast<int>(participants.size()));
  for (size_t i = 0; i < participants.size(); ++i) {
    if (fates[i] == ClientFate::kStraggler) ++tally->stragglers;
    if (fates[i] == ClientFate::kCrash) ++tally->crashed;
    if (fates[i] != ClientFate::kDropout) continue;
    // Never contacted, exactly as in the synchronous path.
    ++tally->dropped;
    GlobalTimeline().ClientFate(round, participants[i],
                                std::string(ClientFateName(fates[i])), 0.0);
    queue.MarkAccounted(round);
  }
  transport_.TrainAsync(round, participants, fates, complete_);

  // Bounded-staleness wait rule: aggregate once everything dispatched at
  // rounds <= t - tau is accounted for. Eval rounds wait for the whole
  // current round, so the transport is idle while clients evaluate.
  const int tau = sim_.staleness_tau;
  queue.WaitDispatchedThrough(eval_round ? round : round - tau);
  AsyncUpdateQueue::Drain drain =
      queue.DrainRound(round, tau, /*final_round=*/round == sim_.rounds);
  tally->stale_dropped = drain.stale_dropped;
  for (AsyncUpdate& u : drain.admitted) {
    ApplyStalenessDiscount(round - u.dispatch_round, sim_.staleness_decay,
                           &u.result);
    tally->ids.push_back(u.result.client_id);
    tally->loss_sum += u.result.loss;
    tally->results.push_back(std::move(u.result));
  }
  // Transport failures seen since the last round count as dropped in this
  // one (with tau = 0 the wait above is a full barrier, so this is exact).
  const int64_t rpc_failures = rpc_failures_.load(std::memory_order_relaxed);
  tally->dropped += rpc_failures - rpc_failures_seen_;
  rpc_failures_seen_ = rpc_failures;
}

void RoundEngine::Complete(int round, int client_id, ClientFate fate,
                           ClientOutcome outcome) {
  Timeline& timeline = GlobalTimeline();
  if (!outcome.status.ok()) {
    rpc_failures_.fetch_add(1, std::memory_order_relaxed);
    timeline.ClientFate(round, client_id, "rpc_failed", 0.0);
    queue_->MarkAccounted(round);
    return;
  }
  timeline.ClientFate(round, client_id, std::string(ClientFateName(fate)),
                      outcome.seconds);
  if (fate == ClientFate::kCrash) {
    queue_->MarkAccounted(round);  // trained (truncated), nothing uploaded
    return;
  }
  // Injected stragglers carry a virtual arrival round (StragglerDelay is
  // pure), so admission stays plan-computable; on-time updates are
  // deliverable at once and any staleness they accrue is real lateness.
  AsyncUpdate update;
  update.dispatch_round = round;
  update.arrival_round =
      fate == ClientFate::kStraggler
          ? round + plan_.StragglerDelay(round, client_id)
          : round;
  update.result = std::move(outcome.result);
  queue_->Push(std::move(update));
}

Status RoundEngine::Evaluate(int round, double* test_accuracy,
                             double* val_accuracy) {
  const size_t n = test_sizes_.size();
  ClientAccuracies acc;
  acc.test.assign(n, 0.0);
  acc.val.assign(n, 0.0);
  acc.evaluated.assign(n, 0);
  FEDGTA_RETURN_IF_ERROR(transport_.Evaluate(round, &acc));
  // Data-size-weighted reduction in client order: the same arithmetic
  // stream on every transport.
  double test_correct = 0.0;
  double val_correct = 0.0;
  int64_t test_total = 0;
  int64_t val_total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!acc.evaluated[i]) continue;
    if (test_sizes_[i] > 0) {
      test_correct += acc.test[i] * static_cast<double>(test_sizes_[i]);
      test_total += test_sizes_[i];
    }
    if (val_sizes_[i] > 0) {
      val_correct += acc.val[i] * static_cast<double>(val_sizes_[i]);
      val_total += val_sizes_[i];
    }
  }
  *test_accuracy =
      test_total > 0 ? test_correct / static_cast<double>(test_total) : 0.0;
  *val_accuracy =
      val_total > 0 ? val_correct / static_cast<double>(val_total) : 0.0;
  return OkStatus();
}

Result<RunResult> RoundEngine::Run(const Resume* resume,
                                   const AfterRound& after_round) {
  RunResult result;
  Rng rng(seed_ ^ 0x517u);
  int start_round = 0;
  double best_val = -1.0;
  if (resume != nullptr) {
    result = resume->partial;
    start_round = resume->completed_rounds;
    best_val = resume->best_val;
    result.resumed_from_round = start_round;
    FEDGTA_CHECK(rng.LoadState(resume->sampling_rng_state).ok());
  }

  // Per-round deltas land in the registry so a metrics dump decomposes the
  // run without post-processing the curve (see DESIGN.md "Observability").
  MetricsRegistry& metrics = GlobalMetrics();
  Histogram& round_client_seconds =
      metrics.GetHistogram("round.client_seconds");
  Histogram& round_server_seconds =
      metrics.GetHistogram("round.server_seconds");
  Counter& rounds_completed = metrics.GetCounter("rounds.completed");
  Counter& upload_floats = metrics.GetCounter("comm.upload_floats");
  Counter& download_floats = metrics.GetCounter("comm.download_floats");
  Counter& dropped_counter = metrics.GetCounter("fed.round.dropped_clients");
  Counter& straggler_counter = metrics.GetCounter("fed.round.stragglers");
  Counter& crashed_counter = metrics.GetCounter("fed.round.crashed_clients");
  Histogram& round_seconds = metrics.GetHistogram("fed.round.seconds");
  Timeline& timeline = GlobalTimeline();

  for (int round = start_round + 1; round <= sim_.rounds; ++round) {
    // The round's distributed identity: every RPC it issues (from this
    // thread or a dispatch thread that re-installs the context) carries
    // {trace_id, round span, round} in its envelope.
    std::optional<ScopedTraceContext> scoped_round;
    if (trace_id_ != 0) {
      TraceContext ctx;
      ctx.trace_id = trace_id_;
      ctx.round = round;
      scoped_round.emplace(ctx);
    }
    FEDGTA_TRACE_SCOPE("round");
    WallTimer round_timer;
    const int64_t bytes_sent0 = CounterValue("net.bytes_sent");
    const int64_t bytes_recv0 = CounterValue("net.bytes_recv");
    const std::vector<int> participants = SampleParticipants(rng);
    timeline.RoundStart(round, static_cast<int64_t>(participants.size()));

    // Fates are pure in (seed, round, client), so every process computes
    // the same ones without coordination.
    std::vector<ClientFate> fates(participants.size(), ClientFate::kHealthy);
    if (sim_.failure.enabled()) {
      for (size_t i = 0; i < participants.size(); ++i) {
        fates[i] = plan_.FateOf(round, participants[i]);
      }
    }
    const bool eval_round =
        round % sim_.eval_every == 0 || round == sim_.rounds;

    RoundTally tally;
    WallTimer client_timer;
    if (sim_.async) {
      AsyncStep(round, participants, fates, eval_round, &tally);
    } else {
      SyncStep(round, participants, fates, &tally);
    }
    const double client_seconds = client_timer.Seconds();

    // Server aggregation over the survivors; a round where nobody reported
    // leaves the server state as-is.
    WallTimer server_timer;
    {
      FEDGTA_TRACE_SCOPE("server_step");
      if (!tally.ids.empty()) {
        FEDGTA_RETURN_IF_ERROR(
            transport_.Aggregate(round, tally.ids, tally.results));
      }
    }
    const double server_seconds = server_timer.Seconds();

    const Strategy::CommunicationStats comm =
        transport_.Communication(tally.results);
    result.total_client_seconds += client_seconds;
    result.total_server_seconds += server_seconds;
    result.total_upload_floats += comm.upload_floats;
    result.total_download_floats += comm.download_floats;
    result.total_dropped_clients += tally.dropped;
    result.total_straggler_clients += tally.stragglers;
    result.total_crashed_clients += tally.crashed;
    if (sim_.async) {
      result.total_admitted_updates += static_cast<int64_t>(tally.ids.size());
      result.total_stale_dropped_updates += tally.stale_dropped;
    }

    round_client_seconds.Record(client_seconds);
    round_server_seconds.Record(server_seconds);
    rounds_completed.Increment();
    upload_floats.Increment(comm.upload_floats);
    download_floats.Increment(comm.download_floats);
    if (tally.dropped > 0) dropped_counter.Increment(tally.dropped);
    if (tally.stragglers > 0) straggler_counter.Increment(tally.stragglers);
    if (tally.crashed > 0) crashed_counter.Increment(tally.crashed);
    round_seconds.Record(round_timer.Seconds());
    if (sim_.async) {
      timeline.AsyncAdmission(round, static_cast<int64_t>(tally.ids.size()),
                              tally.stale_dropped,
                              static_cast<int64_t>(queue_->depth()));
    }
    timeline.RoundEnd(round, client_seconds, server_seconds,
                      CounterValue("net.bytes_sent") - bytes_sent0,
                      CounterValue("net.bytes_recv") - bytes_recv0,
                      tally.dropped, tally.stragglers, tally.crashed);

    if (eval_round) {
      RoundStats stats;
      stats.round = round;
      stats.train_loss =
          tally.ids.empty()
              ? 0.0
              : tally.loss_sum / static_cast<double>(tally.ids.size());
      stats.client_seconds = result.total_client_seconds;
      stats.server_seconds = result.total_server_seconds;
      stats.upload_floats = result.total_upload_floats;
      stats.download_floats = result.total_download_floats;
      stats.dropped_clients = result.total_dropped_clients;
      stats.straggler_clients = result.total_straggler_clients;
      stats.crashed_clients = result.total_crashed_clients;
      FEDGTA_RETURN_IF_ERROR(
          Evaluate(round, &stats.test_accuracy, &stats.val_accuracy));
      if (stats.val_accuracy > best_val) {
        best_val = stats.val_accuracy;
        result.best_test_accuracy = stats.test_accuracy;
      }
      result.final_test_accuracy = stats.test_accuracy;
      result.curve.push_back(stats);
    }
    if (after_round && after_round(round, rng, best_val, result)) break;
  }
  return result;
}

std::string RoundLatencyStatus() {
  return "latencies:\n" +
         GlobalMetrics().HistogramLines(
             {"fed.round.seconds", "net.rpc.seconds", "round.client_seconds",
              "round.server_seconds", "fleet.phase.remote_train.seconds"});
}

}  // namespace fed
}  // namespace fedgta
