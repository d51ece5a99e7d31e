#include "fed/remote_coordinator.h"

#include <condition_variable>
#include <deque>
#include <thread>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/similarity.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fedgta {
namespace {

ClientOutcome ToOutcome(int client_id, net::TrainResponseMsg& resp) {
  ClientOutcome outcome;
  outcome.seconds = resp.seconds;
  outcome.result.client_id = client_id;
  outcome.result.params = std::move(resp.weights);
  outcome.result.num_samples = resp.num_samples;
  outcome.result.loss = resp.loss;
  outcome.result.metrics.confidence = resp.confidence;
  outcome.result.metrics.moments = std::move(resp.moments);
  return outcome;
}

}  // namespace

/// Per-worker command queues of the async runtime, each drained by one
/// feed thread: commands on one connection stay strictly sequential
/// (request/response protocol) and in round order, while workers stream
/// concurrently. The queue bound is backpressure only — the engine's wait
/// rule is what limits in-flight work.
struct RemoteCoordinator::AsyncFeeds {
  /// One enqueued dispatch. Weights are snapshotted at enqueue time: the
  /// update trains from the server state of its dispatch round even if
  /// aggregation has since moved on.
  struct Command {
    int round = 0;
    int client_id = 0;
    ClientFate fate = ClientFate::kHealthy;
    std::vector<float> weights;
  };
  struct Feed {
    static constexpr size_t kMaxDepth = 128;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Command> queue;
    bool stop = false;
  };

  explicit AsyncFeeds(size_t n) : feeds(n) {}

  std::vector<Feed> feeds;
  std::vector<std::thread> threads;
  const Completion* done = nullptr;
};

RemoteCoordinator::RemoteCoordinator(const RemoteFedConfig& config)
    : config_(config) {}

RemoteCoordinator::~RemoteCoordinator() { StopFeeds(); }

Status RemoteCoordinator::Listen(int port) {
  FEDGTA_RETURN_IF_ERROR(ValidateDistributedConfig(config_));
  Result<net::ServerSocket> server =
      net::ServerSocket::Listen(port, config_.num_workers + 8);
  FEDGTA_RETURN_IF_ERROR(server.status());
  server_ = std::move(*server);
  // Bind (but do not yet serve) the status endpoint: callers learn the
  // ephemeral port now and may still fork worker processes safely — the
  // accept thread only starts inside Run().
  if (config_.status_port >= 0) {
    FEDGTA_RETURN_IF_ERROR(status_.Bind(config_.status_port));
  }
  return OkStatus();
}

Status RemoteCoordinator::Handshake() {
  Result<std::unique_ptr<Strategy>> strategy = MakeRemoteStrategy(config_);
  FEDGTA_RETURN_IF_ERROR(strategy.status());
  strategy_ = std::move(*strategy);

  // The server holds no models — just the deterministic dataset, for shard
  // sizes (Initialize weights, eval denominators). Workers materialize the
  // same dataset from the same recipe.
  data_ = MaterializeFederatedDataset(config_.dataset, config_.seed,
                                      config_.split, config_.federated);
  // One shard per configured client, so ValidateDistributedConfig's
  // worker bound already holds.
  const int n_clients = data_.num_clients();

  std::vector<std::vector<int>> ownership(
      static_cast<size_t>(config_.num_workers));
  for (int id = 0; id < n_clients; ++id) {
    ownership[static_cast<size_t>(id % config_.num_workers)].push_back(id);
  }

  WorkerFleetOptions options;
  options.wire = ToWireConfig(config_);
  options.compress = config_.compress;
  options.compress_topk = config_.compress_topk;
  options.rpc = config_.rpc;
  options.accept_timeout_ms = config_.accept_timeout_ms;
  FEDGTA_RETURN_IF_ERROR(
      workers_.Accept(server_, n_clients, ownership, options));
  if (workers_.init_params().empty()) {
    return InternalError(
        "no worker reported the common initialization (client 0 unhosted?)");
  }

  strategy_->Initialize(n_clients, data_.train_sizes(),
                        workers_.init_params());

  // Publish the fleet to the status endpoint (its thread is already
  // serving; until this point it reports "handshake in progress").
  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    fleet_status_ = workers_.StatusSnapshot();
  }
  return OkStatus();
}

Result<SimulationResult> RemoteCoordinator::Run() {
  if (!server_.valid()) {
    return FailedPreconditionError("call Listen() before Run()");
  }
  trace_id_ = NewTraceId();
  // First thread this process creates — anyone forking must have done so
  // before Run() (the loopback tests rely on this ordering).
  if (status_.bound()) {
    status_.Start([this](const std::string& cmd) { return RenderStatus(cmd); });
  }
  WallTimer setup_timer;
  FEDGTA_RETURN_IF_ERROR(Handshake());
  const double setup_seconds = setup_timer.Seconds();

  fed::RoundEngine engine(config_.sim, config_.seed, data_.clients, this,
                          trace_id_);
  Result<SimulationResult> result = engine.Run();
  StopFeeds();
  workers_.Shutdown();
  FEDGTA_RETURN_IF_ERROR(result.status());
  result->setup_seconds = setup_seconds;
  result->metrics_json = GlobalMetrics().ToJson();
  return result;
}

std::vector<ClientOutcome> RemoteCoordinator::Train(
    int round, const std::vector<int>& participants,
    const std::vector<ClientFate>& fates) {
  // One dispatch thread per worker, responses in participant-aligned
  // slots (see WorkerFleet::TrainRound).
  std::vector<net::TrainResponseMsg> responses;
  std::vector<Status> rpc_status;
  workers_.TrainRound(round, participants, fates,
                      [this](int id) { return strategy_->DownloadFor(id); },
                      &fleet_, &responses, &rpc_status);
  std::vector<ClientOutcome> outcomes(participants.size());
  for (size_t i = 0; i < participants.size(); ++i) {
    if (rpc_status[i].ok()) {
      outcomes[i] = ToOutcome(participants[i], responses[i]);
    } else {
      outcomes[i].status = rpc_status[i];
    }
  }
  return outcomes;
}

void RemoteCoordinator::TrainAsync(int round,
                                   const std::vector<int>& participants,
                                   const std::vector<ClientFate>& fates,
                                   const Completion& done) {
  if (feeds_ == nullptr) {
    feeds_ = std::make_unique<AsyncFeeds>(workers_.num_workers());
    feeds_->done = &done;
    for (size_t w = 0; w < feeds_->feeds.size(); ++w) {
      feeds_->threads.emplace_back([this, w] { FeedLoop(w); });
    }
  }
  for (size_t i = 0; i < participants.size(); ++i) {
    if (fates[i] == ClientFate::kDropout) continue;
    AsyncFeeds::Command cmd;
    cmd.round = round;
    cmd.client_id = participants[i];
    cmd.fate = fates[i];
    cmd.weights = strategy_->DownloadFor(cmd.client_id);
    AsyncFeeds::Feed& feed =
        feeds_->feeds[static_cast<size_t>(workers_.owner(cmd.client_id))];
    std::unique_lock<std::mutex> lock(feed.mutex);
    feed.cv.wait(lock, [&feed] {
      return feed.queue.size() < AsyncFeeds::Feed::kMaxDepth;
    });
    feed.queue.push_back(std::move(cmd));
    feed.cv.notify_all();
  }
}

void RemoteCoordinator::FeedLoop(size_t w) {
  AsyncFeeds::Feed& feed = feeds_->feeds[w];
  while (true) {
    AsyncFeeds::Command cmd;
    {
      std::unique_lock<std::mutex> lock(feed.mutex);
      feed.cv.wait(lock, [&feed] { return feed.stop || !feed.queue.empty(); });
      if (feed.queue.empty()) return;  // stop requested, queue drained
      cmd = std::move(feed.queue.front());
      feed.queue.pop_front();
      feed.cv.notify_all();  // wake a producer blocked on the bound
    }
    TraceContext ctx;
    ctx.trace_id = trace_id_;
    ctx.round = cmd.round;
    ScopedTraceContext adopt(ctx);
    net::TrainResponseMsg resp;
    ClientOutcome outcome;
    outcome.status = workers_.TrainClient(
        cmd.round, cmd.client_id, std::move(cmd.weights), &fleet_, &resp);
    if (outcome.status.ok()) outcome = ToOutcome(cmd.client_id, resp);
    (*feeds_->done)(cmd.round, cmd.client_id, cmd.fate, std::move(outcome));
  }
}

void RemoteCoordinator::StopFeeds() {
  if (feeds_ == nullptr) return;
  for (AsyncFeeds::Feed& feed : feeds_->feeds) {
    std::lock_guard<std::mutex> lock(feed.mutex);
    feed.stop = true;
    feed.cv.notify_all();
  }
  for (std::thread& t : feeds_->threads) t.join();
  feeds_.reset();
}

Status RemoteCoordinator::Evaluate(int /*round*/, fed::ClientAccuracies* acc) {
  workers_.EvalClients([this](int id) { return strategy_->DownloadFor(id); },
                       &fleet_, &acc->test, &acc->val, &acc->evaluated);
  return OkStatus();
}

std::string RemoteCoordinator::RenderStatus(const std::string& command) const {
  if (command == "metrics.json") return GlobalMetrics().ToJson();
  if (command == "metrics") return GlobalMetrics().ToText();
  if (command == "timeline") return GlobalTimeline().ToJsonLines();

  // Default: the human-readable "status" summary.
  std::string out = "fedgta server status\n";
  out += StrFormat("round: %d/%d\n", GlobalTimeline().current_round(),
                   config_.sim.rounds);
  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    if (fleet_status_.empty()) {
      out += "workers: handshake in progress\n";
    } else {
      out += StrFormat("workers: %zu\n", fleet_status_.size()) +
             RenderWorkerRows(fleet_status_, /*index_base=*/0);
    }
  }
  out += fed::RoundLatencyStatus();
  // Wire plane (DESIGN.md §5j): where the round bytes actually go, and
  // what compression is buying. bytes_raw counts what the same traffic
  // would have cost uncompressed, so ratio = raw/wire (1.00 when no codec
  // is engaged).
  {
    std::string plane;
    const Counter* wire = GlobalMetrics().FindCounter("net.bytes_wire");
    const Counter* raw = GlobalMetrics().FindCounter("net.bytes_raw");
    if (wire != nullptr && wire->value() > 0) {
      const int64_t wire_bytes = wire->value();
      const int64_t raw_bytes = raw != nullptr ? raw->value() : wire_bytes;
      plane += StrFormat("  net.bytes_wire: %lld\n",
                         static_cast<long long>(wire_bytes));
      plane += StrFormat("  net.bytes_raw: %lld\n",
                         static_cast<long long>(raw_bytes));
      plane += StrFormat("  compression_ratio: %.2fx (%lld bytes saved)\n",
                         static_cast<double>(raw_bytes) /
                             static_cast<double>(wire_bytes),
                         static_cast<long long>(raw_bytes - wire_bytes));
    }
    plane += GlobalMetrics().CounterLines(
        {"net.bytes_sent.TrainRequest", "net.bytes_sent.TrainResponse",
         "net.bytes_sent.EvalRequest", "net.bytes_sent.EvalResponse",
         "net.bytes_sent.AssignConfig", "net.bytes_sent.ConfigAck"},
        /*skip_zero=*/true);
    plane += GlobalMetrics().HistogramLines({"net.compress.seconds"});
    if (!plane.empty()) {
      out += StrFormat("net (compress=%s):\n", config_.compress.c_str()) +
             plane;
    }
  }
  // Similarity/aggregation plane counters (DESIGN.md §5h) — present once
  // the first FedGTA aggregation has run.
  out += SimilarityPlaneStatus();
  // Async runtime plane (DESIGN.md §5i) — present when running --async.
  if (config_.sim.async) {
    std::string plane = GlobalMetrics().CounterLines(
        {"fed.async.admitted", "fed.async.stale_dropped",
         "fed.async.superseded", "fed.async.undelivered"});
    if (const Gauge* g = GlobalMetrics().FindGauge("fed.async.queue_depth");
        g != nullptr) {
      plane += StrFormat("  fed.async.queue_depth: %.0f\n", g->value());
    }
    if (!plane.empty()) {
      out += StrFormat("async (tau=%d, decay=%.2f):\n",
                       config_.sim.staleness_tau,
                       config_.sim.staleness_decay) +
             plane;
    }
  }
  return out;
}

}  // namespace fedgta
