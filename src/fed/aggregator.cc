#include "fed/aggregator.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "fed/hierarchy.h"
#include "fed/remote_config.h"
#include "fed/shard_plane.h"
#include "fed/worker_fleet.h"
#include "net/status.h"
#include "obs/metrics.h"
#include "obs/metrics_delta.h"
#include "obs/phase.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fedgta {
namespace fed {
namespace {

using net::Complain;

/// Publishes "<worker_port>\n<agg_index>\n" atomically (tmp + rename), so
/// a launcher polling the path never reads a half-written file.
Status WritePortFile(const std::string& path, int port, int agg_index) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return InternalError("cannot write port file '" + tmp + "'");
    }
    out << port << "\n" << agg_index << "\n";
    out.flush();
    if (!out) {
      return InternalError("cannot write port file '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return InternalError("cannot publish port file '" + path + "'");
  }
  return OkStatus();
}

/// One connected aggregator lifetime: handshake up, fleet down, then the
/// routed serve loop until the root's Shutdown.
class Session {
 public:
  explicit Session(const AggregatorOptions& options) : options_(options) {}

  Status Run();

 private:
  using EK = net::EnvelopeKind;

  Status Handshake();
  std::string RenderStatus(const std::string& command) const;

  Result<net::RoutedMsg> HandleRouted(const net::RoutedMsg& req);
  Result<net::RoutedMsg> HandleInitModel(const net::RoutedMsg& req);
  Result<net::RoutedMsg> HandleTrainShard(const net::RoutedMsg& req);
  Result<net::RoutedMsg> HandlePartialAggregate(const net::RoutedMsg& req);
  Result<net::RoutedMsg> HandleGroupDeliver(const net::RoutedMsg& req);
  Result<net::RoutedMsg> HandleEvalShard(const net::RoutedMsg& req);

  /// Weight source for train/eval dispatch: this shard's table.
  WorkerFleet::WeightsFn WeightsFor() const;

  AggregatorOptions options_;
  net::Socket sock_;
  ShardAssignBody assign_;
  ShardRange shard_;
  WorkerSetup setup_;
  std::unique_ptr<ShardPlane> plane_;
  WorkerFleet fleet_;
  int64_t param_count_ = -1;
  net::StatusServer status_;
  FleetMetricsMerger merger_{&GlobalMetrics(), "worker"};
  MetricsDeltaEncoder encoder_{&GlobalMetrics()};

  /// Shard slice of the parameter table, one vector per shard client,
  /// indexed by client id - shard_.begin. Seeded by InitModel, updated by
  /// GroupDeliver — the sharded counterpart of FedGtaStrategy's
  /// personalized table, and of the one global vector of fedavg/fedprox.
  std::vector<std::vector<float>> personal_;

  /// Last processed routed request and its reply: RpcChannel::Call
  /// re-sends a request whose reply send failed, and re-running TrainShard
  /// (or any staging phase) would fork the deterministic state. The root
  /// sends each (kind, round) at most once, so equality means duplicate;
  /// the cached reply's metrics delta re-merges idempotently (stale seq).
  bool has_memo_ = false;
  uint32_t memo_kind_ = 0;
  int32_t memo_round_ = -1;
  net::RoutedMsg memo_reply_;
};

Status Session::Handshake() {
  Result<net::Socket> dialed =
      net::ConnectWithRetry(options_.host, options_.port, options_.rpc);
  FEDGTA_RETURN_IF_ERROR(dialed.status());
  sock_ = std::move(*dialed);
  FEDGTA_RETURN_IF_ERROR(sock_.SetRecvTimeout(options_.rpc.deadline_ms));

  net::HelloMsg hello;
  hello.t_send_us = internal_obs::TraceNowMicros();
  hello.node_role = static_cast<uint32_t>(net::NodeRole::kAggregator);
  FEDGTA_RETURN_IF_ERROR(net::SendMessage(sock_, hello));
  net::RoutedMsg assigned;
  FEDGTA_RETURN_IF_ERROR(net::ExpectMessage(sock_, &assigned));
  const int64_t t3 = internal_obs::TraceNowMicros();
  if (Status unpacked = UnpackEnvelope(assigned, EK::kShardAssign, &assign_);
      !unpacked.ok()) {
    return Complain(sock_, std::move(unpacked));
  }

  // Same NTP midpoint as the worker handshake: merged timelines land on
  // the root's timebase. Aggregators own pids 2..K+1; their workers start
  // at K+2 (worker_index_base keeps the global worker index unique).
  SetTraceClockOffset(((assign_.hello_recv_us - hello.t_send_us) +
                       (assign_.assign_send_us - t3)) /
                      2);
  SetTraceProcessId(assign_.agg_index + 2);
  SetTraceProcessName("fedgta_aggregator_" +
                      std::to_string(assign_.agg_index));

  if (Status parsed = SetupFromWireConfig(assign_.config, &setup_);
      !parsed.ok()) {
    return Complain(sock_, std::move(parsed));
  }
  const int n_clients = setup_.data.num_clients();
  if (assign_.shard_begin < 0 || assign_.shard_begin >= assign_.shard_end ||
      assign_.shard_end > n_clients) {
    return Complain(sock_, InvalidArgumentError(
                               "assigned shard [" +
                               std::to_string(assign_.shard_begin) + ", " +
                               std::to_string(assign_.shard_end) +
                               ") outside [0, " + std::to_string(n_clients) +
                               ")"));
  }
  shard_ = ShardRange{assign_.shard_begin, assign_.shard_end};
  if (assign_.num_workers < 1 || assign_.num_workers > shard_.size()) {
    return Complain(sock_, InvalidArgumentError(
                               "worker slice must be in [1, shard size]"));
  }
  if (assign_.worker_index_base < 0) {
    return Complain(sock_,
                    InvalidArgumentError("worker_index_base must be >= 0"));
  }
  plane_ = std::make_unique<ShardPlane>(shard_, assign_.disable_confidence,
                                        setup_.data.train_sizes());

  Result<net::ServerSocket> listener =
      net::ServerSocket::Listen(options_.listen_port, assign_.num_workers + 8);
  FEDGTA_RETURN_IF_ERROR(listener.status());
  net::ServerSocket server = std::move(*listener);
  if (!options_.port_file.empty()) {
    FEDGTA_RETURN_IF_ERROR(
        WritePortFile(options_.port_file, server.port(), assign_.agg_index));
  }

  // Shard client id -> local worker, round-robin inside the shard — the
  // same dealing rule the flat server uses over the whole client space.
  std::vector<std::vector<int>> ownership(
      static_cast<size_t>(assign_.num_workers));
  for (int id = shard_.begin; id < shard_.end; ++id) {
    ownership[static_cast<size_t>((id - shard_.begin) % assign_.num_workers)]
        .push_back(id);
  }
  WorkerFleetOptions fleet_options;
  fleet_options.wire = assign_.config;
  fleet_options.compress = assign_.compress;
  fleet_options.compress_topk = assign_.compress_topk;
  fleet_options.rpc.deadline_ms = assign_.rpc_deadline_ms;
  fleet_options.rpc.max_attempts = assign_.rpc_max_attempts;
  fleet_options.rpc.backoff_ms = assign_.rpc_backoff_ms;
  fleet_options.accept_timeout_ms = assign_.accept_timeout_ms;
  fleet_options.worker_index_base = assign_.worker_index_base;
  if (Status accepted =
          fleet_.Accept(server, n_clients, ownership, fleet_options);
      !accepted.ok()) {
    return Complain(sock_, std::move(accepted));
  }
  param_count_ = fleet_.param_count();

  if (options_.status_port >= 0) {
    FEDGTA_RETURN_IF_ERROR(status_.Bind(options_.status_port));
    status_.Start([this](const std::string& cmd) { return RenderStatus(cmd); });
  }

  ShardReadyBody ready;
  ready.param_count = param_count_;
  ready.init_params = fleet_.init_params();
  ready.status_port = status_.bound() ? status_.port() : -1;
  FEDGTA_RETURN_IF_ERROR(
      net::SendMessage(sock_, MakeEnvelope(EK::kShardReady, 0, ready)));
  return sock_.SetRecvTimeout(options_.idle_timeout_ms);
}

WorkerFleet::WeightsFn Session::WeightsFor() const {
  return [this](int client_id) {
    return personal_[static_cast<size_t>(client_id - shard_.begin)];
  };
}

Result<net::RoutedMsg> Session::HandleInitModel(const net::RoutedMsg& req) {
  InitModelBody body;
  FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(req, EK::kInitModel, &body));
  if (static_cast<int64_t>(body.params.size()) != param_count_) {
    return InvalidArgumentError("InitModel parameter length mismatch");
  }
  personal_.assign(static_cast<size_t>(shard_.size()), body.params);
  return MakeEnvelope(EK::kGroupAck, req.round);
}

Result<net::RoutedMsg> Session::HandleTrainShard(const net::RoutedMsg& req) {
  TrainShardBody body;
  FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(req, EK::kTrainShard, &body));
  const size_t n = body.participants.size();
  if (n == 0 || body.fates.size() != n) {
    return InvalidArgumentError("train shard request misaligned");
  }
  int prev = shard_.begin - 1;
  for (int32_t id : body.participants) {
    if (!shard_.contains(id) || id <= prev) {
      return InvalidArgumentError(
          "participants must be ascending ids inside the shard");
    }
    prev = id;
  }
  for (uint32_t fate : body.fates) {
    if (fate > static_cast<uint32_t>(ClientFate::kCrash)) {
      return InvalidArgumentError("unknown client fate " +
                                  std::to_string(fate));
    }
  }
  if (personal_.empty()) {
    return InvalidArgumentError("TrainShard before InitModel");
  }

  std::vector<int> participants(body.participants.begin(),
                                body.participants.end());
  std::vector<ClientFate> fates;
  fates.reserve(n);
  for (uint32_t fate : body.fates) {
    fates.push_back(static_cast<ClientFate>(fate));
  }
  std::vector<net::TrainResponseMsg> responses;
  std::vector<Status> rpc_status;
  {
    // Closes before the metrics delta is cut below, so this round's own
    // dispatch increments ship with this reply (see the worker runner).
    FEDGTA_PHASE_SCOPE("shard_train");
    fleet_.TrainRound(req.round, participants, fates, WeightsFor(), &merger_,
                      &responses, &rpc_status);
  }

  TrainShardDoneBody done;
  done.rpc_ok.reserve(n);
  done.seconds.reserve(n);
  done.losses.reserve(n);
  done.num_samples.reserve(n);
  done.confidences.reserve(n);
  done.moments.resize(n);
  std::vector<ShardUpload> uploads;
  for (size_t i = 0; i < n; ++i) {
    const bool ok = rpc_status[i].ok();
    net::TrainResponseMsg& resp = responses[i];
    done.rpc_ok.push_back(ok ? 1 : 0);
    done.seconds.push_back(resp.seconds);
    done.losses.push_back(resp.loss);
    done.num_samples.push_back(resp.num_samples);
    done.confidences.push_back(resp.confidence);
    if (!ok || fates[i] != ClientFate::kHealthy) continue;
    // Shard slice of the base Strategy::RoundCommunication formula over
    // the survivor results — integer adds, so the root's shard-order sum
    // equals the single-server total.
    done.download_floats += static_cast<int64_t>(resp.weights.size());
    done.upload_floats += static_cast<int64_t>(resp.weights.size()) +
                          static_cast<int64_t>(resp.moments.size()) +
                          (resp.moments.empty() ? 0 : 1);
    done.moments[i] = std::move(resp.moments);
    ShardUpload up;
    up.client_id = participants[i];
    up.params = std::move(resp.weights);
    up.confidence = resp.confidence;
    uploads.push_back(std::move(up));
  }
  plane_->StageRound(std::move(uploads));
  net::RoutedMsg reply = MakeEnvelope(EK::kTrainShardDone, req.round, done);
  reply.metrics = encoder_.Next();
  return reply;
}

Result<net::RoutedMsg> Session::HandlePartialAggregate(
    const net::RoutedMsg& req) {
  PartialAggregateBody body;
  FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(req, EK::kPartialAggregate, &body));
  PartialBlockBody block;
  block.accs.reserve(body.sets.size());
  for (PartialSet& set : body.sets) {
    if (static_cast<int64_t>(set.acc.size()) != param_count_) {
      return InvalidArgumentError("partial accumulator length mismatch");
    }
    const std::vector<int> canonical(set.canonical.begin(),
                                     set.canonical.end());
    plane_->AccumulatePartial(canonical, set.weight_sum, &set.acc);
    block.accs.push_back(std::move(set.acc));
  }
  return MakeEnvelope(EK::kPartialBlock, req.round, block);
}

Result<net::RoutedMsg> Session::HandleGroupDeliver(const net::RoutedMsg& req) {
  GroupDeliverBody body;
  FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(req, EK::kGroupDeliver, &body));
  if (body.group_of.size() != personal_.size()) {
    return InvalidArgumentError("group delivery misaligned with the shard");
  }
  // Validate the whole delivery before touching the table: a local set is
  // aggregated here, so every member must be staged on this shard.
  for (size_t k = 0; k < body.params.size(); ++k) {
    for (int32_t j : body.local_sets[k]) {
      if (!plane_->IsStaged(j)) {
        return InvalidArgumentError("local set member " + std::to_string(j) +
                                    " is not staged on this shard");
      }
    }
    if (!body.params[k].empty() &&
        static_cast<int64_t>(body.params[k].size()) != param_count_) {
      return InvalidArgumentError("delivered parameter length mismatch");
    }
  }
  for (size_t k = 0; k < body.params.size(); ++k) {
    if (body.params[k].empty()) {
      body.params[k] = plane_->AggregateLocalSet(std::vector<int>(
          body.local_sets[k].begin(), body.local_sets[k].end()));
    }
  }
  for (size_t r = 0; r < personal_.size(); ++r) {
    if (body.group_of[r] >= 0) {
      personal_[r] = body.params[static_cast<size_t>(body.group_of[r])];
    }
  }
  return MakeEnvelope(EK::kGroupAck, req.round);
}

Result<net::RoutedMsg> Session::HandleEvalShard(const net::RoutedMsg& req) {
  if (personal_.empty()) {
    return InvalidArgumentError("EvalShard before InitModel");
  }
  const size_t n = static_cast<size_t>(setup_.data.num_clients());
  std::vector<double> test_acc(n, 0.0);
  std::vector<double> val_acc(n, 0.0);
  std::vector<char> evaluated(n, 0);
  {
    FEDGTA_PHASE_SCOPE("shard_eval");
    fleet_.EvalClients(WeightsFor(), &merger_, &test_acc, &val_acc,
                       &evaluated);
  }
  EvalShardDoneBody done;
  const size_t rows = static_cast<size_t>(shard_.size());
  done.ids.reserve(rows);
  done.test_accuracy.reserve(rows);
  done.val_accuracy.reserve(rows);
  done.evaluated.reserve(rows);
  for (int id = shard_.begin; id < shard_.end; ++id) {
    done.ids.push_back(id);
    done.test_accuracy.push_back(test_acc[static_cast<size_t>(id)]);
    done.val_accuracy.push_back(val_acc[static_cast<size_t>(id)]);
    done.evaluated.push_back(evaluated[static_cast<size_t>(id)] ? 1 : 0);
  }
  net::RoutedMsg reply = MakeEnvelope(EK::kEvalShardDone, req.round, done);
  reply.metrics = encoder_.Next();
  return reply;
}

Result<net::RoutedMsg> Session::HandleRouted(const net::RoutedMsg& req) {
  switch (static_cast<EK>(req.kind)) {
    case EK::kInitModel:
      return HandleInitModel(req);
    case EK::kTrainShard:
      return HandleTrainShard(req);
    case EK::kPartialAggregate:
      return HandlePartialAggregate(req);
    case EK::kGroupDeliver:
      return HandleGroupDeliver(req);
    case EK::kEvalShard:
      return HandleEvalShard(req);
    default:
      return InvalidArgumentError(
          std::string("unexpected envelope: ") +
          net::EnvelopeKindName(static_cast<EK>(req.kind)));
  }
}

Status Session::Run() {
  FEDGTA_RETURN_IF_ERROR(Handshake());
  while (true) {
    Result<serialize::Reader> reader = net::RecvMessage(sock_);
    FEDGTA_RETURN_IF_ERROR(reader.status());
    // Adopt the root's trace envelope for the whole handling scope: spans
    // recorded here (and re-installed on fleet dispatch threads) chain to
    // the root's round span, and the reply echoes the context back.
    TraceContext request_ctx;
    Result<net::MsgType> type = net::ReadMsgType(&*reader, &request_ctx);
    FEDGTA_RETURN_IF_ERROR(type.status());
    ScopedTraceContext adopt(request_ctx);
    switch (*type) {
      case net::MsgType::kRouted: {
        net::RoutedMsg req;
        FEDGTA_RETURN_IF_ERROR(req.Decode(&*reader));
        if (!reader->AtEnd()) {
          return Complain(
              sock_, InvalidArgumentError("trailing bytes after envelope"));
        }
        if (has_memo_ && req.kind == memo_kind_ && req.round == memo_round_) {
          FEDGTA_RETURN_IF_ERROR(net::SendMessage(sock_, memo_reply_));
          break;
        }
        Result<net::RoutedMsg> reply = HandleRouted(req);
        if (!reply.ok()) return Complain(sock_, reply.status());
        has_memo_ = true;
        memo_kind_ = req.kind;
        memo_round_ = req.round;
        memo_reply_ = std::move(*reply);
        FEDGTA_RETURN_IF_ERROR(net::SendMessage(sock_, memo_reply_));
        break;
      }
      case net::MsgType::kShutdown: {
        fleet_.Shutdown();
        net::ShutdownAckMsg bye;
        FEDGTA_RETURN_IF_ERROR(net::SendMessage(sock_, bye));
        return OkStatus();
      }
      default:
        return Complain(
            sock_, InvalidArgumentError(std::string("unexpected message: ") +
                                        net::MsgTypeName(*type)));
    }
  }
}

std::string Session::RenderStatus(const std::string& command) const {
  if (command == "metrics.json") return GlobalMetrics().ToJson();
  if (command == "metrics") return GlobalMetrics().ToText();
  if (command == "timeline") return GlobalTimeline().ToJsonLines();

  std::string out = "fedgta aggregator status\n";
  out += StrFormat("aggregator: %d/%d shard=[%d,%d)\n", assign_.agg_index,
                   assign_.num_aggregators, shard_.begin, shard_.end);
  const std::vector<WorkerStatusEntry> fleet = fleet_.StatusSnapshot();
  out += StrFormat("workers: %zu (global base %d)\n", fleet.size(),
                   assign_.worker_index_base);
  out += RenderWorkerRows(fleet, assign_.worker_index_base);
  out += "latencies:\n" + GlobalMetrics().HistogramLines(
                              {"net.rpc.seconds", "phase.shard_train.seconds",
                               "fleet.phase.remote_train.seconds"});
  return out;
}

}  // namespace

RegionalAggregator::RegionalAggregator(const AggregatorOptions& options)
    : options_(options) {}

Status RegionalAggregator::Run() {
  Session session(options_);
  return session.Run();
}

}  // namespace fed
}  // namespace fedgta
