#include "fed/aggregator.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
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
  Result<net::RoutedMsg> HandleSignatureExchange(const net::RoutedMsg& req);
  Result<net::RoutedMsg> HandleCandidatePairs(const net::RoutedMsg& req);
  Result<net::RoutedMsg> HandleMomentFetch(const net::RoutedMsg& req);
  Result<net::RoutedMsg> HandleSetBuild(const net::RoutedMsg& req);
  Result<net::RoutedMsg> HandlePartialAggregate(const net::RoutedMsg& req);
  Result<net::RoutedMsg> HandleGroupDeliver(const net::RoutedMsg& req);
  Result<net::RoutedMsg> HandleEvalShard(const net::RoutedMsg& req);

  /// Weight source for train/eval dispatch: the root's relayed download,
  /// or this shard's slice of the personalized table.
  WorkerFleet::WeightsFn WeightsFor(
      std::shared_ptr<const std::vector<float>> relayed) const;

  AggregatorOptions options_;
  net::Socket sock_;
  ShardAssignBody assign_;
  ShardRange shard_;
  bool relay_ = false;
  WorkerSetup setup_;
  FedGtaOptions gta_;  // server-side Eq. 6/7 knobs, root overrides applied
  std::unique_ptr<ShardPlane> plane_;
  WorkerFleet fleet_;
  int64_t param_count_ = -1;
  net::StatusServer status_;
  FleetMetricsMerger merger_{&GlobalMetrics(), "worker"};
  MetricsDeltaEncoder encoder_{&GlobalMetrics()};

  /// Shard slice of the personalized parameter table (FedGTA plane only),
  /// indexed by client id - shard_.begin. Seeded by InitModel, updated by
  /// local-set aggregation and GroupDeliver — the sharded counterpart of
  /// FedGtaStrategy's full table.
  std::vector<std::vector<float>> personal_;

  // --- per-round Eq. 6/7 exchange state ---
  ShardPlane::Candidates candidates_;
  bool candidates_ready_ = false;
  /// SetReport order -> staged global ids owning that cross-shard set.
  std::vector<std::vector<int>> cross_rows_;

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
  relay_ = assign_.relay;

  if (!relay_) {
    // The worker config carries the client-side Eq. 3-5 knobs; the root
    // ships its server-side Eq. 6/7 settings separately, exactly as the
    // flat server would have kept them.
    gta_ = setup_.gta;
    gta_.epsilon = assign_.epsilon;
    gta_.disable_confidence = assign_.disable_confidence;
    gta_.similarity.mode =
        static_cast<SimilarityMode>(assign_.similarity_mode);
    gta_.similarity.lsh_signature_bits = assign_.lsh_signature_bits;
    gta_.similarity.lsh_margin = assign_.lsh_margin;
    gta_.similarity.lsh_seed = assign_.lsh_seed;
    gta_.similarity.auto_lsh_min_participants =
        assign_.auto_lsh_min_participants;
    plane_ = std::make_unique<ShardPlane>(n_clients, shard_, gta_,
                                          setup_.data.train_sizes());
  }

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

WorkerFleet::WeightsFn Session::WeightsFor(
    std::shared_ptr<const std::vector<float>> relayed) const {
  if (relay_) {
    return [relayed](int) { return *relayed; };
  }
  return [this](int client_id) {
    return personal_[static_cast<size_t>(client_id - shard_.begin)];
  };
}

Result<net::RoutedMsg> Session::HandleInitModel(const net::RoutedMsg& req) {
  if (relay_) {
    return InvalidArgumentError("InitModel is a FedGTA-plane envelope");
  }
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
  if (relay_) {
    if (static_cast<int64_t>(body.global_params.size()) != param_count_) {
      return InvalidArgumentError("relayed download length mismatch");
    }
  } else if (personal_.empty()) {
    return InvalidArgumentError("TrainShard before InitModel");
  }

  std::vector<int> participants(body.participants.begin(),
                                body.participants.end());
  std::vector<ClientFate> fates;
  fates.reserve(n);
  for (uint32_t fate : body.fates) {
    fates.push_back(static_cast<ClientFate>(fate));
  }
  const WorkerFleet::WeightsFn weights_for =
      WeightsFor(std::make_shared<const std::vector<float>>(
          std::move(body.global_params)));
  std::vector<net::TrainResponseMsg> responses;
  std::vector<Status> rpc_status;
  {
    // Closes before the metrics delta is cut below, so this round's own
    // dispatch increments ship with this reply (see the worker runner).
    FEDGTA_PHASE_SCOPE("shard_train");
    fleet_.TrainRound(req.round, participants, fates, weights_for, &merger_,
                      &responses, &rpc_status);
  }

  TrainShardDoneBody done;
  done.rpc_ok.reserve(n);
  done.seconds.reserve(n);
  done.losses.reserve(n);
  done.num_samples.reserve(n);
  done.confidences.reserve(n);
  if (relay_) done.weights.resize(n);
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
    if (relay_) {
      done.weights[i] = std::move(resp.weights);
    } else {
      ShardUpload up;
      up.client_id = participants[i];
      up.params = std::move(resp.weights);
      up.moments = std::move(resp.moments);
      up.confidence = resp.confidence;
      uploads.push_back(std::move(up));
    }
  }
  if (!relay_) {
    plane_->StageRound(std::move(uploads));
    candidates_ = ShardPlane::Candidates();
    candidates_ready_ = false;
    cross_rows_.clear();
  }
  net::RoutedMsg reply = MakeEnvelope(EK::kTrainShardDone, req.round, done);
  reply.metrics = encoder_.Next();
  return reply;
}

Result<net::RoutedMsg> Session::HandleSignatureExchange(
    const net::RoutedMsg& req) {
  if (relay_) {
    return InvalidArgumentError("SignatureExchange in relay mode");
  }
  SignatureBlockBody block;
  block.rows = static_cast<int64_t>(plane_->staged().size());
  block.words = LshShapeFor(gta_.epsilon, gta_.similarity).words;
  block.signatures = plane_->Signatures();
  return MakeEnvelope(EK::kSignatureBlock, req.round, block);
}

Result<net::RoutedMsg> Session::HandleCandidatePairs(
    const net::RoutedMsg& req) {
  if (relay_) {
    return InvalidArgumentError("CandidatePairs in relay mode");
  }
  CandidatePairsBody frame;
  FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(req, EK::kCandidatePairs, &frame));
  if (frame.survivors.size() != frame.confidences.size()) {
    return InvalidArgumentError("survivor frame misaligned");
  }
  if (frame.use_lsh) {
    const LshShape shape = LshShapeFor(gta_.epsilon, gta_.similarity);
    if (frame.words != shape.words ||
        frame.signatures.size() !=
            frame.survivors.size() * static_cast<size_t>(shape.words)) {
      return InvalidArgumentError("survivor signature block misshapen");
    }
  }
  plane_->InstallGlobalFrame(
      std::vector<int>(frame.survivors.begin(), frame.survivors.end()),
      std::move(frame.confidences), std::move(frame.signatures));
  candidates_ = plane_->ComputeCandidates(frame.use_lsh);
  candidates_ready_ = true;
  CandidateWantsBody wants;
  wants.wanted.assign(candidates_.remote_wanted.begin(),
                      candidates_.remote_wanted.end());
  wants.pairs_exact = candidates_.pairs_exact;
  wants.pairs_pruned = candidates_.pairs_pruned;
  return MakeEnvelope(EK::kCandidateWants, req.round, wants);
}

Result<net::RoutedMsg> Session::HandleMomentFetch(const net::RoutedMsg& req) {
  if (relay_) {
    return InvalidArgumentError("MomentFetch in relay mode");
  }
  MomentFetchBody body;
  FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(req, EK::kMomentFetch, &body));
  const std::vector<int>& staged = plane_->staged();
  std::vector<int> ids;
  ids.reserve(body.ids.size());
  for (int32_t id : body.ids) {
    if (!std::binary_search(staged.begin(), staged.end(), id)) {
      return InvalidArgumentError("moment fetch for unstaged client " +
                                  std::to_string(id));
    }
    ids.push_back(id);
  }
  MomentBlockBody block;
  block.rows = plane_->ExportRows(ids);
  return MakeEnvelope(EK::kMomentBlock, req.round, block);
}

Result<net::RoutedMsg> Session::HandleSetBuild(const net::RoutedMsg& req) {
  if (relay_) {
    return InvalidArgumentError("SetBuild in relay mode");
  }
  if (!candidates_ready_) {
    return InvalidArgumentError("SetBuild before CandidatePairs");
  }
  SetBuildBody body;
  FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(req, EK::kSetBuild, &body));
  if (body.ids.size() != body.rows.size()) {
    return InvalidArgumentError("remote row block misaligned");
  }
  plane_->InstallRemoteRows(
      std::vector<int>(body.ids.begin(), body.ids.end()),
      std::move(body.rows));
  const std::vector<std::vector<int>> sets = plane_->BuildSets(candidates_);
  const std::vector<int>& staged = plane_->staged();

  // Shard-local dedup, mirroring the single-server canonical-set keying:
  // a set wholly inside the shard can only be owned by this shard's rows,
  // so aggregating it here (WeightSum + ascending Axpy = the single-server
  // stream) is globally correct. Boundary-crossing sets go up canonical,
  // deduplicated per shard, in first-appearance order.
  std::map<std::vector<int32_t>, std::vector<int>> local_groups;
  std::map<std::vector<int32_t>, size_t> cross_index;
  SetReportBody report;
  cross_rows_.clear();
  for (size_t a = 0; a < sets.size(); ++a) {
    std::vector<int32_t> canonical(sets[a].begin(), sets[a].end());
    std::sort(canonical.begin(), canonical.end());
    bool local = true;
    for (int32_t j : canonical) {
      if (!shard_.contains(j)) {
        local = false;
        break;
      }
    }
    if (local) {
      local_groups[canonical].push_back(staged[a]);
    } else {
      auto [it, inserted] = cross_index.emplace(canonical, cross_rows_.size());
      if (inserted) {
        report.sets.push_back(canonical);
        cross_rows_.emplace_back();
      }
      cross_rows_[it->second].push_back(staged[a]);
    }
  }
  for (const auto& [canonical, owners] : local_groups) {
    const std::vector<int> members(canonical.begin(), canonical.end());
    const std::vector<float> aggregated = plane_->AggregateLocalSet(members);
    for (int id : owners) {
      personal_[static_cast<size_t>(id - shard_.begin)] = aggregated;
    }
  }
  report.local_unique = static_cast<int64_t>(local_groups.size());
  return MakeEnvelope(EK::kSetReport, req.round, report);
}

Result<net::RoutedMsg> Session::HandlePartialAggregate(
    const net::RoutedMsg& req) {
  if (relay_) {
    return InvalidArgumentError("PartialAggregate in relay mode");
  }
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
  if (relay_) {
    return InvalidArgumentError("GroupDeliver in relay mode");
  }
  GroupDeliverBody body;
  FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(req, EK::kGroupDeliver, &body));
  if (body.report_index.size() != body.params.size()) {
    return InvalidArgumentError("group delivery misaligned");
  }
  for (size_t k = 0; k < body.report_index.size(); ++k) {
    const int64_t ri = body.report_index[k];
    if (ri < 0 || ri >= static_cast<int64_t>(cross_rows_.size())) {
      return InvalidArgumentError("group delivery for an unreported set");
    }
    if (static_cast<int64_t>(body.params[k].size()) != param_count_) {
      return InvalidArgumentError("delivered parameter length mismatch");
    }
    for (int id : cross_rows_[static_cast<size_t>(ri)]) {
      personal_[static_cast<size_t>(id - shard_.begin)] = body.params[k];
    }
  }
  return MakeEnvelope(EK::kGroupAck, req.round);
}

Result<net::RoutedMsg> Session::HandleEvalShard(const net::RoutedMsg& req) {
  EvalShardBody body;
  FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(req, EK::kEvalShard, &body));
  if (relay_) {
    if (static_cast<int64_t>(body.global_params.size()) != param_count_) {
      return InvalidArgumentError("relayed eval download length mismatch");
    }
  } else if (personal_.empty()) {
    return InvalidArgumentError("EvalShard before InitModel");
  }
  const WorkerFleet::WeightsFn weights_for =
      WeightsFor(std::make_shared<const std::vector<float>>(
          std::move(body.global_params)));
  const size_t n = static_cast<size_t>(setup_.data.num_clients());
  std::vector<double> test_acc(n, 0.0);
  std::vector<double> val_acc(n, 0.0);
  std::vector<char> evaluated(n, 0);
  {
    FEDGTA_PHASE_SCOPE("shard_eval");
    fleet_.EvalClients(weights_for, &merger_, &test_acc, &val_acc, &evaluated);
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
    case EK::kSignatureExchange:
      return HandleSignatureExchange(req);
    case EK::kCandidatePairs:
      return HandleCandidatePairs(req);
    case EK::kMomentFetch:
      return HandleMomentFetch(req);
    case EK::kSetBuild:
      return HandleSetBuild(req);
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
  out += StrFormat("aggregator: %d/%d shard=[%d,%d) relay=%s\n",
                   assign_.agg_index, assign_.num_aggregators, shard_.begin,
                   shard_.end, relay_ ? "yes" : "no");
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
