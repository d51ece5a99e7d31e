#include "fed/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/similarity.h"
#include "fed/failure.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fedgta {
namespace fed {
namespace {

/// Widest LSH signature a ShardAssign may ask for (bounds the d x bits
/// projection an aggregator allocates; the default is 256).
constexpr int32_t kMaxLshSignatureBits = 4096;

// Length-prefixed lists of what serialize.h writes natively (it has no
// u32/u64-vector or vector-of-vectors primitive): a u64 count, then the
// elements. Put/Get pick the element codec by type.
void Put(serialize::Writer* w, uint32_t x) { w->WriteU32(x); }
void Put(serialize::Writer* w, uint64_t x) { w->WriteU64(x); }
void Put(serialize::Writer* w, const std::vector<float>& x) {
  w->WriteFloatVec(x);
}
void Put(serialize::Writer* w, const std::vector<int32_t>& x) {
  w->WriteI32Vec(x);
}
Status Get(serialize::Reader* r, uint32_t* x) { return r->ReadU32(x); }
Status Get(serialize::Reader* r, uint64_t* x) { return r->ReadU64(x); }
Status Get(serialize::Reader* r, std::vector<float>* x) {
  return r->ReadFloatVec(x);
}
Status Get(serialize::Reader* r, std::vector<int32_t>* x) {
  return r->ReadI32Vec(x);
}

template <typename T>
void WriteList(const std::vector<T>& v, serialize::Writer* w) {
  w->WriteU64(v.size());
  for (const T& x : v) Put(w, x);
}

template <typename T>
Status ReadList(serialize::Reader* r, std::vector<T>* out) {
  // Bound the count by the bytes left before allocating: every element
  // takes at least its own size (scalars) or its u64 length prefix.
  constexpr size_t kMinBytes =
      std::is_arithmetic_v<T> ? sizeof(T) : sizeof(uint64_t);
  uint64_t n = 0;
  FEDGTA_RETURN_IF_ERROR(r->ReadU64(&n));
  if (n > r->remaining() / kMinBytes) {
    return InvalidArgumentError("truncated list");
  }
  out->resize(n);
  for (T& x : *out) FEDGTA_RETURN_IF_ERROR(Get(r, &x));
  return OkStatus();
}

}  // namespace

void ShardAssignBody::Encode(serialize::Writer* w) const {
  config.Encode(w);
  w->WriteI32(agg_index);
  w->WriteI32(num_aggregators);
  w->WriteI32(shard_begin);
  w->WriteI32(shard_end);
  w->WriteI32(num_workers);
  w->WriteI32(worker_index_base);
  w->WriteString(compress);
  w->WriteI32(compress_topk);
  w->WriteI32(rpc_deadline_ms);
  w->WriteI32(rpc_max_attempts);
  w->WriteI32(rpc_backoff_ms);
  w->WriteI32(accept_timeout_ms);
  w->WriteBool(relay);
  w->WriteDouble(epsilon);
  w->WriteBool(disable_confidence);
  w->WriteU32(similarity_mode);
  w->WriteI32(lsh_signature_bits);
  w->WriteDouble(lsh_margin);
  w->WriteU64(lsh_seed);
  w->WriteI32(auto_lsh_min_participants);
  w->WriteI64(hello_recv_us);
  w->WriteI64(assign_send_us);
}

Status ShardAssignBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(config.Decode(r));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&agg_index));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&num_aggregators));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&shard_begin));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&shard_end));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&num_workers));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&worker_index_base));
  FEDGTA_RETURN_IF_ERROR(r->ReadString(&compress));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&compress_topk));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&rpc_deadline_ms));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&rpc_max_attempts));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&rpc_backoff_ms));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&accept_timeout_ms));
  FEDGTA_RETURN_IF_ERROR(r->ReadBool(&relay));
  FEDGTA_RETURN_IF_ERROR(r->ReadDouble(&epsilon));
  FEDGTA_RETURN_IF_ERROR(r->ReadBool(&disable_confidence));
  FEDGTA_RETURN_IF_ERROR(r->ReadU32(&similarity_mode));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&lsh_signature_bits));
  FEDGTA_RETURN_IF_ERROR(r->ReadDouble(&lsh_margin));
  FEDGTA_RETURN_IF_ERROR(r->ReadU64(&lsh_seed));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&auto_lsh_min_participants));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&hello_recv_us));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&assign_send_us));
  // The Eq. 6 knobs size allocations and feed float-to-int casts in
  // LshShapeFor / ComputeLshSignatures: reject what no root would send.
  if (similarity_mode > static_cast<uint32_t>(SimilarityMode::kLsh) ||
      lsh_signature_bits < 1 || lsh_signature_bits > kMaxLshSignatureBits ||
      !std::isfinite(lsh_margin) || lsh_margin < 0.0 ||
      !std::isfinite(epsilon)) {
    return InvalidArgumentError(StrFormat(
        "invalid Eq. 6 settings: similarity_mode %u, lsh_signature_bits %d "
        "(max %d), lsh_margin %g, epsilon %g",
        similarity_mode, lsh_signature_bits, kMaxLshSignatureBits, lsh_margin,
        epsilon));
  }
  return OkStatus();
}

void ShardReadyBody::Encode(serialize::Writer* w) const {
  w->WriteI64(param_count);
  w->WriteFloatVec(init_params);
  w->WriteI32(status_port);
}

Status ShardReadyBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&param_count));
  FEDGTA_RETURN_IF_ERROR(r->ReadFloatVec(&init_params));
  return r->ReadI32(&status_port);
}

void InitModelBody::Encode(serialize::Writer* w) const {
  w->WriteFloatVec(params);
}

Status InitModelBody::Decode(serialize::Reader* r) {
  return r->ReadFloatVec(&params);
}

void TrainShardBody::Encode(serialize::Writer* w) const {
  w->WriteI32Vec(participants);
  WriteList(fates, w);
  w->WriteFloatVec(global_params);
}

Status TrainShardBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&participants));
  FEDGTA_RETURN_IF_ERROR(ReadList(r, &fates));
  return r->ReadFloatVec(&global_params);
}

void TrainShardDoneBody::Encode(serialize::Writer* w) const {
  WriteList(rpc_ok, w);
  w->WriteDoubleVec(seconds);
  w->WriteDoubleVec(losses);
  w->WriteI64Vec(num_samples);
  w->WriteDoubleVec(confidences);
  WriteList(weights, w);
  w->WriteI64(upload_floats);
  w->WriteI64(download_floats);
}

Status TrainShardDoneBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(ReadList(r, &rpc_ok));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&seconds));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&losses));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64Vec(&num_samples));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&confidences));
  FEDGTA_RETURN_IF_ERROR(ReadList(r, &weights));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&upload_floats));
  return r->ReadI64(&download_floats);
}

void SignatureBlockBody::Encode(serialize::Writer* w) const {
  w->WriteI64(rows);
  w->WriteI64(words);
  WriteList(signatures, w);
}

Status SignatureBlockBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&rows));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&words));
  return ReadList(r, &signatures);
}

void CandidatePairsBody::Encode(serialize::Writer* w) const {
  w->WriteI32Vec(survivors);
  w->WriteDoubleVec(confidences);
  w->WriteBool(use_lsh);
  w->WriteI64(words);
  WriteList(signatures, w);
}

Status CandidatePairsBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&survivors));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&confidences));
  FEDGTA_RETURN_IF_ERROR(r->ReadBool(&use_lsh));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&words));
  return ReadList(r, &signatures);
}

void CandidateWantsBody::Encode(serialize::Writer* w) const {
  w->WriteI32Vec(wanted);
  w->WriteI64(pairs_exact);
  w->WriteI64(pairs_pruned);
}

Status CandidateWantsBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&wanted));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&pairs_exact));
  return r->ReadI64(&pairs_pruned);
}

void MomentFetchBody::Encode(serialize::Writer* w) const {
  w->WriteI32Vec(ids);
}

Status MomentFetchBody::Decode(serialize::Reader* r) {
  return r->ReadI32Vec(&ids);
}

void MomentBlockBody::Encode(serialize::Writer* w) const {
  WriteList(rows, w);
}

Status MomentBlockBody::Decode(serialize::Reader* r) {
  return ReadList(r, &rows);
}

void SetBuildBody::Encode(serialize::Writer* w) const {
  w->WriteI32Vec(ids);
  WriteList(rows, w);
}

Status SetBuildBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&ids));
  return ReadList(r, &rows);
}

void SetReportBody::Encode(serialize::Writer* w) const {
  WriteList(sets, w);
  w->WriteI64(local_unique);
}

Status SetReportBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(ReadList(r, &sets));
  return r->ReadI64(&local_unique);
}

void PartialAggregateBody::Encode(serialize::Writer* w) const {
  w->WriteU64(sets.size());
  for (const PartialSet& s : sets) {
    w->WriteI32Vec(s.canonical);
    w->WriteDouble(s.weight_sum);
    w->WriteFloatVec(s.acc);
  }
}

Status PartialAggregateBody::Decode(serialize::Reader* r) {
  uint64_t n = 0;
  FEDGTA_RETURN_IF_ERROR(r->ReadU64(&n));
  if (n > r->remaining() / sizeof(uint64_t)) {
    return InvalidArgumentError("truncated partial-set list");
  }
  sets.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&sets[i].canonical));
    FEDGTA_RETURN_IF_ERROR(r->ReadDouble(&sets[i].weight_sum));
    FEDGTA_RETURN_IF_ERROR(r->ReadFloatVec(&sets[i].acc));
  }
  return OkStatus();
}

void PartialBlockBody::Encode(serialize::Writer* w) const {
  WriteList(accs, w);
}

Status PartialBlockBody::Decode(serialize::Reader* r) {
  return ReadList(r, &accs);
}

void GroupDeliverBody::Encode(serialize::Writer* w) const {
  w->WriteI64Vec(report_index);
  WriteList(params, w);
}

Status GroupDeliverBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI64Vec(&report_index));
  return ReadList(r, &params);
}

void EvalShardBody::Encode(serialize::Writer* w) const {
  w->WriteFloatVec(global_params);
}

Status EvalShardBody::Decode(serialize::Reader* r) {
  return r->ReadFloatVec(&global_params);
}

void EvalShardDoneBody::Encode(serialize::Writer* w) const {
  w->WriteI32Vec(ids);
  w->WriteDoubleVec(test_accuracy);
  w->WriteDoubleVec(val_accuracy);
  WriteList(evaluated, w);
}

Status EvalShardDoneBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&ids));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&test_accuracy));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&val_accuracy));
  return ReadList(r, &evaluated);
}

net::RoutedMsg MakeEnvelope(net::EnvelopeKind kind, int round) {
  net::RoutedMsg msg;
  msg.kind = static_cast<uint32_t>(kind);
  msg.round = round;
  return msg;
}

// ---------------------------------------------------------------------------
// RootCoordinator
// ---------------------------------------------------------------------------

RootCoordinator::RootCoordinator(const RemoteFedConfig& config)
    : config_(config), gta_(config.strategy_options.fedgta) {}

Status RootCoordinator::ValidateConfig() const {
  const int aggs = config_.num_aggregators;
  if (aggs < 1) {
    return InvalidArgumentError(
        "num_aggregators must be >= 1 for the hierarchical root");
  }
  if (aggs > config_.split.num_clients) {
    return InvalidArgumentError(
        "more aggregators than clients: every shard must own at least one");
  }
  if (config_.num_workers < aggs) {
    return InvalidArgumentError(
        "need at least one worker per aggregator");
  }
  if (config_.sim.async) {
    return InvalidArgumentError(
        "the async runtime is not supported with regional aggregators "
        "(DESIGN.md §5k)");
  }
  return ValidateDistributedConfig(config_);
}

Status RootCoordinator::Listen(int port) {
  FEDGTA_RETURN_IF_ERROR(ValidateConfig());
  Result<net::ServerSocket> server =
      net::ServerSocket::Listen(port, config_.num_aggregators + 8);
  FEDGTA_RETURN_IF_ERROR(server.status());
  server_ = std::move(*server);
  // Same bind/start split as the flat coordinator: callers may fork the
  // aggregator processes after Listen(), before any thread exists here.
  if (config_.status_port >= 0) {
    FEDGTA_RETURN_IF_ERROR(status_.Bind(config_.status_port));
  }
  return OkStatus();
}

Status RootCoordinator::Handshake() {
  Result<std::unique_ptr<Strategy>> strategy = MakeRemoteStrategy(config_);
  FEDGTA_RETURN_IF_ERROR(strategy.status());
  const StrategyCapabilities caps = (*strategy)->Capabilities();
  if (!caps.shardable) {
    return FailedPreconditionError(
        "strategy '" + config_.strategy +
        "' cannot shard its aggregation across regional aggregators "
        "(see DESIGN.md §5k)");
  }
  strategy_ = std::move(*strategy);
  relay_ = !caps.uploads_topology_metrics;
  if (!relay_) {
    if (gta_.adaptive_epsilon) {
      return FailedPreconditionError(
          "adaptive epsilon needs the full similarity block and cannot run "
          "sharded (see DESIGN.md §5k)");
    }
    if (gta_.disable_moments) {
      return FailedPreconditionError(
          "disable_moments makes every participant one global set; run the "
          "flat server instead");
    }
  }

  data_ = MaterializeFederatedDataset(config_.dataset, config_.seed,
                                      config_.split, config_.federated);
  // One shard per configured client, so ValidateConfig's aggregator and
  // worker bounds already hold.
  const int n_clients = data_.num_clients();
  train_sizes_ = data_.train_sizes();

  const Topology topo(n_clients, config_.num_aggregators,
                      config_.num_workers);
  const int num_aggs = config_.num_aggregators;
  aggs_.clear();
  aggs_.resize(static_cast<size_t>(num_aggs));
  param_count_ = -1;
  init_params_.clear();
  for (int a = 0; a < num_aggs; ++a) {
    Result<net::Socket> accepted = server_.Accept(config_.accept_timeout_ms);
    FEDGTA_RETURN_IF_ERROR(accepted.status());
    net::RpcChannel channel(std::move(*accepted), config_.rpc);
    net::HelloMsg hello;
    FEDGTA_RETURN_IF_ERROR(net::ExpectMessage(channel.socket(), &hello));
    const int64_t hello_recv_us = internal_obs::TraceNowMicros();
    if (hello.protocol_version != net::kProtocolVersion) {
      return net::Complain(
          channel.socket(),
          FailedPreconditionError(
              "regional aggregators require protocol v" +
              std::to_string(net::kProtocolVersion) + ", peer speaks " +
              std::to_string(hello.protocol_version)));
    }
    if (hello.node_role != static_cast<uint32_t>(net::NodeRole::kAggregator)) {
      return net::Complain(
          channel.socket(),
          FailedPreconditionError(
              "expected an aggregator connection, peer announced role " +
              std::to_string(hello.node_role)));
    }

    AggregatorLink& link = aggs_[static_cast<size_t>(a)];
    link.clients = topo.ClientShard(a);
    link.workers = topo.WorkerShard(a);
    ShardAssignBody assign;
    assign.config = ToWireConfig(config_);
    assign.agg_index = a;
    assign.num_aggregators = num_aggs;
    assign.shard_begin = link.clients.begin;
    assign.shard_end = link.clients.end;
    assign.num_workers = link.workers.size();
    // Worker trace pids / metric namespaces stay globally unique: the
    // aggregators own pids 2..K+1, so global worker g gets index K + g.
    assign.worker_index_base = num_aggs + link.workers.begin;
    assign.compress = config_.compress;
    assign.compress_topk = config_.compress_topk;
    assign.rpc_deadline_ms = config_.rpc.deadline_ms;
    assign.rpc_max_attempts = config_.rpc.max_attempts;
    assign.rpc_backoff_ms = config_.rpc.backoff_ms;
    assign.accept_timeout_ms = config_.accept_timeout_ms;
    assign.relay = relay_;
    assign.epsilon = gta_.epsilon;
    assign.disable_confidence = gta_.disable_confidence;
    assign.similarity_mode = static_cast<uint32_t>(gta_.similarity.mode);
    assign.lsh_signature_bits = gta_.similarity.lsh_signature_bits;
    assign.lsh_margin = gta_.similarity.lsh_margin;
    assign.lsh_seed = gta_.similarity.lsh_seed;
    assign.auto_lsh_min_participants =
        gta_.similarity.auto_lsh_min_participants;
    assign.hello_recv_us = hello_recv_us;
    assign.assign_send_us = internal_obs::TraceNowMicros();

    // The ShardReady reply waits on the aggregator accepting its whole
    // worker slice, so this exchange runs on a stretched deadline (the
    // regular per-RPC budget resumes afterwards).
    const net::RoutedMsg request =
        MakeEnvelope(net::EnvelopeKind::kShardAssign, 0, assign);
    FEDGTA_RETURN_IF_ERROR(net::SendMessage(channel.socket(), request));
    FEDGTA_RETURN_IF_ERROR(channel.socket().SetRecvTimeout(
        config_.accept_timeout_ms + config_.rpc.deadline_ms));
    net::RoutedMsg response;
    FEDGTA_RETURN_IF_ERROR(net::ExpectMessage(channel.socket(), &response));
    FEDGTA_RETURN_IF_ERROR(
        channel.socket().SetRecvTimeout(config_.rpc.deadline_ms));
    ShardReadyBody ready;
    FEDGTA_RETURN_IF_ERROR(
        UnpackEnvelope(response, net::EnvelopeKind::kShardReady, &ready));
    if (param_count_ < 0) param_count_ = ready.param_count;
    if (ready.param_count != param_count_) {
      return FailedPreconditionError(
          "aggregators disagree on the model parameter count");
    }
    if (!ready.init_params.empty()) {
      if (static_cast<int64_t>(ready.init_params.size()) != param_count_) {
        return FailedPreconditionError(
            "init parameter vector length disagrees with the reported count");
      }
      init_params_ = std::move(ready.init_params);
    }
    link.status_port = ready.status_port;
    link.channel = std::move(channel);
  }
  if (init_params_.empty()) {
    return InternalError(
        "no aggregator reported the common initialization (client 0 "
        "unhosted?)");
  }

  if (relay_) {
    strategy_->Initialize(data_.num_clients(), train_sizes_, init_params_);
  } else {
    // Seed every shard's personalized table with client 0's fresh weights —
    // the same common initialization FedGtaStrategy::Initialize installs.
    InitModelBody init;
    init.params = init_params_;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      net::RoutedMsg response;
      FEDGTA_RETURN_IF_ERROR(CallAggregator(
          a, MakeEnvelope(net::EnvelopeKind::kInitModel, 0, init),
          &response));
      if (response.kind != static_cast<uint32_t>(net::EnvelopeKind::kGroupAck)) {
        return InvalidArgumentError("unexpected InitModel reply");
      }
    }
  }
  confidence_by_id_.assign(static_cast<size_t>(data_.num_clients()), 0.0);

  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    agg_status_.clear();
    for (const AggregatorLink& link : aggs_) {
      agg_status_.push_back(
          {link.health, link.clients, link.workers, link.status_port});
    }
  }
  return OkStatus();
}

Status RootCoordinator::CallAggregator(size_t a,
                                       const net::RoutedMsg& request,
                                       net::RoutedMsg* response) {
  AggregatorLink& link = aggs_[a];
  if (!link.alive || !link.channel.ok()) {
    link.alive = false;
    link.health->healthy.store(false, std::memory_order_relaxed);
    return InternalError("aggregator connection is down");
  }
  const Status rpc = link.channel.Call(request, response);
  if (!rpc.ok()) {
    link.alive = false;
    link.health->healthy.store(false, std::memory_order_relaxed);
    return rpc;
  }
  link.health->last_response_us.store(internal_obs::TraceNowMicros(),
                                      std::memory_order_relaxed);
  link.health->responses.fetch_add(1, std::memory_order_relaxed);
  fleet_.Apply(static_cast<int>(a), response->metrics);
  return OkStatus();
}

Status RootCoordinator::ParallelExchange(
    const std::vector<char>& active, const char* phase,
    const std::function<Status(size_t)>& fn) {
  std::vector<Status> status(aggs_.size(), OkStatus());
  const TraceContext ctx = CurrentTraceContext();
  std::vector<std::thread> threads;
  threads.reserve(aggs_.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (!active[a]) continue;
    threads.emplace_back([&, a] {
      ScopedTraceContext adopt(ctx);
      status[a] = fn(a);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t a = 0; a < status.size(); ++a) {
    if (!status[a].ok()) {
      return InternalError("aggregator " + std::to_string(a) +
                           " failed mid-round during " + phase + ": " +
                           std::string(status[a].message()));
    }
  }
  return OkStatus();
}

double RootCoordinator::MemberWeight(
    int client_id, const std::vector<double>& confidence_by_id) const {
  return gta_.disable_confidence
             ? static_cast<double>(std::max<int64_t>(
                   1, train_sizes_[static_cast<size_t>(client_id)]))
             : confidence_by_id[static_cast<size_t>(client_id)];
}

Status RootCoordinator::AggregateFedGta(
    int round, const std::vector<int>& survivors,
    const std::vector<double>& confidences) {
  std::vector<ShardRoundState>* shards = &round_shards_;
  MetricsRegistry& metrics = GlobalMetrics();
  const SimilarityPlaneOptions& plane = gta_.similarity;
  const size_t gp = survivors.size();
  const bool use_lsh =
      plane.mode == SimilarityMode::kLsh ||
      (plane.mode == SimilarityMode::kAuto &&
       static_cast<int>(gp) >= plane.auto_lsh_min_participants);
  const LshShape shape = LshShapeFor(gta_.epsilon, plane);

  // Which shards staged survivors this round (ascending survivors are
  // shard-major, so a two-pointer walk partitions them).
  std::vector<char> active(aggs_.size(), 0);
  std::vector<int64_t> shard_rows(aggs_.size(), 0);
  {
    size_t cursor = 0;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      while (cursor < gp && aggs_[a].clients.contains(survivors[cursor])) {
        ++shard_rows[a];
        ++cursor;
      }
      active[a] = shard_rows[a] > 0 ? 1 : 0;
    }
  }

  // Phase 1 (LSH rounds only): collect the shard signature slices; their
  // shard-order concatenation is the global signature matrix.
  std::vector<uint64_t> signatures;
  if (use_lsh) {
    std::vector<SignatureBlockBody> blocks(aggs_.size());
    FEDGTA_RETURN_IF_ERROR(ParallelExchange(
        active, "the signature exchange", [&](size_t a) -> Status {
          net::RoutedMsg response;
          FEDGTA_RETURN_IF_ERROR(CallAggregator(
              a, MakeEnvelope(net::EnvelopeKind::kSignatureExchange, round),
              &response));
          FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(
              response, net::EnvelopeKind::kSignatureBlock, &blocks[a]));
          if (blocks[a].rows != shard_rows[a] ||
              blocks[a].words != shape.words ||
              static_cast<int64_t>(blocks[a].signatures.size()) !=
                  blocks[a].rows * blocks[a].words) {
            return InvalidArgumentError("signature block shape mismatch");
          }
          return OkStatus();
        }));
    signatures.reserve(gp * static_cast<size_t>(shape.words));
    for (size_t a = 0; a < aggs_.size(); ++a) {
      signatures.insert(signatures.end(), blocks[a].signatures.begin(),
                        blocks[a].signatures.end());
    }
  }

  // Phase 2: broadcast the global survivor frame, collect want-lists.
  CandidatePairsBody frame;
  frame.survivors.assign(survivors.begin(), survivors.end());
  frame.confidences = confidences;
  frame.use_lsh = use_lsh;
  frame.words = use_lsh ? shape.words : 0;
  frame.signatures = signatures;
  FEDGTA_RETURN_IF_ERROR(ParallelExchange(
      active, "candidate generation", [&](size_t a) -> Status {
        net::RoutedMsg response;
        FEDGTA_RETURN_IF_ERROR(CallAggregator(
            a, MakeEnvelope(net::EnvelopeKind::kCandidatePairs, round, frame),
            &response));
        return UnpackEnvelope(response, net::EnvelopeKind::kCandidateWants,
                              &(*shards)[a].wants);
      }));
  {
    SimilarityStats stats;
    stats.mode_used = use_lsh ? SimilarityMode::kLsh : SimilarityMode::kExact;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (!active[a]) continue;
      stats.pairs_exact += (*shards)[a].wants.pairs_exact;
      stats.pairs_pruned += (*shards)[a].wants.pairs_pruned;
    }
    RecordSetStats(stats);
  }

  // Phase 3: route the wanted normalized rows between shards. The root
  // holds each row only transiently, keyed by id.
  std::vector<std::vector<int32_t>> fetch(aggs_.size());
  {
    std::vector<char> wanted_flag(
        static_cast<size_t>(data_.num_clients()), 0);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (!active[a]) continue;
      for (int32_t id : (*shards)[a].wants.wanted) {
        if (id < 0 || id >= data_.num_clients()) {
          return InvalidArgumentError("want-list id out of range");
        }
        wanted_flag[static_cast<size_t>(id)] = 1;
      }
    }
    size_t owner = 0;
    for (int id = 0; id < data_.num_clients(); ++id) {
      if (!wanted_flag[static_cast<size_t>(id)]) continue;
      while (!aggs_[owner].clients.contains(id)) ++owner;
      fetch[owner].push_back(id);
    }
  }
  std::unordered_map<int, std::vector<float>> rows_by_id;
  {
    std::vector<char> fetch_active(aggs_.size(), 0);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      fetch_active[a] = fetch[a].empty() ? 0 : 1;
    }
    std::vector<MomentBlockBody> blocks(aggs_.size());
    FEDGTA_RETURN_IF_ERROR(ParallelExchange(
        fetch_active, "the moment fetch", [&](size_t a) -> Status {
          MomentFetchBody body;
          body.ids = fetch[a];
          net::RoutedMsg response;
          FEDGTA_RETURN_IF_ERROR(CallAggregator(
              a, MakeEnvelope(net::EnvelopeKind::kMomentFetch, round, body),
              &response));
          FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(
              response, net::EnvelopeKind::kMomentBlock, &blocks[a]));
          if (blocks[a].rows.size() != fetch[a].size()) {
            return InvalidArgumentError("moment block count mismatch");
          }
          return OkStatus();
        }));
    for (size_t a = 0; a < aggs_.size(); ++a) {
      for (size_t k = 0; k < fetch[a].size(); ++k) {
        rows_by_id[fetch[a][k]] = std::move(blocks[a].rows[k]);
      }
    }
  }

  // Phase 4: ship each shard the rows it wanted; it runs exact Eq. 6
  // admission and reports the canonical sets that cross its boundary.
  FEDGTA_RETURN_IF_ERROR(ParallelExchange(
      active, "set building", [&](size_t a) -> Status {
        SetBuildBody body;
        body.ids = (*shards)[a].wants.wanted;
        body.rows.reserve(body.ids.size());
        for (int32_t id : body.ids) body.rows.push_back(rows_by_id.at(id));
        net::RoutedMsg response;
        FEDGTA_RETURN_IF_ERROR(CallAggregator(
            a, MakeEnvelope(net::EnvelopeKind::kSetBuild, round, body),
            &response));
        return UnpackEnvelope(response, net::EnvelopeKind::kSetReport,
                              &(*shards)[a].report);
      }));

  // Phase 5: dedup the cross-shard canonical sets globally and compute
  // their Eq. 7 weight sums (double-accumulated in canonical order — the
  // single-server group loop's arithmetic).
  struct Group {
    std::vector<int32_t> canonical;
    double weight_sum = 0.0;
    std::vector<float> acc;
    /// (shard, index into that shard's SetReport order).
    std::vector<std::pair<size_t, int64_t>> reporters;
  };
  std::vector<Group> groups;
  int64_t local_unique = 0;
  {
    std::map<std::vector<int32_t>, size_t> index;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (!active[a]) continue;
      local_unique += (*shards)[a].report.local_unique;
      const SetReportBody& report = (*shards)[a].report;
      for (size_t ri = 0; ri < report.sets.size(); ++ri) {
        auto [it, inserted] =
            index.emplace(report.sets[ri], groups.size());
        if (inserted) {
          Group g;
          g.canonical = report.sets[ri];
          groups.push_back(std::move(g));
        }
        groups[it->second].reporters.emplace_back(
            a, static_cast<int64_t>(ri));
      }
    }
    for (Group& g : groups) {
      double weight_sum = 0.0;
      for (int32_t j : g.canonical) {
        if (j < 0 || j >= data_.num_clients()) {
          return InvalidArgumentError("canonical set member out of range");
        }
        weight_sum += MemberWeight(j, confidence_by_id_);
      }
      g.weight_sum = weight_sum;
      g.acc.assign(static_cast<size_t>(param_count_), 0.0f);
    }
  }
  const int64_t unique_sets = local_unique + static_cast<int64_t>(groups.size());
  metrics.GetCounter("fedgta.aggregation.unique_sets").Increment(unique_sets);
  metrics.GetCounter("fedgta.aggregation.dedup_reused")
      .Increment(static_cast<int64_t>(gp) - unique_sets);

  // Phase 6: chained Eq. 7 partials, strictly in ascending shard order —
  // each shard folds its members onto the travelling accumulators, which
  // replays the single-server left-associated float sums bit for bit.
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (!active[a]) continue;
    PartialAggregateBody body;
    std::vector<size_t> group_of;
    for (size_t g = 0; g < groups.size(); ++g) {
      bool member_here = false;
      for (int32_t j : groups[g].canonical) {
        if (aggs_[a].clients.contains(j)) {
          member_here = true;
          break;
        }
      }
      if (!member_here) continue;
      PartialSet set;
      set.canonical = groups[g].canonical;
      set.weight_sum = groups[g].weight_sum;
      set.acc = groups[g].acc;
      body.sets.push_back(std::move(set));
      group_of.push_back(g);
    }
    if (body.sets.empty()) continue;
    net::RoutedMsg response;
    Status rpc = CallAggregator(
        a, MakeEnvelope(net::EnvelopeKind::kPartialAggregate, round, body),
        &response);
    PartialBlockBody block;
    if (rpc.ok()) {
      rpc = UnpackEnvelope(response, net::EnvelopeKind::kPartialBlock, &block);
    }
    if (rpc.ok() && block.accs.size() != group_of.size()) {
      rpc = InvalidArgumentError("partial block count mismatch");
    }
    if (!rpc.ok()) {
      return InternalError("aggregator " + std::to_string(a) +
                           " failed mid-round during the chained Eq. 7 "
                           "partial pass: " +
                           rpc.message());
    }
    for (size_t k = 0; k < group_of.size(); ++k) {
      groups[group_of[k]].acc = std::move(block.accs[k]);
    }
  }

  // Phase 7: deliver the finished vectors back to every reporting shard.
  // A failure here only loses that shard's own personalization (its
  // clients drop from later rounds anyway), so it degrades like a dead
  // worker instead of aborting the run.
  std::vector<GroupDeliverBody> deliver(aggs_.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const auto& [a, ri] : groups[g].reporters) {
      deliver[a].report_index.push_back(ri);
      deliver[a].params.push_back(groups[g].acc);
    }
  }
  (void)ParallelExchange(active, "group delivery", [&](size_t a) {
    if (deliver[a].report_index.empty()) return OkStatus();
    net::RoutedMsg response;
    FEDGTA_RETURN_IF_ERROR(CallAggregator(
        a, MakeEnvelope(net::EnvelopeKind::kGroupDeliver, round, deliver[a]),
        &response));
    if (response.kind !=
        static_cast<uint32_t>(net::EnvelopeKind::kGroupAck)) {
      return InvalidArgumentError("unexpected GroupDeliver reply");
    }
    return OkStatus();
  });
  return OkStatus();
}

Result<SimulationResult> RootCoordinator::Run() {
  if (!server_.valid()) {
    return FailedPreconditionError("call Listen() before Run()");
  }
  trace_id_ = NewTraceId();
  // First thread this process creates — anyone forking must have done so
  // before Run() (the hierarchy tests rely on this ordering).
  if (status_.bound()) {
    status_.Start([this](const std::string& cmd) { return RenderStatus(cmd); });
  }
  WallTimer setup_timer;
  FEDGTA_RETURN_IF_ERROR(Handshake());
  const double setup_seconds = setup_timer.Seconds();

  RoundEngine engine(config_.sim, config_.seed, data_.clients, this,
                     trace_id_);
  Result<SimulationResult> result = engine.Run();

  // Best-effort goodbye down the tree: each aggregator shuts its own
  // worker fleet before acking.
  for (AggregatorLink& link : aggs_) {
    if (!link.alive || !link.channel.ok()) continue;
    net::ShutdownMsg bye;
    if (!net::SendMessage(link.channel.socket(), bye).ok()) continue;
    net::ShutdownAckMsg ack;
    (void)net::ExpectMessage(link.channel.socket(), &ack);
  }
  FEDGTA_RETURN_IF_ERROR(result.status());
  result->setup_seconds = setup_seconds;
  result->metrics_json = GlobalMetrics().ToJson();
  return result;
}

std::vector<ClientOutcome> RootCoordinator::Train(
    int round, const std::vector<int>& participants,
    const std::vector<ClientFate>& fates) {
  // Partition by shard: ascending participants are shard-major, so a
  // single forward walk deals every shard its contiguous slice.
  round_shards_.assign(aggs_.size(), ShardRoundState());
  const size_t n_part = participants.size();
  {
    size_t cursor = 0;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      while (cursor < n_part &&
             aggs_[a].clients.contains(participants[cursor])) {
        round_shards_[a].participants.push_back(participants[cursor]);
        round_shards_[a].fates.push_back(fates[cursor]);
        ++cursor;
      }
    }
  }

  std::vector<char> active(aggs_.size(), 0);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    active[a] =
        aggs_[a].alive && !round_shards_[a].participants.empty() ? 1 : 0;
  }
  (void)ParallelExchange(active, "training", [&](size_t a) {
    ShardRoundState& shard = round_shards_[a];
    TrainShardBody body;
    body.participants.assign(shard.participants.begin(),
                             shard.participants.end());
    body.fates.reserve(shard.fates.size());
    for (ClientFate fate : shard.fates) {
      body.fates.push_back(static_cast<uint32_t>(fate));
    }
    if (relay_) {
      body.global_params = strategy_->DownloadFor(shard.participants.front());
    }
    net::RoutedMsg response;
    FEDGTA_RETURN_IF_ERROR(CallAggregator(
        a, MakeEnvelope(net::EnvelopeKind::kTrainShard, round, body),
        &response));
    FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(
        response, net::EnvelopeKind::kTrainShardDone, &shard.done));
    const size_t expect = shard.participants.size();
    if (shard.done.rpc_ok.size() != expect ||
        shard.done.seconds.size() != expect ||
        shard.done.losses.size() != expect ||
        shard.done.num_samples.size() != expect ||
        shard.done.confidences.size() != expect ||
        (relay_ && shard.done.weights.size() != expect)) {
      aggs_[a].alive = false;
      aggs_[a].health->healthy.store(false, std::memory_order_relaxed);
      return InvalidArgumentError("train reply misaligned");
    }
    shard.trained = true;
    return OkStatus();
  });

  // Outcomes in participant order (= shard order). A dead aggregator maps
  // every shard participant onto the transport-failure dropout semantics.
  // In the FedGTA plane params and moments stay staged at the aggregator;
  // only the scalars travel.
  std::vector<ClientOutcome> outcomes;
  outcomes.reserve(n_part);
  for (ShardRoundState& shard : round_shards_) {
    for (size_t i = 0; i < shard.participants.size(); ++i) {
      ClientOutcome& outcome = outcomes.emplace_back();
      if (!shard.trained || !shard.done.rpc_ok[i]) {
        outcome.status = InternalError("participant unreachable");
        continue;
      }
      outcome.seconds = shard.done.seconds[i];
      LocalResult& r = outcome.result;
      r.client_id = shard.participants[i];
      r.num_samples = shard.done.num_samples[i];
      r.loss = shard.done.losses[i];
      r.metrics.confidence = shard.done.confidences[i];
      if (relay_) r.params = std::move(shard.done.weights[i]);
    }
  }
  return outcomes;
}

Status RootCoordinator::Aggregate(int round, const std::vector<int>& ids,
                                  std::vector<LocalResult>& results) {
  if (relay_) return RoundTransport::Aggregate(round, ids, results);
  std::vector<double> confidences;
  confidences.reserve(results.size());
  for (const LocalResult& r : results) {
    confidences.push_back(r.metrics.confidence);
    confidence_by_id_[static_cast<size_t>(r.client_id)] = r.metrics.confidence;
  }
  return AggregateFedGta(round, ids, confidences);
}

Strategy::CommunicationStats RootCoordinator::Communication(
    const std::vector<LocalResult>& results) {
  if (relay_) return RoundTransport::Communication(results);
  // Shard-local sums of the base RoundCommunication formula — integer
  // adds, so the shard-order total equals the single-server total.
  Strategy::CommunicationStats comm;
  for (const ShardRoundState& shard : round_shards_) {
    if (!shard.trained) continue;
    comm.upload_floats += shard.done.upload_floats;
    comm.download_floats += shard.done.download_floats;
  }
  return comm;
}

Status RootCoordinator::Evaluate(int round, ClientAccuracies* acc) {
  EvalShardBody request;
  if (relay_) request.global_params = strategy_->DownloadFor(0);
  std::vector<char> active(aggs_.size(), 0);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    active[a] = aggs_[a].alive ? 1 : 0;
  }
  std::mutex merge_mutex;
  // Eval failures degrade like the flat plane's dead workers: the shard's
  // clients stay unevaluated and drop out of the weighted reduction.
  (void)ParallelExchange(active, "evaluation", [&](size_t a) {
    net::RoutedMsg response;
    FEDGTA_RETURN_IF_ERROR(CallAggregator(
        a, MakeEnvelope(net::EnvelopeKind::kEvalShard, round, request),
        &response));
    EvalShardDoneBody done;
    FEDGTA_RETURN_IF_ERROR(
        UnpackEnvelope(response, net::EnvelopeKind::kEvalShardDone, &done));
    if (done.test_accuracy.size() != done.ids.size() ||
        done.val_accuracy.size() != done.ids.size() ||
        done.evaluated.size() != done.ids.size()) {
      return InvalidArgumentError("eval reply misaligned");
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    for (size_t k = 0; k < done.ids.size(); ++k) {
      const int id = done.ids[k];
      if (!aggs_[a].clients.contains(id)) {
        return InvalidArgumentError("eval reply for a foreign client");
      }
      if (!done.evaluated[k]) continue;
      acc->test[static_cast<size_t>(id)] = done.test_accuracy[k];
      acc->val[static_cast<size_t>(id)] = done.val_accuracy[k];
      acc->evaluated[static_cast<size_t>(id)] = 1;
    }
    return OkStatus();
  });
  return OkStatus();
}

std::string RootCoordinator::RenderStatus(const std::string& command) const {
  if (command == "metrics.json") return GlobalMetrics().ToJson();
  if (command == "metrics") return GlobalMetrics().ToText();
  if (command == "timeline") return GlobalTimeline().ToJsonLines();

  const int64_t now_us = internal_obs::TraceNowMicros();
  std::string out = "fedgta root status\n";
  out += StrFormat("round: %d/%d\n", GlobalTimeline().current_round(),
                   config_.sim.rounds);
  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    if (agg_status_.empty()) {
      out += "aggregators: handshake in progress\n";
    } else {
      out += StrFormat("aggregators: %zu\n", agg_status_.size());
      for (size_t a = 0; a < agg_status_.size(); ++a) {
        const AggregatorStatusEntry& entry = agg_status_[a];
        const int64_t last =
            entry.health->last_response_us.load(std::memory_order_relaxed);
        const int64_t lag_ms = last > 0 ? (now_us - last) / 1000 : -1;
        // The live probe is what actually notices a mid-tier process that
        // died between rounds: its status endpoint stops answering even
        // though the last recorded exchange looked healthy.
        const char* probe = "disabled";
        if (entry.status_port >= 0) {
          probe = net::QueryStatusLine("127.0.0.1", entry.status_port,
                                       "status", /*timeout_ms=*/500)
                          .ok()
                      ? "ok"
                      : "FAILED";
        }
        out += StrFormat(
            "  aggregator %zu: %s shard=[%d,%d) clients=%d workers=%d "
            "responses=%lld lag_ms=%lld probe=%s\n",
            a,
            entry.health->healthy.load(std::memory_order_relaxed) ? "healthy"
                                                                  : "DOWN",
            entry.clients.begin, entry.clients.end, entry.clients.size(),
            entry.workers.size(),
            static_cast<long long>(
                entry.health->responses.load(std::memory_order_relaxed)),
            static_cast<long long>(lag_ms), probe);
      }
    }
  }
  out += RoundLatencyStatus();
  // Similarity/aggregation plane counters (root-side global totals).
  out += SimilarityPlaneStatus();
  return out;
}

}  // namespace fed
}  // namespace fedgta
