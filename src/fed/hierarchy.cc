#include "fed/hierarchy.h"

#include <algorithm>
#include <numeric>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "fed/failure.h"
#include "net/compress/codec.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fedgta {
namespace fed {
namespace {

// Length-prefixed lists of what serialize.h writes natively (it has no
// u32-vector or vector-of-vectors primitive): a u64 count, then the
// elements. Put/Get pick the element codec by type.
void Put(serialize::Writer* w, uint32_t x) { w->WriteU32(x); }
void Put(serialize::Writer* w, const std::vector<float>& x) {
  w->WriteFloatVec(x);
}
void Put(serialize::Writer* w, const std::vector<int32_t>& x) {
  w->WriteI32Vec(x);
}
Status Get(serialize::Reader* r, uint32_t* x) { return r->ReadU32(x); }
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
  w->WriteBool(disable_confidence);
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
  FEDGTA_RETURN_IF_ERROR(r->ReadBool(&disable_confidence));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&hello_recv_us));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&assign_send_us));
  // The aggregator hands the codec name to WorkerFleet::Accept, which
  // admits only registered codecs.
  if (net::compress::FindCodec(compress) == nullptr) {
    return InvalidArgumentError("unknown compress codec '" + compress + "'");
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
}

Status TrainShardBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&participants));
  return ReadList(r, &fates);
}

void TrainShardDoneBody::Encode(serialize::Writer* w) const {
  WriteList(rpc_ok, w);
  w->WriteDoubleVec(seconds);
  w->WriteDoubleVec(losses);
  w->WriteI64Vec(num_samples);
  w->WriteDoubleVec(confidences);
  WriteList(moments, w);
  w->WriteI64(upload_floats);
  w->WriteI64(download_floats);
}

Status TrainShardDoneBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(ReadList(r, &rpc_ok));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&seconds));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&losses));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64Vec(&num_samples));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&confidences));
  FEDGTA_RETURN_IF_ERROR(ReadList(r, &moments));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&upload_floats));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&download_floats));
  const size_t n = rpc_ok.size();
  if (seconds.size() != n || losses.size() != n || num_samples.size() != n ||
      confidences.size() != n || moments.size() != n) {
    return InvalidArgumentError("train shard reply lists misaligned");
  }
  return OkStatus();
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
  WriteList(local_sets, w);
  WriteList(params, w);
  w->WriteI64Vec(group_of);
}

Status GroupDeliverBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(ReadList(r, &local_sets));
  FEDGTA_RETURN_IF_ERROR(ReadList(r, &params));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64Vec(&group_of));
  if (local_sets.size() != params.size()) {
    return InvalidArgumentError("group delivery lists misaligned");
  }
  for (size_t k = 0; k < params.size(); ++k) {
    if (local_sets[k].empty() == params[k].empty()) {
      return InvalidArgumentError(
          "a delivered group needs exactly one of a local set and a vector");
    }
  }
  for (int64_t g : group_of) {
    if (g < -1 || g >= static_cast<int64_t>(params.size())) {
      return InvalidArgumentError("client assigned to an undelivered group");
    }
  }
  return OkStatus();
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

Result<std::vector<std::span<const float>>> MomentTable(
    int num_clients, const std::vector<LocalResult>& results) {
  std::vector<std::span<const float>> table(static_cast<size_t>(num_clients));
  const size_t width =
      results.empty() ? 0 : results.front().metrics.moments.size();
  for (const LocalResult& r : results) {
    if (r.metrics.moments.size() != width) {
      return InvalidArgumentError(StrFormat(
          "moment rows of %zu and %zu floats: every survivor must upload the "
          "same width",
          width, r.metrics.moments.size()));
    }
    table[static_cast<size_t>(r.client_id)] = r.metrics.moments;
  }
  return table;
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
  // The root only reads the strategy's capabilities: it runs Eq. 6 and
  // routes Eq. 7 itself.
  Result<std::unique_ptr<Strategy>> strategy = MakeRemoteStrategy(config_);
  FEDGTA_RETURN_IF_ERROR(strategy.status());
  const StrategyCapabilities caps = (*strategy)->Capabilities();
  if (!caps.shardable) {
    return FailedPreconditionError(
        "strategy '" + config_.strategy +
        "' cannot shard its aggregation across regional aggregators "
        "(see DESIGN.md §5k)");
  }
  // FedAvg is Eq. 7 with one set of every survivor and train-size weights
  // (FedGTA without moments and without confidence).
  global_set_ = !caps.uploads_topology_metrics;
  if (global_set_) gta_.disable_confidence = true;

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
    assign.disable_confidence = gta_.disable_confidence;
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

  // Seed every shard's table with client 0's fresh weights — the common
  // initialization Strategy::Initialize installs.
  InitModelBody init;
  init.params = init_params_;
  for (size_t a = 0; a < aggs_.size(); ++a) {
    net::RoutedMsg response;
    FEDGTA_RETURN_IF_ERROR(CallAggregator(
        a, MakeEnvelope(net::EnvelopeKind::kInitModel, 0, init), &response));
    if (response.kind != static_cast<uint32_t>(net::EnvelopeKind::kGroupAck)) {
      return InvalidArgumentError("unexpected InitModel reply");
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

double RootCoordinator::MemberWeight(int client_id) const {
  return gta_.disable_confidence
             ? static_cast<double>(std::max<int64_t>(
                   1, train_sizes_[static_cast<size_t>(client_id)]))
             : confidence_by_id_[static_cast<size_t>(client_id)];
}

Status RootCoordinator::AggregateGroups(
    int round, const std::vector<AggregationGroup>& groups) {
  // Ascending ids are shard-major, and canonical sets and receivers
  // ascending, so a group lies inside one shard iff its lowest and highest
  // member or receiver do.
  const auto shard_of = [&](int id) {
    size_t a = 0;
    while (!aggs_[a].clients.contains(id)) ++a;
    return a;
  };
  std::vector<char> local(groups.size(), 0);
  std::vector<PartialSet> cross(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<int>& canonical = groups[g].canonical;
    const std::vector<int>& receivers = groups[g].clients;
    local[g] = shard_of(std::min(canonical.front(), receivers.front())) ==
               shard_of(std::max(canonical.back(), receivers.back()));
    if (local[g]) continue;
    // Double-accumulated in canonical order: the single-server arithmetic.
    double weight_sum = 0.0;
    for (int j : canonical) weight_sum += MemberWeight(j);
    cross[g].canonical.assign(canonical.begin(), canonical.end());
    cross[g].weight_sum = weight_sum;
    cross[g].acc.assign(static_cast<size_t>(param_count_), 0.0f);
  }

  // Chained Eq. 7 partials, strictly in ascending shard order — each shard
  // folds its members onto the travelling accumulators, which replays the
  // single-server left-associated float sums bit for bit.
  for (size_t a = 0; a < aggs_.size(); ++a) {
    PartialAggregateBody body;
    std::vector<size_t> group_of;
    const auto member_here = [&](int32_t j) {
      return aggs_[a].clients.contains(j);
    };
    for (size_t g = 0; g < groups.size(); ++g) {
      if (local[g] || std::none_of(cross[g].canonical.begin(),
                                   cross[g].canonical.end(), member_here)) {
        continue;
      }
      body.sets.push_back(cross[g]);
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
      cross[group_of[k]].acc = std::move(block.accs[k]);
    }
  }

  // One delivery per shard: its local sets, aggregated there, and the
  // finished vectors of the other groups its clients receive. A failure
  // here only loses that shard's own update (its clients drop from later
  // rounds anyway), so it degrades like a dead worker instead of aborting
  // the run.
  std::vector<int64_t> group_by_id(static_cast<size_t>(data_.num_clients()),
                                   -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int id : groups[g].clients) {
      group_by_id[static_cast<size_t>(id)] = static_cast<int64_t>(g);
    }
  }
  std::vector<GroupDeliverBody> deliver(aggs_.size());
  std::vector<char> active(aggs_.size(), 0);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    std::unordered_map<int64_t, int64_t> slot;
    GroupDeliverBody& body = deliver[a];
    for (int id = aggs_[a].clients.begin; id < aggs_[a].clients.end; ++id) {
      const int64_t g = group_by_id[static_cast<size_t>(id)];
      if (g < 0) {
        body.group_of.push_back(-1);
        continue;
      }
      const auto [it, inserted] =
          slot.emplace(g, static_cast<int64_t>(body.params.size()));
      if (inserted) {
        body.local_sets.emplace_back();
        body.params.emplace_back();
        if (local[static_cast<size_t>(g)]) {
          const std::vector<int>& set = groups[static_cast<size_t>(g)].canonical;
          body.local_sets.back().assign(set.begin(), set.end());
        } else {
          body.params.back() = cross[static_cast<size_t>(g)].acc;
        }
      }
      body.group_of.push_back(it->second);
    }
    active[a] = body.params.empty() ? 0 : 1;
  }
  (void)ParallelExchange(active, "group delivery", [&](size_t a) {
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
    net::RoutedMsg response;
    FEDGTA_RETURN_IF_ERROR(CallAggregator(
        a, MakeEnvelope(net::EnvelopeKind::kTrainShard, round, body),
        &response));
    FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(
        response, net::EnvelopeKind::kTrainShardDone, &shard.done));
    // The decoder aligned every list with rpc_ok.
    if (shard.done.rpc_ok.size() != shard.participants.size()) {
      aggs_[a].alive = false;
      aggs_[a].health->healthy.store(false, std::memory_order_relaxed);
      return InvalidArgumentError("train reply misaligned");
    }
    shard.trained = true;
    return OkStatus();
  });

  // Outcomes in participant order (= shard order). A dead aggregator maps
  // every shard participant onto the transport-failure dropout semantics.
  // The weights stay staged at the aggregator.
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
      r.metrics.moments = std::move(shard.done.moments[i]);
    }
  }
  return outcomes;
}

Status RootCoordinator::Aggregate(int round, const std::vector<int>& ids,
                                  std::vector<LocalResult>& results) {
  if (global_set_) {
    // Built here, not by GroupByAggregationSet: the in-process FedAvg moves
    // none of its set counters.
    AggregationGroup all{ids, std::vector<int>(train_sizes_.size())};
    std::iota(all.clients.begin(), all.clients.end(), 0);
    return AggregateGroups(round, {all});
  }
  Result<std::vector<std::span<const float>>> moments =
      MomentTable(data_.num_clients(), results);
  FEDGTA_RETURN_IF_ERROR(moments.status());
  for (const LocalResult& r : results) {
    confidence_by_id_[static_cast<size_t>(r.client_id)] = r.metrics.confidence;
  }
  // Eq. 6 exactly as the flat server runs it, counters included.
  const std::vector<AggregationGroup> groups =
      GroupByAggregationSet(*moments, ids, gta_);
  return AggregateGroups(round, groups);
}

Strategy::CommunicationStats RootCoordinator::Communication(
    const std::vector<LocalResult>& /*results*/) {
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
        a, MakeEnvelope(net::EnvelopeKind::kEvalShard, round),
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
