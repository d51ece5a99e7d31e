#include "net/rpc.h"

#include <chrono>
#include <thread>

#include "common/timer.h"
#include "obs/metrics.h"

namespace fedgta {
namespace net {
namespace {

// Resolved through the registry on every call, never cached in a
// function-local static: a static would pin whichever instance existed at
// first use, so a consumer that observes the registry after a reset (or a
// test asserting on a freshly resolved reference) could be looking at a
// different object than the one the RPC layer keeps writing to.
Counter& ConnectRetries() {
  return GlobalMetrics().GetCounter("net.connect_retries");
}

Histogram& RpcSeconds() {
  return GlobalMetrics().GetHistogram("net.rpc.seconds");
}

void Backoff(int attempt, int base_ms) {
  // attempt 1 sleeps base, attempt 2 sleeps 2*base, ... capped at 2s.
  const int64_t ms =
      std::min<int64_t>(2000, static_cast<int64_t>(base_ms) << (attempt - 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// A tensor field: codec-encoded through `link` when it is active, plain
/// WriteFloatVec bytes otherwise.
using LinkEncoder = void (compress::Link::*)(int32_t, std::span<const float>,
                                             serialize::Writer*);
using LinkDecoder = Status (compress::Link::*)(int32_t, serialize::Reader*,
                                               std::vector<float>*);

void WriteTensor(compress::Link* link, LinkEncoder encode, int32_t client_id,
                 std::span<const float> values, serialize::Writer* w) {
  if (link != nullptr && link->active()) {
    (link->*encode)(client_id, values, w);
  } else {
    w->WriteFloatVec(values);
  }
}

Status ReadTensor(compress::Link* link, LinkDecoder decode, int32_t client_id,
                  serialize::Reader* r, std::vector<float>* out) {
  return link != nullptr && link->active()
             ? (link->*decode)(client_id, r, out)
             : r->ReadFloatVec(out);
}

/// The download section of Train/Eval requests: the reuse marker, then
/// (only without it) the weights.
void WriteDownload(compress::Link* link, int32_t client_id, bool reuse,
                   std::span<const float> weights, serialize::Writer* w) {
  w->WriteBool(reuse);
  if (!reuse) {
    WriteTensor(link, &compress::Link::EncodeDownload, client_id, weights, w);
  }
}

/// The download section is the last field of its message, so a marker
/// followed by anything is malformed.
Status ReadDownload(compress::Link* link, int32_t client_id,
                    serialize::Reader* r, bool* reuse,
                    std::vector<float>* weights) {
  FEDGTA_RETURN_IF_ERROR(r->ReadBool(reuse));
  if (!*reuse) {
    return ReadTensor(link, &compress::Link::DecodeDownload, client_id, r,
                      weights);
  }
  weights->clear();
  return r->AtEnd() ? OkStatus()
                    : InvalidArgumentError(
                          "download reuse marker followed by tensor bytes");
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "Hello";
    case MsgType::kAssignConfig:
      return "AssignConfig";
    case MsgType::kConfigAck:
      return "ConfigAck";
    case MsgType::kTrainRequest:
      return "TrainRequest";
    case MsgType::kTrainResponse:
      return "TrainResponse";
    case MsgType::kEvalRequest:
      return "EvalRequest";
    case MsgType::kEvalResponse:
      return "EvalResponse";
    case MsgType::kShutdown:
      return "Shutdown";
    case MsgType::kShutdownAck:
      return "ShutdownAck";
    case MsgType::kError:
      return "Error";
    case MsgType::kRouted:
      return "Routed";
  }
  return "UnknownMsg";
}

const char* EnvelopeKindName(EnvelopeKind kind) {
  switch (kind) {
    case EnvelopeKind::kShardAssign:
      return "ShardAssign";
    case EnvelopeKind::kShardReady:
      return "ShardReady";
    case EnvelopeKind::kInitModel:
      return "InitModel";
    case EnvelopeKind::kTrainShard:
      return "TrainShard";
    case EnvelopeKind::kTrainShardDone:
      return "TrainShardDone";
    case EnvelopeKind::kSignatureExchange:
      return "SignatureExchange";
    case EnvelopeKind::kSignatureBlock:
      return "SignatureBlock";
    case EnvelopeKind::kCandidatePairs:
      return "CandidatePairs";
    case EnvelopeKind::kCandidateWants:
      return "CandidateWants";
    case EnvelopeKind::kMomentFetch:
      return "MomentFetch";
    case EnvelopeKind::kMomentBlock:
      return "MomentBlock";
    case EnvelopeKind::kSetBuild:
      return "SetBuild";
    case EnvelopeKind::kSetReport:
      return "SetReport";
    case EnvelopeKind::kPartialAggregate:
      return "PartialAggregate";
    case EnvelopeKind::kPartialBlock:
      return "PartialBlock";
    case EnvelopeKind::kGroupDeliver:
      return "GroupDeliver";
    case EnvelopeKind::kGroupAck:
      return "GroupAck";
    case EnvelopeKind::kEvalShard:
      return "EvalShard";
    case EnvelopeKind::kEvalShardDone:
      return "EvalShardDone";
  }
  return "UnknownEnvelope";
}

void AddSentMessageBytes(MsgType type, int64_t wire) {
  GlobalMetrics()
      .GetCounter(std::string("net.bytes_sent.") + MsgTypeName(type))
      .Increment(wire);
}

void AddRecvSavedBytes(int64_t saved) {
  if (saved != 0) {
    GlobalMetrics().GetCounter("net.bytes_raw").Increment(saved);
  }
}

void HelloMsg::Encode(serialize::Writer* w, compress::Link* /*link*/) const {
  w->WriteU32(protocol_version);
  w->WriteI64(t_send_us);
  w->WriteU32(codec_capabilities);
  w->WriteU32(node_role);
}
Status HelloMsg::Decode(serialize::Reader* r, compress::Link* /*link*/) {
  FEDGTA_RETURN_IF_ERROR(r->ReadU32(&protocol_version));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&t_send_us));
  FEDGTA_RETURN_IF_ERROR(r->ReadU32(&codec_capabilities));
  return r->ReadU32(&node_role);
}

void WireFedConfig::Encode(serialize::Writer* w) const {
  w->WriteString(dataset);
  w->WriteU64(seed);
  w->WriteString(split_method);
  w->WriteI32(num_clients);
  w->WriteDouble(overlap_fraction);
  w->WriteString(model);
  w->WriteI32(hidden);
  w->WriteI32(num_layers);
  w->WriteI32(model_k);
  w->WriteFloat(dropout);
  w->WriteFloat(gbp_beta);
  w->WriteFloat(r);
  w->WriteString(optimizer);
  w->WriteFloat(lr);
  w->WriteFloat(momentum);
  w->WriteFloat(weight_decay);
  w->WriteFloat(beta1);
  w->WriteFloat(beta2);
  w->WriteFloat(adam_epsilon);
  w->WriteString(strategy);
  w->WriteFloat(prox_mu);
  w->WriteFloat(gta_alpha);
  w->WriteI32(gta_k);
  w->WriteI32(gta_moment_order);
  w->WriteBool(gta_use_feature_moments);
  w->WriteI32(gta_feature_moment_dims);
  w->WriteI32(local_epochs);
  w->WriteI32(batch_size);
  w->WriteDouble(fail_dropout);
  w->WriteDouble(fail_straggler);
  w->WriteDouble(fail_crash);
  w->WriteU64(fail_seed);
  w->WriteBool(async);
  w->WriteI32(staleness_tau);
  w->WriteDouble(staleness_decay);
}

Status WireFedConfig::Decode(serialize::Reader* rd) {
  FEDGTA_RETURN_IF_ERROR(rd->ReadString(&dataset));
  FEDGTA_RETURN_IF_ERROR(rd->ReadU64(&seed));
  FEDGTA_RETURN_IF_ERROR(rd->ReadString(&split_method));
  FEDGTA_RETURN_IF_ERROR(rd->ReadI32(&num_clients));
  FEDGTA_RETURN_IF_ERROR(rd->ReadDouble(&overlap_fraction));
  FEDGTA_RETURN_IF_ERROR(rd->ReadString(&model));
  FEDGTA_RETURN_IF_ERROR(rd->ReadI32(&hidden));
  FEDGTA_RETURN_IF_ERROR(rd->ReadI32(&num_layers));
  FEDGTA_RETURN_IF_ERROR(rd->ReadI32(&model_k));
  FEDGTA_RETURN_IF_ERROR(rd->ReadFloat(&dropout));
  FEDGTA_RETURN_IF_ERROR(rd->ReadFloat(&gbp_beta));
  FEDGTA_RETURN_IF_ERROR(rd->ReadFloat(&r));
  FEDGTA_RETURN_IF_ERROR(rd->ReadString(&optimizer));
  FEDGTA_RETURN_IF_ERROR(rd->ReadFloat(&lr));
  FEDGTA_RETURN_IF_ERROR(rd->ReadFloat(&momentum));
  FEDGTA_RETURN_IF_ERROR(rd->ReadFloat(&weight_decay));
  FEDGTA_RETURN_IF_ERROR(rd->ReadFloat(&beta1));
  FEDGTA_RETURN_IF_ERROR(rd->ReadFloat(&beta2));
  FEDGTA_RETURN_IF_ERROR(rd->ReadFloat(&adam_epsilon));
  FEDGTA_RETURN_IF_ERROR(rd->ReadString(&strategy));
  FEDGTA_RETURN_IF_ERROR(rd->ReadFloat(&prox_mu));
  FEDGTA_RETURN_IF_ERROR(rd->ReadFloat(&gta_alpha));
  FEDGTA_RETURN_IF_ERROR(rd->ReadI32(&gta_k));
  FEDGTA_RETURN_IF_ERROR(rd->ReadI32(&gta_moment_order));
  FEDGTA_RETURN_IF_ERROR(rd->ReadBool(&gta_use_feature_moments));
  FEDGTA_RETURN_IF_ERROR(rd->ReadI32(&gta_feature_moment_dims));
  FEDGTA_RETURN_IF_ERROR(rd->ReadI32(&local_epochs));
  FEDGTA_RETURN_IF_ERROR(rd->ReadI32(&batch_size));
  FEDGTA_RETURN_IF_ERROR(rd->ReadDouble(&fail_dropout));
  FEDGTA_RETURN_IF_ERROR(rd->ReadDouble(&fail_straggler));
  FEDGTA_RETURN_IF_ERROR(rd->ReadDouble(&fail_crash));
  FEDGTA_RETURN_IF_ERROR(rd->ReadU64(&fail_seed));
  FEDGTA_RETURN_IF_ERROR(rd->ReadBool(&async));
  FEDGTA_RETURN_IF_ERROR(rd->ReadI32(&staleness_tau));
  FEDGTA_RETURN_IF_ERROR(rd->ReadDouble(&staleness_decay));
  return OkStatus();
}

void AssignConfigMsg::Encode(serialize::Writer* w,
                             compress::Link* /*link*/) const {
  config.Encode(w);
  w->WriteI32Vec(client_ids);
  w->WriteI64(hello_recv_us);
  w->WriteI64(assign_send_us);
  w->WriteI32(worker_index);
  w->WriteU32(codec_id);
  w->WriteI32(compress_topk);
}
Status AssignConfigMsg::Decode(serialize::Reader* r,
                               compress::Link* /*link*/) {
  FEDGTA_RETURN_IF_ERROR(config.Decode(r));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&client_ids));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&hello_recv_us));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&assign_send_us));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&worker_index));
  FEDGTA_RETURN_IF_ERROR(r->ReadU32(&codec_id));
  return r->ReadI32(&compress_topk);
}

void ConfigAckMsg::Encode(serialize::Writer* w,
                          compress::Link* /*link*/) const {
  // init_params ship raw even on compressed links: they are the one-time
  // common initialization every strategy must start from bit-exactly.
  w->WriteI64(param_count);
  w->WriteFloatVec(init_params);
}
Status ConfigAckMsg::Decode(serialize::Reader* r, compress::Link* /*link*/) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&param_count));
  return r->ReadFloatVec(&init_params);
}

void TrainRequestMsg::Encode(serialize::Writer* w,
                             compress::Link* link) const {
  w->WriteI32(round);
  w->WriteI32(client_id);
  WriteDownload(link, client_id, reuse, weights, w);
}
Status TrainRequestMsg::Decode(serialize::Reader* r, compress::Link* link) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&round));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&client_id));
  return ReadDownload(link, client_id, r, &reuse, &weights);
}

void TrainResponseMsg::Encode(serialize::Writer* w,
                              compress::Link* link) const {
  w->WriteI32(client_id);
  w->WriteI32(round);
  w->WriteU32(fate);
  w->WriteDouble(loss);
  w->WriteI64(num_samples);
  WriteTensor(link, &compress::Link::EncodeUploadWeights, client_id, weights,
              w);
  w->WriteDouble(confidence);
  WriteTensor(link, &compress::Link::EncodeMoments, client_id, moments, w);
  w->WriteDouble(seconds);
  EncodeMetricsDelta(metrics, w);
}
Status TrainResponseMsg::Decode(serialize::Reader* r, compress::Link* link) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&client_id));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&round));
  FEDGTA_RETURN_IF_ERROR(r->ReadU32(&fate));
  FEDGTA_RETURN_IF_ERROR(r->ReadDouble(&loss));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&num_samples));
  FEDGTA_RETURN_IF_ERROR(ReadTensor(link, &compress::Link::DecodeUploadWeights,
                                    client_id, r, &weights));
  FEDGTA_RETURN_IF_ERROR(r->ReadDouble(&confidence));
  FEDGTA_RETURN_IF_ERROR(ReadTensor(link, &compress::Link::DecodeMoments,
                                    client_id, r, &moments));
  FEDGTA_RETURN_IF_ERROR(r->ReadDouble(&seconds));
  return DecodeMetricsDelta(r, &metrics);
}

void EvalRequestMsg::Encode(serialize::Writer* w, compress::Link* link) const {
  w->WriteI32(client_id);
  WriteDownload(link, client_id, reuse, weights, w);
}
Status EvalRequestMsg::Decode(serialize::Reader* r, compress::Link* link) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&client_id));
  return ReadDownload(link, client_id, r, &reuse, &weights);
}

void EvalResponseMsg::Encode(serialize::Writer* w,
                             compress::Link* /*link*/) const {
  w->WriteI32(client_id);
  w->WriteDouble(test_accuracy);
  w->WriteDouble(val_accuracy);
  EncodeMetricsDelta(metrics, w);
}
Status EvalResponseMsg::Decode(serialize::Reader* r,
                               compress::Link* /*link*/) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&client_id));
  FEDGTA_RETURN_IF_ERROR(r->ReadDouble(&test_accuracy));
  FEDGTA_RETURN_IF_ERROR(r->ReadDouble(&val_accuracy));
  return DecodeMetricsDelta(r, &metrics);
}

void ShutdownMsg::Encode(serialize::Writer* /*w*/,
                         compress::Link* /*link*/) const {}
Status ShutdownMsg::Decode(serialize::Reader* /*r*/,
                           compress::Link* /*link*/) {
  return OkStatus();
}

void ShutdownAckMsg::Encode(serialize::Writer* /*w*/,
                            compress::Link* /*link*/) const {}
Status ShutdownAckMsg::Decode(serialize::Reader* /*r*/,
                              compress::Link* /*link*/) {
  return OkStatus();
}

void ErrorMsg::Encode(serialize::Writer* w, compress::Link* /*link*/) const {
  w->WriteString(message);
}
Status ErrorMsg::Decode(serialize::Reader* r, compress::Link* /*link*/) {
  return r->ReadString(&message);
}

void RoutedMsg::Encode(serialize::Writer* w, compress::Link* /*link*/) const {
  w->WriteU32(kind);
  w->WriteI32(round);
  w->WriteI32(src);
  w->WriteI32(dst);
  w->WriteString(body);
  EncodeMetricsDelta(metrics, w);
}
Status RoutedMsg::Decode(serialize::Reader* r, compress::Link* /*link*/) {
  FEDGTA_RETURN_IF_ERROR(r->ReadU32(&kind));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&round));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&src));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&dst));
  FEDGTA_RETURN_IF_ERROR(r->ReadString(&body));
  return DecodeMetricsDelta(r, &metrics);
}

Result<serialize::Reader> RecvMessage(Socket& sock) {
  return RecvFrame(sock);
}

Result<MsgType> ReadMsgType(serialize::Reader* reader, TraceContext* ctx) {
  uint32_t raw = 0;
  FEDGTA_RETURN_IF_ERROR(reader->ReadU32(&raw));
  if (raw < static_cast<uint32_t>(MsgType::kHello) ||
      raw > static_cast<uint32_t>(MsgType::kRouted)) {
    return InvalidArgumentError("unknown message type " + std::to_string(raw));
  }
  TraceContext envelope;
  FEDGTA_RETURN_IF_ERROR(reader->ReadU64(&envelope.trace_id));
  FEDGTA_RETURN_IF_ERROR(reader->ReadU64(&envelope.span_id));
  FEDGTA_RETURN_IF_ERROR(reader->ReadI32(&envelope.round));
  if (ctx != nullptr) *ctx = envelope;
  return static_cast<MsgType>(raw);
}

RpcChannel::RpcChannel(Socket sock, const RpcOptions& options)
    : sock_(std::move(sock)), options_(options), healthy_(sock_.valid()) {
  if (healthy_) {
    const Status s = sock_.SetRecvTimeout(options_.deadline_ms);
    if (!s.ok()) healthy_ = false;
  }
}

Status RpcChannel::CallImpl(const Step& send, const Step& recv) {
  if (!ok()) {
    return FailedPreconditionError("rpc channel is broken");
  }
  WallTimer timer;
  Status last = OkStatus();
  const int attempts = std::max(1, options_.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ConnectRetries().Increment();
      Backoff(attempt, options_.backoff_ms);
    }
    last = send(sock_);
    if (!last.ok()) continue;
    last = recv(sock_);
    if (last.ok()) {
      RpcSeconds().Record(timer.Seconds());
      return OkStatus();
    }
    if (last.code() == StatusCode::kDeadlineExceeded) {
      // The peer may still answer later; a retry would read *that* stale
      // response as its own. The stream is unusable — fail the channel.
      break;
    }
  }
  healthy_ = false;
  sock_.Close();
  return last;
}

Result<Socket> ConnectWithRetry(const std::string& host, int port,
                                const RpcOptions& options) {
  Status last = OkStatus();
  const int attempts = std::max(1, options.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ConnectRetries().Increment();
      Backoff(attempt, options.backoff_ms);
    }
    Result<Socket> sock = Connect(host, port, options.deadline_ms);
    if (sock.ok()) return sock;
    last = sock.status();
  }
  return last;
}

Status Complain(Socket& sock, Status status) {
  ErrorMsg err;
  err.message = std::string(status.message());
  (void)SendMessage(sock, err);
  return status;
}

}  // namespace net
}  // namespace fedgta
