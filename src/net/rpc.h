#ifndef FEDGTA_NET_RPC_H_
#define FEDGTA_NET_RPC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "net/compress/wire.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics_delta.h"
#include "obs/trace.h"

namespace fedgta {
namespace net {

/// Federated round protocol spoken between the FedGTA server and its
/// workers (see DESIGN.md §5e for the full state machine):
///
///   worker                          server
///     | -- Hello{version} ----------> |   (one per connection)
///     | <-- AssignConfig{exp, ids} -- |
///     | -- ConfigAck{init params} --> |
///     |                               |   per round, per hosted client:
///     | <-- TrainRequest{w|reuse,r} - |
///     | -- TrainResponse{w,H,M,..} -> |
///     |                               |   on eval rounds, per client:
///     | <-- EvalRequest{w|reuse} ---- |
///     | -- EvalResponse{accs} ------> |
///     | <-- Shutdown ---------------- |
///     | -- ShutdownAck -------------> |
///
/// Every message is one frame whose payload starts with a u32 MsgType
/// followed by a trace envelope (trace_id, span_id, round — the sender's
/// TraceContext; zeros when tracing is off). The receiver adopts the
/// envelope around its handling scope, so a worker's spans chain to the
/// server's round span in a merged timeline. Both sides treat any
/// malformed message as a broken peer (error Status), which the
/// coordinator maps onto the failure model: an unreachable or timed-out
/// worker is a dropped participant for the round.
///
/// Tensor fields are codec-encoded on connections the server assigned a
/// codec other than raw (DESIGN.md §5j), and root ↔ aggregator traffic
/// rides the generic Routed envelope (§5k); a worker cannot tell whether
/// its server is the root or a regional aggregator.
///
/// The protocol is frozen at v10: every peer ships from this repo, so both
/// ends accept exactly this version and every message has one fixed
/// layout. v10 added the server's kernel backend to the experiment config.
/// A Train/Eval request whose weights equal the last ones sent for that
/// client on this connection carries `reuse` and no tensor; the worker
/// uses its DownloadStash copy instead.

inline constexpr uint32_t kProtocolVersion = 10;

enum class MsgType : uint32_t {
  kHello = 1,
  kAssignConfig = 2,
  kConfigAck = 3,
  kTrainRequest = 4,
  kTrainResponse = 5,
  kEvalRequest = 6,
  kEvalResponse = 7,
  kShutdown = 8,
  kShutdownAck = 9,
  kError = 10,
  kRouted = 11,
};

const char* MsgTypeName(MsgType type);

/// Worker -> server, immediately after connecting. `t_send_us` is the
/// worker's trace clock at send time — the t0 of the NTP-style offset
/// estimate the worker computes once AssignConfig echoes the server-side
/// timestamps back.
struct HelloMsg {
  static constexpr MsgType kType = MsgType::kHello;
  uint32_t protocol_version = kProtocolVersion;
  int64_t t_send_us = 0;
  /// What kind of process is dialing in (a NodeRole value).
  uint32_t node_role = 0;

  void Encode(serialize::Writer* w, compress::Link* link = nullptr) const;
  Status Decode(serialize::Reader* r, compress::Link* link = nullptr);
};

/// HelloMsg::node_role values.
enum class NodeRole : uint32_t {
  kWorker = 0,
  kAggregator = 1,
};

/// The full experiment identity a worker needs to materialize its shards
/// and train them exactly like the in-process Simulation would: dataset
/// recipe, model + optimizer hyperparameters, strategy (with the
/// remote-executable strategies' client-side knobs), the deterministic
/// failure-injection rates, and the kernel backend. Everything is derived
/// data — no tensors ship.
struct WireFedConfig {
  std::string dataset = "cora";
  uint64_t seed = 42;
  std::string split_method = "louvain";
  int32_t num_clients = 10;
  double overlap_fraction = 0.0;
  // Model (gnn/factory.h ModelConfig).
  std::string model = "gamlp";
  int32_t hidden = 64;
  int32_t num_layers = 2;
  int32_t model_k = 3;
  float dropout = 0.3f;
  float gbp_beta = 0.3f;
  float r = 0.5f;
  // Optimizer (nn/optimizer.h OptimizerConfig).
  std::string optimizer = "adam";
  float lr = 0.01f;
  float momentum = 0.9f;
  float weight_decay = 5e-4f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float adam_epsilon = 1e-8f;
  // Strategy; client-side knobs of the remote-executable set.
  std::string strategy = "fedgta";
  float prox_mu = 0.01f;
  float gta_alpha = 0.5f;
  int32_t gta_k = 5;
  int32_t gta_moment_order = 3;
  bool gta_use_feature_moments = false;
  int32_t gta_feature_moment_dims = 16;
  // Round shape.
  int32_t local_epochs = 3;
  int32_t batch_size = 0;
  // Deterministic failure injection (fed/failure.h). FateOf is a pure
  // function of (seed, round, client), so both sides compute the same
  // schedule without coordination.
  double fail_dropout = 0.0;
  double fail_straggler = 0.0;
  double fail_crash = 0.0;
  uint64_t fail_seed = 0xFA11;
  // Async runtime (DESIGN.md §5i). When `async` is set, workers fill the
  // full upload payload for stragglers too (their update is late, not
  // lost); the staleness knobs ride along so a worker can render them in
  // diagnostics even though admission is enforced server-side only.
  bool async = false;
  int32_t staleness_tau = 0;
  double staleness_decay = 0.5;
  // The server's kernel backend (linalg::ActiveBackendName()). Binding:
  // a worker or aggregator runs it, whatever its own environment says,
  // so every process computes the same floats.
  std::string backend = "simd";

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// Server -> worker: experiment config plus the client ids this worker
/// hosts.
struct AssignConfigMsg {
  static constexpr MsgType kType = MsgType::kAssignConfig;
  WireFedConfig config;
  std::vector<int32_t> client_ids;
  /// Clock sync: server trace clock when the Hello arrived (t1) and when
  /// this reply was sent (t2). With the worker's t0 (HelloMsg::t_send_us)
  /// and its receive time t3, the worker estimates its offset to the
  /// server clock as ((t1-t0)+(t2-t3))/2 and shifts its trace timestamps
  /// accordingly, so merged timelines share the server timebase.
  int64_t hello_recv_us = 0;
  int64_t assign_send_us = 0;
  /// This worker's 0-based index in the fleet (stable process identity for
  /// trace pids and the worker.<id>.* metrics namespace).
  int32_t worker_index = 0;
  /// The codec of this connection (a compress::CodecId; binding — the
  /// worker refuses an id it does not implement) and the delta top-k knob.
  uint32_t codec_id = 0;
  int32_t compress_topk = 0;

  void Encode(serialize::Writer* w, compress::Link* link = nullptr) const;
  Status Decode(serialize::Reader* r, compress::Link* link = nullptr);
};

/// Worker -> server after materializing its shards. `init_params` is
/// non-empty only on the worker hosting client 0: its freshly constructed
/// client's weights are the common initialization every strategy starts
/// from (mirroring Simulation, where round-0 globals are client 0's fresh
/// weights).
struct ConfigAckMsg {
  static constexpr MsgType kType = MsgType::kConfigAck;
  int64_t param_count = 0;
  std::vector<float> init_params;

  void Encode(serialize::Writer* w, compress::Link* link = nullptr) const;
  Status Decode(serialize::Reader* r, compress::Link* link = nullptr);
};

/// Server -> worker: run one client's local round from `weights`. With
/// `reuse` set no tensor follows: the weights are the worker's stashed copy
/// of this client's last download (see DownloadStash).
struct TrainRequestMsg {
  static constexpr MsgType kType = MsgType::kTrainRequest;
  int32_t round = 0;
  int32_t client_id = 0;
  bool reuse = false;
  std::vector<float> weights;

  void Encode(serialize::Writer* w, compress::Link* link = nullptr) const;
  Status Decode(serialize::Reader* r, compress::Link* link = nullptr);
};

/// Worker -> server: the upload. `fate` is the worker's locally computed
/// ClientFate for (round, client); for non-healthy fates the tensor fields
/// stay empty (the server discards them anyway — matching the simulation,
/// where failed results never reach aggregation), except that in async
/// mode (WireFedConfig::async) stragglers ship the full payload: their
/// update is late, not lost, and the server's bounded-staleness queue
/// decides its fate. `confidence`/`moments` carry the FedGTA H and M
/// uploads when the strategy wants them.
struct TrainResponseMsg {
  static constexpr MsgType kType = MsgType::kTrainResponse;
  int32_t client_id = 0;
  /// Echo of TrainRequestMsg::round (v3): async responses stream back out
  /// of round order, so the dispatch round must travel with the upload.
  int32_t round = 0;
  uint32_t fate = 0;  // static_cast<uint32_t>(ClientFate)
  double loss = 0.0;
  int64_t num_samples = 0;
  std::vector<float> weights;
  double confidence = 0.0;
  std::vector<float> moments;
  double seconds = 0.0;
  /// Piggybacked worker metrics since the last response (fleet
  /// aggregation; see obs/metrics_delta.h). Identical on RPC retry, so the
  /// server-side seq check keeps re-delivery idempotent.
  MetricsDelta metrics;

  void Encode(serialize::Writer* w, compress::Link* link = nullptr) const;
  Status Decode(serialize::Reader* r, compress::Link* link = nullptr);
};

/// Server -> worker: evaluate `weights` on one client's local test/val
/// sets. `reuse` works as in TrainRequestMsg.
struct EvalRequestMsg {
  static constexpr MsgType kType = MsgType::kEvalRequest;
  int32_t client_id = 0;
  bool reuse = false;
  std::vector<float> weights;

  void Encode(serialize::Writer* w, compress::Link* link = nullptr) const;
  Status Decode(serialize::Reader* r, compress::Link* link = nullptr);
};

struct EvalResponseMsg {
  static constexpr MsgType kType = MsgType::kEvalResponse;
  int32_t client_id = 0;
  double test_accuracy = 0.0;
  double val_accuracy = 0.0;
  /// See TrainResponseMsg::metrics.
  MetricsDelta metrics;

  void Encode(serialize::Writer* w, compress::Link* link = nullptr) const;
  Status Decode(serialize::Reader* r, compress::Link* link = nullptr);
};

struct ShutdownMsg {
  static constexpr MsgType kType = MsgType::kShutdown;
  void Encode(serialize::Writer* w, compress::Link* link = nullptr) const;
  Status Decode(serialize::Reader* r, compress::Link* link = nullptr);
};

struct ShutdownAckMsg {
  static constexpr MsgType kType = MsgType::kShutdownAck;
  void Encode(serialize::Writer* w, compress::Link* link = nullptr) const;
  Status Decode(serialize::Reader* r, compress::Link* link = nullptr);
};

/// Either side -> peer: a fatal protocol-level complaint (version skew,
/// unknown strategy, ...) before closing the connection.
struct ErrorMsg {
  static constexpr MsgType kType = MsgType::kError;
  std::string message;

  void Encode(serialize::Writer* w, compress::Link* link = nullptr) const;
  Status Decode(serialize::Reader* r, compress::Link* link = nullptr);
};

/// Body schema selector for RoutedMsg (the root ↔ aggregator plane,
/// DESIGN.md §5k). Bodies are nested serialize payloads defined in
/// fed/hierarchy.h — the envelope itself is schema-agnostic, so the wire
/// protocol never grows another MsgType for a new hierarchical phase.
enum class EnvelopeKind : uint32_t {
  kShardAssign = 1,       // root → agg: wire config + client shard + knobs
  kShardReady = 2,        // agg → root: param count, init params, status port
  kInitModel = 3,         // root → agg: common initialization broadcast
  kTrainShard = 4,        // root → agg: run one round over shard survivors
  kTrainShardDone = 5,    // agg → root: per-participant scalars + moment rows
  kPartialAggregate = 6,  // root → agg: chained Eq. 7 accumulator pass
  kPartialBlock = 7,      // agg → root: updated accumulators
  kGroupDeliver = 8,      // root → agg: local sets + finished vectors
  kGroupAck = 9,          // agg → root
  kEvalShard = 10,        // root → agg: evaluate shard clients (bodyless)
  kEvalShardDone = 11,    // agg → root: per-client accuracies
};

const char* EnvelopeKindName(EnvelopeKind kind);

/// Routed envelope: the single message type of the root ↔ aggregator
/// link. `kind` selects the body schema; `src`/`dst` are aggregator
/// indices with -1 meaning the root, so a future multi-hop topology can
/// forward envelopes without re-framing. Aggregator replies piggyback a
/// metrics delta exactly like TrainResponse does, which is how the
/// aggregator's own counters (and its rolled-up worker fleet) reach the
/// root's registry.
struct RoutedMsg {
  static constexpr MsgType kType = MsgType::kRouted;
  uint32_t kind = 0;  // static_cast<uint32_t>(EnvelopeKind)
  int32_t round = 0;
  int32_t src = -1;
  int32_t dst = -1;
  std::string body;
  MetricsDelta metrics;

  void Encode(serialize::Writer* w, compress::Link* link = nullptr) const;
  Status Decode(serialize::Reader* r, compress::Link* link = nullptr);
};

/// Accumulates `wire` bytes into the per-message-type counter
/// `net.bytes_sent.<MsgTypeName>` (non-template so SendMessage
/// instantiations share one definition).
void AddSentMessageBytes(MsgType type, int64_t wire);
/// Folds a compression Link's decode-side savings into `net.bytes_raw`
/// (the receive path can only account for them after the payload is
/// decoded).
void AddRecvSavedBytes(int64_t saved);

/// Ships one typed message as one frame, stamping the calling thread's
/// TraceContext into the envelope (all zeros when no context is active).
/// With a compression Link the tensor fields are codec-encoded; a null
/// link produces the uncompressed bytes.
template <typename M>
Status SendMessage(Socket& sock, const M& msg,
                   compress::Link* link = nullptr) {
  serialize::Writer writer;
  writer.WriteU32(static_cast<uint32_t>(M::kType));
  const TraceContext ctx = CurrentTraceContext();
  writer.WriteU64(ctx.trace_id);
  writer.WriteU64(ctx.span_id);
  writer.WriteI32(ctx.round);
  msg.Encode(&writer, link);
  const int64_t saved = link != nullptr ? link->TakeSavedBytes() : 0;
  int64_t wire = 0;
  FEDGTA_RETURN_IF_ERROR(SendFrame(sock, writer, saved, &wire));
  AddSentMessageBytes(M::kType, wire);
  return OkStatus();
}

/// Receives one frame and returns its validated payload Reader; the caller
/// reads the leading MsgType u32 via ReadMsgType and dispatches.
Result<serialize::Reader> RecvMessage(Socket& sock);

/// Reads the leading type tag and trace envelope of a received message
/// payload. The envelope is always consumed; pass `ctx` to adopt it (via
/// ScopedTraceContext) around the handling scope.
Result<MsgType> ReadMsgType(serialize::Reader* reader,
                            TraceContext* ctx = nullptr);

/// Receives a message that must be of type M. A kError message from the
/// peer is surfaced as a FailedPrecondition carrying its text; any other
/// type mismatch is a protocol error. Pass the connection's Link to
/// decode codec-encoded tensor fields.
template <typename M>
Status ExpectMessage(Socket& sock, M* out, compress::Link* link = nullptr);

/// Sends `status` to the peer as an ErrorMsg before bailing with it; the
/// send is best-effort (the peer may already be gone).
Status Complain(Socket& sock, Status status);

/// Per-message retry/backoff knobs shared by the channel and the worker's
/// connect loop.
struct RpcOptions {
  /// Bounds each response wait — the straggler deadline. A worker that
  /// blows it is treated exactly like a FailurePlan straggler: the round
  /// proceeds without it.
  int deadline_ms = 30000;
  /// Total send+recv attempts per Call (>= 1).
  int max_attempts = 3;
  /// First retry delay; doubles per attempt (exponential backoff).
  int backoff_ms = 50;
};

/// One request/response exchange at a time over an established connection.
/// Call() retries transport failures with exponential backoff (each retry
/// accumulates `net.connect_retries`) and records per-RPC latency into the
/// `net.rpc.seconds` histogram. A deadline expiry poisons the stream — the
/// late response could arrive mid-next-exchange — so the channel marks
/// itself broken and every later Call fails fast; the coordinator maps
/// that onto dropped participants.
class RpcChannel {
 public:
  RpcChannel() = default;
  RpcChannel(Socket sock, const RpcOptions& options);

  bool ok() const { return healthy_ && sock_.valid(); }
  Socket& socket() { return sock_; }

  template <typename Req, typename Resp>
  Status Call(const Req& req, Resp* resp, compress::Link* link = nullptr) {
    return CallImpl(
        [&](Socket& s) { return SendMessage(s, req, link); },
        [&](Socket& s) { return ExpectMessage(s, resp, link); });
  }

 private:
  using Step = std::function<Status(Socket&)>;
  Status CallImpl(const Step& send, const Step& recv);

  Socket sock_;
  RpcOptions options_;
  bool healthy_ = false;
};

/// Worker-side connect loop: dials host:port up to `max_attempts` times
/// with exponential backoff (covers the worker-starts-first race), each
/// retry accumulating `net.connect_retries`.
Result<Socket> ConnectWithRetry(const std::string& host, int port,
                                const RpcOptions& options);

template <typename M>
Status ExpectMessage(Socket& sock, M* out, compress::Link* link) {
  Result<serialize::Reader> reader = RecvMessage(sock);
  FEDGTA_RETURN_IF_ERROR(reader.status());
  Result<MsgType> type = ReadMsgType(&*reader);
  FEDGTA_RETURN_IF_ERROR(type.status());
  if (*type == MsgType::kError) {
    ErrorMsg err;
    FEDGTA_RETURN_IF_ERROR(err.Decode(&*reader));
    return FailedPreconditionError("peer error: " + err.message);
  }
  if (*type != M::kType) {
    return InvalidArgumentError(std::string("expected ") +
                                MsgTypeName(M::kType) + ", peer sent " +
                                MsgTypeName(*type));
  }
  FEDGTA_RETURN_IF_ERROR(out->Decode(&*reader, link));
  if (!reader->AtEnd()) {
    return InvalidArgumentError(std::string("trailing bytes after ") +
                                MsgTypeName(M::kType));
  }
  if (link != nullptr) AddRecvSavedBytes(link->TakeSavedBytes());
  return OkStatus();
}

}  // namespace net
}  // namespace fedgta

#endif  // FEDGTA_NET_RPC_H_
