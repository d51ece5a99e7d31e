#ifndef FEDGTA_FED_HIERARCHY_H_
#define FEDGTA_FED_HIERARCHY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "core/fedgta_metrics.h"
#include "fed/remote_config.h"
#include "fed/role.h"
#include "fed/round_engine.h"
#include "fed/simulation.h"
#include "fed/strategy.h"
#include "fed/worker_fleet.h"
#include "net/rpc.h"
#include "net/status.h"
#include "obs/metrics_delta.h"

namespace fedgta {
namespace fed {

/// Envelope bodies of the routed root ↔ aggregator plane (DESIGN.md §5k).
/// Each struct is the nested serialize payload of one EnvelopeKind:
/// RoutedMsg carries it as an opaque string, so the wire protocol never
/// grows a new MsgType for a new hierarchical phase. Encode/Decode pairs
/// follow the checkpoint conventions (fixed order, length-prefixed
/// vectors); bodies are versioned by the protocol version the Hello
/// carries — any other version is rejected there.

/// root → agg: everything one regional aggregator needs before it can
/// accept its worker slice — the worker-facing wire config (forwarded
/// verbatim as AssignConfig), its shard of the client space, the worker
/// split, the transport knobs of its fleet, and the Eq. 7 weighting its
/// sets use.
struct ShardAssignBody {
  net::WireFedConfig config;
  int32_t agg_index = 0;
  int32_t num_aggregators = 1;
  int32_t shard_begin = 0;
  int32_t shard_end = 0;
  /// Workers this aggregator accepts; its first worker's global index.
  int32_t num_workers = 1;
  int32_t worker_index_base = 0;
  // Worker-fleet transport knobs.
  std::string compress = "raw";
  int32_t compress_topk = 0;
  int32_t rpc_deadline_ms = 30000;
  int32_t rpc_max_attempts = 3;
  int32_t rpc_backoff_ms = 50;
  int32_t accept_timeout_ms = 60000;
  /// Eq. 7 weights by train size instead of confidence: FedGTA's "w/o
  /// Conf." ablation, and every strategy that uploads no confidence
  /// (fedavg, fedprox). Server-side, never shipped to workers.
  bool disable_confidence = false;
  /// Clock sync echo (same NTP midpoint scheme as AssignConfig): root
  /// trace clock at Hello arrival / at this send.
  int64_t hello_recv_us = 0;
  int64_t assign_send_us = 0;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// agg → root: the shard is wired up. `init_params` is non-empty only from
/// the shard hosting client 0 (the common initialization); `status_port`
/// is the aggregator's own live status endpoint (-1 when disabled).
struct ShardReadyBody {
  int64_t param_count = 0;
  std::vector<float> init_params;
  int32_t status_port = -1;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// root → agg: client 0's fresh weights, broadcast so every shard seeds
/// its parameter table identically.
struct InitModelBody {
  std::vector<float> params;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// root → agg: one round's shard participants (ascending global ids) with
/// their injected fates. The aggregator serves each its row of the
/// shard's parameter table.
struct TrainShardBody {
  std::vector<int32_t> participants;
  std::vector<uint32_t> fates;  // ClientFate, aligned

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// agg → root: per-participant round outcome, aligned with the request.
/// Each survivor's raw Eq. 5 moment row rides along (empty for strategies
/// that upload none), from which the root builds the round's Eq. 6 sets;
/// weights stay staged at the aggregator. Rows for non-survivors are
/// empty; the decoder rejects any list not aligned with `rpc_ok`.
struct TrainShardDoneBody {
  std::vector<uint32_t> rpc_ok;
  std::vector<double> seconds;
  std::vector<double> losses;
  std::vector<int64_t> num_samples;
  std::vector<double> confidences;
  std::vector<std::vector<float>> moments;
  /// Shard totals of the simulated communication volume, computed at the
  /// aggregator over its survivor results with the base
  /// Strategy::RoundCommunication formula (integer sums — order-free).
  int64_t upload_floats = 0;
  int64_t download_floats = 0;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// One cross-shard set's accumulator state in a chained Eq. 7 pass.
struct PartialSet {
  std::vector<int32_t> canonical;
  double weight_sum = 0.0;
  std::vector<float> acc;
};

/// root → agg: the accumulators of every cross-shard set with members on
/// this shard. Visiting shards in ascending shard order replays the
/// single-server left-associated float accumulation exactly (DESIGN.md
/// §5k).
struct PartialAggregateBody {
  std::vector<PartialSet> sets;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// agg → root: the updated accumulators, aligned with the request.
struct PartialBlockBody {
  std::vector<std::vector<float>> accs;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// root → agg: one shard's share of the round's Eq. 7 outcome, once per
/// round after the chained pass. Group k is either a canonical set whose
/// members and receivers all lie inside the shard (`local_sets[k]`), which
/// the shard aggregates itself, or the finished vector of any other set
/// (`params[k]`); the other entry is empty. `group_of[r]` is the group
/// shard client `shard_begin + r` receives, or -1 when it keeps its
/// current weights (FedGTA personalizes survivors only; a global model
/// reaches every client).
struct GroupDeliverBody {
  std::vector<std::vector<int32_t>> local_sets;
  std::vector<std::vector<float>> params;
  std::vector<int64_t> group_of;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// agg → root: per-client accuracies for the shard (aligned arrays;
/// `evaluated` = 0 marks clients lost to a dead worker).
struct EvalShardDoneBody {
  std::vector<int32_t> ids;
  std::vector<double> test_accuracy;
  std::vector<double> val_accuracy;
  std::vector<uint32_t> evaluated;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// Packs `body` into a routed envelope of `kind`.
template <typename Body>
net::RoutedMsg MakeEnvelope(net::EnvelopeKind kind, int round,
                            const Body& body) {
  net::RoutedMsg msg;
  msg.kind = static_cast<uint32_t>(kind);
  msg.round = round;
  serialize::Writer w;
  body.Encode(&w);
  msg.body = w.payload();
  return msg;
}

/// A bodyless envelope (acks, compute-only requests).
net::RoutedMsg MakeEnvelope(net::EnvelopeKind kind, int round);

/// Validates the envelope kind and decodes its body; trailing bytes are a
/// protocol error, exactly like the top-level message framing.
template <typename Body>
Status UnpackEnvelope(const net::RoutedMsg& msg, net::EnvelopeKind kind,
                      Body* out) {
  if (msg.kind != static_cast<uint32_t>(kind)) {
    return InvalidArgumentError(
        std::string("expected envelope ") + net::EnvelopeKindName(kind) +
        ", got " +
        net::EnvelopeKindName(static_cast<net::EnvelopeKind>(msg.kind)));
  }
  serialize::Reader r(msg.body);
  FEDGTA_RETURN_IF_ERROR(out->Decode(&r));
  if (!r.AtEnd()) {
    return InvalidArgumentError(std::string("trailing bytes in ") +
                                net::EnvelopeKindName(kind) + " body");
  }
  return OkStatus();
}

/// The root's Eq. 6 input: a client-id-indexed table of `num_clients`
/// views of each survivor's shipped moment row, read in place from
/// `results` (which must outlive it) by GroupByAggregationSet; clients
/// without a row get an empty view. Each shard's WorkerFleet pins only its
/// own row width, so rows of differing widths are InvalidArgument here
/// instead of an abort in StackNormalizedMoments.
Result<std::vector<std::span<const float>>> MomentTable(
    int num_clients, const std::vector<LocalResult>& results);

/// The root of a hierarchical federation (DESIGN.md §5k) and the
/// RoundEngine's transport for it: accepts `config.num_aggregators`
/// regional aggregators (Hello with node_role = kAggregator), deals each a
/// contiguous client shard and worker slice via ShardAssign, and turns the
/// engine's train / aggregate / evaluate calls into the routed envelope
/// sequence — TrainShard, the chained Eq. 7 partial pass, one
/// GroupDeliver per shard, EvalShard (bodyless: each aggregator evaluates
/// its own table). FedGTA's groups are its Eq. 6 sets, which the root
/// builds itself, with the single-server code, from the moment rows that
/// ride up in TrainShardDone. Strategies that upload no topology metrics
/// (fedavg, fedprox) are Eq. 7 with one set of every survivor, weighted by
/// train size, whose result every client receives. Weights never leave
/// their shard except inside the chained pass. The run result is
/// bit-identical to the in-process Simulation (see
/// fed::DeterministicEquals). A dead aggregator's shard degrades to
/// dropped clients, except during the chained pass, which fails the run.
class RootCoordinator : private RoundTransport {
 public:
  explicit RootCoordinator(const RemoteFedConfig& config);

  /// Binds the aggregator-facing listener and (if configured) the status
  /// endpoint. No threads yet — callers may fork after this.
  Status Listen(int port);
  /// Runs the full federation; returns per-round statistics.
  Result<SimulationResult> Run();

  int port() const { return server_.port(); }
  /// Bound status port, -1 when disabled.
  int status_port() const { return status_.port(); }

 private:
  struct AggregatorLink {
    net::RpcChannel channel;
    ShardRange clients;
    ShardRange workers;
    int status_port = -1;
    /// False once any exchange with this aggregator failed; its clients
    /// drop from later rounds like a dead worker's would.
    bool alive = true;
    std::shared_ptr<WorkerHealth> health = std::make_shared<WorkerHealth>();
  };

  /// One aggregator's row in the status endpoint's mid-tier table.
  struct AggregatorStatusEntry {
    std::shared_ptr<WorkerHealth> health;
    ShardRange clients;
    ShardRange workers;
    int status_port = -1;
  };

  /// One aggregator's slice of the current round.
  struct ShardRoundState {
    std::vector<int> participants;  // ascending global ids
    std::vector<ClientFate> fates;
    TrainShardDoneBody done;
    bool trained = false;  // TrainShard exchange succeeded
  };

  Status ValidateConfig() const;
  Status Handshake();
  /// One request/response exchange with aggregator `a`; applies the
  /// reply's metrics delta and records link health. A failure marks the
  /// link dead.
  Status CallAggregator(size_t a, const net::RoutedMsg& request,
                        net::RoutedMsg* response);
  /// Runs `fn` over every aggregator with `active[a]` set, one thread
  /// each (the round TraceContext is re-installed). Returns the first
  /// failure as "aggregator <a> failed mid-round during <phase>"; phases
  /// that degrade instead of aborting ignore it.
  Status ParallelExchange(const std::vector<char>& active, const char* phase,
                          const std::function<Status(size_t)>& fn);
  // RoundTransport
  std::vector<ClientOutcome> Train(
      int round, const std::vector<int>& participants,
      const std::vector<ClientFate>& fates) override;
  /// The round's Eq. 7 groups (FedGTA: Eq. 6 here; otherwise one global
  /// set), then the routed Eq. 7 sequence (AggregateGroups).
  Status Aggregate(int round, const std::vector<int>& ids,
                   std::vector<LocalResult>& results) override;
  Strategy::CommunicationStats Communication(
      const std::vector<LocalResult>& results) override;
  Status Evaluate(int round, ClientAccuracies* acc) override;

  /// The routed Eq. 7 over the round's groups (`clients` = receivers): the
  /// chained partial pass for every group not wholly inside one shard,
  /// then one GroupDeliver per shard with receivers.
  Status AggregateGroups(int round,
                         const std::vector<AggregationGroup>& groups);
  /// Eq. 7 weight of one survivor at the root (confidence, or the
  /// train-size fallback) — the same value ShardPlane::MemberWeight uses.
  double MemberWeight(int client_id) const;
  std::string RenderStatus(const std::string& command) const;

  RemoteFedConfig config_;
  net::ServerSocket server_;
  /// fedavg/fedprox: one Eq. 7 set of every survivor, received by every
  /// client (the strategy uploads no topology metrics).
  bool global_set_ = false;
  FederatedDataset data_;
  std::vector<int64_t> train_sizes_;
  FedGtaOptions gta_;  // server-side Eq. 6/7 knobs
  int64_t param_count_ = -1;
  std::vector<float> init_params_;
  std::vector<AggregatorLink> aggs_;
  /// Every aggregator's slice of the current round.
  std::vector<ShardRoundState> round_shards_;
  uint64_t trace_id_ = 0;
  /// Aggregator deltas merge under agg.<i>.*; their own worker.*/fleet.*
  /// rollups pass through un-resummed (see FleetMetricsMerger).
  FleetMetricsMerger fleet_{&GlobalMetrics(), "agg"};
  net::StatusServer status_;
  mutable std::mutex status_mutex_;
  std::vector<AggregatorStatusEntry> agg_status_;  // guarded by status_mutex_
  /// Per-survivor confidence of the current round, indexed by client id
  /// (root-side copy for Eq. 7 weight sums).
  std::vector<double> confidence_by_id_;
};

}  // namespace fed
}  // namespace fedgta

#endif  // FEDGTA_FED_HIERARCHY_H_
