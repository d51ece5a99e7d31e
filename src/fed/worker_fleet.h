#ifndef FEDGTA_FED_WORKER_FLEET_H_
#define FEDGTA_FED_WORKER_FLEET_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fed/failure.h"
#include "net/download_stash.h"
#include "net/rpc.h"
#include "obs/metrics_delta.h"

namespace fedgta {

/// Live per-worker signals, updated by the dispatch threads and read by
/// the status endpoint — atomics only, no lock on the hot path.
struct WorkerHealth {
  std::atomic<bool> healthy{true};
  /// Trace-clock time of the last successful response; 0 before any.
  std::atomic<int64_t> last_response_us{0};
  std::atomic<int64_t> responses{0};
};

struct WorkerLink {
  net::RpcChannel channel;
  /// Hosted client ids, ascending.
  std::vector<int> client_ids;
  /// The last weights sent to each hosted client (DESIGN.md §5e), so a
  /// request that would resend them carries only the reuse marker. Touched
  /// only by the one thread currently driving this worker's channel.
  net::DownloadStash downloads;
  /// Per-connection compression state (DESIGN.md §5j), reading
  /// `downloads` as its delta base; null for raw, keeping that path's bytes
  /// exactly the uncompressed wire format. Same threading rule as
  /// `downloads`.
  std::unique_ptr<net::compress::Link> compress;
  /// Shared with the published fleet status (the endpoint may outlive a
  /// rebuilt fleet).
  std::shared_ptr<WorkerHealth> health = std::make_shared<WorkerHealth>();
};

/// One worker's row in a status-endpoint fleet table.
struct WorkerStatusEntry {
  std::shared_ptr<WorkerHealth> health;
  int num_clients = 0;
};

/// One status-endpoint row per worker ("  worker <i>: healthy|DOWN
/// clients= responses= lag_ms="), numbering entry w as index_base + w.
std::string RenderWorkerRows(const std::vector<WorkerStatusEntry>& entries,
                             int index_base);

struct WorkerFleetOptions {
  /// Experiment identity shipped in every AssignConfig.
  net::WireFedConfig wire;
  /// Wire codec assigned to every worker connection (a
  /// net::compress::ListCodecNames() name) and delta top-k.
  std::string compress = "raw";
  int compress_topk = 0;
  net::RpcOptions rpc;
  int accept_timeout_ms = 60000;
  /// Global index of this fleet's first worker. The flat server owns the
  /// whole fleet (base 0); a regional aggregator owns a slice of it, and
  /// the base keeps worker trace pids and worker.<id>.* metric namespaces
  /// globally unique across aggregators.
  int worker_index_base = 0;
};

/// The worker-facing half of a federation server: accepts a fleet of
/// worker connections, runs the Hello/AssignConfig/ConfigAck handshake
/// (version check, codec assignment, clock-sync echo), and drives
/// train/eval dispatch over them. Both the flat RemoteCoordinator and the
/// regional aggregator (DESIGN.md §5k) delegate here, so the worker
/// protocol has exactly one server-side implementation — a worker cannot
/// tell which kind of process accepted it.
class WorkerFleet {
 public:
  /// Returns a fresh copy of the weights a client starts from. Called on
  /// dispatch threads; must be safe for concurrent distinct clients.
  using WeightsFn = std::function<std::vector<float>(int client_id)>;

  /// Accepts one worker per `ownership` entry (ownership[w] = the
  /// ascending client ids worker w hosts; ids are global, < num_clients)
  /// and completes the handshake with each. Enforces the protocol
  /// version, worker role, and cross-worker parameter-count agreement.
  Status Accept(net::ServerSocket& server, int num_clients,
                const std::vector<std::vector<int>>& ownership,
                const WorkerFleetOptions& options);

  /// Dispatches one training round: participants[i] with fates[i] (a
  /// dropout is never contacted) onto their hosting workers, one dispatch
  /// thread per worker, responses landing in participant-index-aligned
  /// slots. Transport failures surface in (*rpc_status)[i]; the caller
  /// maps them onto dropped participants. Must run with the round's
  /// TraceContext installed — dispatch threads re-install it.
  void TrainRound(int round, const std::vector<int>& participants,
                  const std::vector<ClientFate>& fates,
                  const WeightsFn& weights_for, FleetMetricsMerger* merger,
                  std::vector<net::TrainResponseMsg>* responses,
                  std::vector<Status>* rpc_status);

  /// One train exchange for `client_id` with its hosting worker; the caller
  /// must be the only thread driving that worker's channel. A transport
  /// failure marks the worker unhealthy; a reply for another client or
  /// round is an error too, and so is an upload whose weights are not
  /// param_count() long or whose moments length differs from the fleet's
  /// earlier uploads (it would abort aggregation).
  Status TrainClient(int round, int client_id, std::vector<float> weights,
                     FleetMetricsMerger* merger,
                     net::TrainResponseMsg* response);

  /// Evaluates every hosted client on its worker; arrays are indexed by
  /// global client id and must be pre-sized to num_clients. Clients on
  /// dead workers keep evaluated[id] == 0.
  void EvalClients(const WeightsFn& weights_for, FleetMetricsMerger* merger,
                   std::vector<double>* test_acc, std::vector<double>* val_acc,
                   std::vector<char>* evaluated);

  /// Best-effort goodbye; a dead worker just errors out of the exchange.
  void Shutdown();

  size_t num_workers() const { return links_.size(); }
  /// Hosting worker (local index) of a client; -1 when unhosted here.
  int owner(int client_id) const {
    return owner_[static_cast<size_t>(client_id)];
  }
  /// Agreed model parameter count; -1 before Accept.
  int64_t param_count() const { return param_count_; }
  /// Common initialization reported by the worker hosting client 0;
  /// empty when no accepted worker hosts client 0 (possible for a
  /// regional fleet whose shard excludes it — the caller decides).
  const std::vector<float>& init_params() const { return init_params_; }
  std::vector<WorkerStatusEntry> StatusSnapshot() const;

 private:
  /// One request/response exchange with local worker `w`: records link
  /// health and merges the reply's metrics delta.
  template <typename Request, typename Response>
  Status Call(size_t w, const Request& request, Response* response,
              FleetMetricsMerger* merger);

  /// Sized once in Accept and never reallocated: each Link points at its
  /// WorkerLink's stash.
  std::vector<WorkerLink> links_;
  /// client id -> local worker index; -1 unhosted.
  std::vector<int> owner_;
  int worker_index_base_ = 0;
  int64_t param_count_ = -1;
  /// Moments length of the first upload that carried a payload; every
  /// later upload must match. -1 until then (set from dispatch threads).
  std::atomic<int64_t> moments_size_{-1};
  std::vector<float> init_params_;
};

}  // namespace fedgta

#endif  // FEDGTA_FED_WORKER_FLEET_H_
