#ifndef FEDGTA_FED_REMOTE_COORDINATOR_H_
#define FEDGTA_FED_REMOTE_COORDINATOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fed/remote_config.h"
#include "fed/worker_fleet.h"
#include "net/rpc.h"
#include "net/status.h"
#include "obs/metrics_delta.h"

namespace fedgta {

/// FedGTA server over TCP: accepts worker connections, hands each a shard
/// assignment, and is the RoundEngine's transport for the flat fleet
/// (DESIGN.md "Round engine"): it trains participants by exchanging weights
/// (and FedGTA H/M uploads) with the workers hosting them, aggregates
/// centrally, and evaluates every client on its worker. The workers
/// replicate the executor's client-side semantics, so with healthy workers
/// the run is bit-identical to the in-process Simulation of the same config
/// (the loopback test pins this).
///
/// An unreachable worker, a broken connection, or a blown `rpc.deadline_ms`
/// (the straggler deadline) turns the affected participants into dropped
/// clients for the round. Injected fates are computed on both sides from
/// the pure FateOf schedule: dropouts are never contacted, stragglers and
/// crashed clients train remotely (fully / truncated).
///
/// Async runtime (config.sim.async; DESIGN.md §5i): train requests go onto
/// per-worker feed threads and completed updates stream into the engine's
/// AsyncUpdateQueue instead of meeting at a round barrier.
class RemoteCoordinator : private fed::RoundTransport {
 public:
  explicit RemoteCoordinator(const RemoteFedConfig& config);
  ~RemoteCoordinator();

  /// Binds the listening socket (port 0 = ephemeral; see port()). When
  /// `config.status_port` >= 0 the status endpoint is bound here too (no
  /// thread yet — callers may still fork). Workers may start dialing as
  /// soon as this returns.
  Status Listen(int port);
  int port() const { return server_.port(); }
  /// Bound status endpoint port; -1 when disabled.
  int status_port() const { return status_.port(); }

  /// Accepts `num_workers` workers, runs the handshake, and drives all
  /// rounds. Returns the same SimulationResult an in-process run would.
  /// The status endpoint (if bound) starts serving at the top of this call
  /// and keeps answering until the coordinator is destroyed, so the final
  /// state stays inspectable after the run.
  Result<SimulationResult> Run();

 private:
  struct AsyncFeeds;

  /// Accepts workers, exchanges Hello/AssignConfig/ConfigAck, initializes
  /// the strategy from the reported common init weights.
  Status Handshake();

  // fed::RoundTransport
  Strategy& strategy() override { return *strategy_; }
  std::vector<ClientOutcome> Train(
      int round, const std::vector<int>& participants,
      const std::vector<ClientFate>& fates) override;
  void TrainAsync(int round, const std::vector<int>& participants,
                  const std::vector<ClientFate>& fates,
                  const Completion& done) override;
  /// Every client evaluates on its hosting worker; clients hosted by dead
  /// workers stay unevaluated.
  Status Evaluate(int round, fed::ClientAccuracies* acc) override;

  /// Body of worker `w`'s async feed thread.
  void FeedLoop(size_t w);
  /// Drains and joins the async feed threads (no-op when none started).
  void StopFeeds();
  /// Renders one status-endpoint reply (runs on the endpoint's thread).
  std::string RenderStatus(const std::string& command) const;

  RemoteFedConfig config_;
  net::ServerSocket server_;
  std::unique_ptr<Strategy> strategy_;
  FederatedDataset data_;
  /// Worker connections + per-round dispatch (shared with the hierarchy's
  /// regional aggregators; see fed/worker_fleet.h).
  WorkerFleet workers_;

  /// One id per Run(), stamped into every RPC envelope so worker spans
  /// stitch to this run's timeline.
  uint64_t trace_id_ = 0;
  /// Merges piggybacked worker metrics deltas into worker.<id>.* / fleet.*.
  FleetMetricsMerger fleet_{&GlobalMetrics()};
  net::StatusServer status_;
  /// Guards fleet_status_ (published once after the handshake, read by the
  /// status endpoint thread).
  mutable std::mutex status_mutex_;
  std::vector<WorkerStatusEntry> fleet_status_;
  /// Async feed threads (null until the first async dispatch); last, so
  /// everything they use outlives them.
  std::unique_ptr<AsyncFeeds> feeds_;
};

}  // namespace fedgta

#endif  // FEDGTA_FED_REMOTE_COORDINATOR_H_
