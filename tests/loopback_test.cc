// Distributed-vs-in-process determinism: a FedGTA run driven over real TCP
// worker processes (fork+exec of the fedgta_worker binary, loopback
// transport) must be bit-identical to the in-process Simulation of the same
// configuration — same accuracy curve, same losses, same communication and
// failure totals. Also covers graceful degradation when a worker dies
// mid-round.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fed/failure.h"
#include "fed/remote_client_runner.h"
#include "fed/remote_coordinator.h"
#include "fed/run_result.h"
#include "fed/worker_fleet.h"
#include "fed/simulation.h"
#include "net/frame.h"
#include "net/rpc.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fedgta {
namespace {

pid_t SpawnWorker(int port, int max_train_requests = 0,
                  const std::string& trace_out = "",
                  const std::string& compress = "") {
  const pid_t pid = fork();
  if (pid == 0) {
    std::vector<std::string> args = {
        FEDGTA_WORKER_BINARY,
        "--host=127.0.0.1",
        "--port=" + std::to_string(port),
        "--connect_attempts=60",
        "--deadline_ms=60000",
        "--num_threads=2",
        "--max_train_requests=" + std::to_string(max_train_requests)};
    if (!trace_out.empty()) args.push_back("--trace_out=" + trace_out);
    // Absent: the worker advertises every codec and the server's request
    // decides. "off" (or a codec name) restricts the advertisement.
    if (!compress.empty()) args.push_back("--compress=" + compress);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    execv(FEDGTA_WORKER_BINARY, argv.data());
    _exit(127);  // exec failed
  }
  return pid;
}

/// Listens, forks the worker fleet, drives the run, reaps the children.
/// Forking happens before any thread is created in this process (the
/// coordinator's dispatch threads start inside Run()).
Result<SimulationResult> RunRemote(const RemoteFedConfig& config,
                                   int max_train_requests = 0,
                                   std::vector<int>* exit_codes = nullptr,
                                   const std::string& worker_compress = "") {
  RemoteCoordinator coordinator(config);
  FEDGTA_RETURN_IF_ERROR(coordinator.Listen(0));
  std::vector<pid_t> pids;
  pids.reserve(static_cast<size_t>(config.num_workers));
  for (int w = 0; w < config.num_workers; ++w) {
    pids.push_back(SpawnWorker(coordinator.port(), max_train_requests,
                               /*trace_out=*/"", worker_compress));
  }
  Result<SimulationResult> result = coordinator.Run();
  for (pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    if (exit_codes != nullptr) {
      exit_codes->push_back(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    }
  }
  return result;
}

/// The same run, in process — the reference the transport must reproduce.
SimulationResult RunInProcess(const RemoteFedConfig& config) {
  FederatedDataset data = MaterializeFederatedDataset(
      config.dataset, config.seed, config.split, config.federated);
  Result<std::unique_ptr<Strategy>> strategy =
      MakeStrategy(config.strategy, config.strategy_options);
  EXPECT_TRUE(strategy.ok()) << strategy.status();
  SimulationConfig sim = config.sim;
  sim.seed = config.seed;
  Simulation simulation(&data, config.model, config.optimizer,
                        std::move(*strategy), sim);
  return simulation.Run();
}

/// Everything deterministic must match exactly; wall-clock fields are
/// deliberately excluded.
void ExpectBitIdentical(const SimulationResult& remote,
                        const SimulationResult& local) {
  EXPECT_EQ(remote.best_test_accuracy, local.best_test_accuracy);
  EXPECT_EQ(remote.final_test_accuracy, local.final_test_accuracy);
  EXPECT_EQ(remote.total_upload_floats, local.total_upload_floats);
  EXPECT_EQ(remote.total_download_floats, local.total_download_floats);
  EXPECT_EQ(remote.total_dropped_clients, local.total_dropped_clients);
  EXPECT_EQ(remote.total_straggler_clients, local.total_straggler_clients);
  EXPECT_EQ(remote.total_crashed_clients, local.total_crashed_clients);
  ASSERT_EQ(remote.curve.size(), local.curve.size());
  for (size_t i = 0; i < remote.curve.size(); ++i) {
    const RoundStats& r = remote.curve[i];
    const RoundStats& l = local.curve[i];
    EXPECT_EQ(r.round, l.round);
    EXPECT_EQ(r.test_accuracy, l.test_accuracy) << "round " << r.round;
    EXPECT_EQ(r.val_accuracy, l.val_accuracy) << "round " << r.round;
    EXPECT_EQ(r.train_loss, l.train_loss) << "round " << r.round;
    EXPECT_EQ(r.upload_floats, l.upload_floats);
    EXPECT_EQ(r.download_floats, l.download_floats);
    EXPECT_EQ(r.dropped_clients, l.dropped_clients);
    EXPECT_EQ(r.straggler_clients, l.straggler_clients);
    EXPECT_EQ(r.crashed_clients, l.crashed_clients);
  }
}

RemoteFedConfig BaseConfig() {
  RemoteFedConfig config;
  config.dataset = "cora";
  config.seed = 7;
  config.split.num_clients = 10;
  config.model.type = ModelType::kSgc;
  config.model.hidden = 16;
  config.model.k = 2;
  config.strategy = "fedgta";
  config.sim.rounds = 3;
  config.sim.local_epochs = 2;
  config.sim.eval_every = 1;
  config.num_workers = 5;
  config.rpc.deadline_ms = 120000;
  config.accept_timeout_ms = 120000;
  return config;
}

TEST(LoopbackTest, FedGtaOverFiveWorkersIsBitIdenticalToSimulation) {
  const RemoteFedConfig config = BaseConfig();
  std::vector<int> exit_codes;
  // Remote first: fork before this process creates thread-pool threads.
  Result<SimulationResult> remote =
      RunRemote(config, /*max_train_requests=*/0, &exit_codes);
  ASSERT_TRUE(remote.ok()) << remote.status();
  for (int code : exit_codes) EXPECT_EQ(code, 0);
  const SimulationResult local = RunInProcess(config);
  ExpectBitIdentical(*remote, local);
  // Sanity: the run actually learned something.
  EXPECT_GT(local.final_test_accuracy, 0.2);
}

TEST(LoopbackTest, FailureInjectionMinibatchAndSamplingStayIdentical) {
  RemoteFedConfig config = BaseConfig();
  config.seed = 11;
  config.num_workers = 3;
  config.sim.batch_size = 16;
  config.sim.participation = 0.6;
  config.sim.failure.dropout_rate = 0.25;
  config.sim.failure.straggler_rate = 0.15;
  config.sim.failure.crash_rate = 0.15;
  Result<SimulationResult> remote = RunRemote(config);
  ASSERT_TRUE(remote.ok()) << remote.status();
  const SimulationResult local = RunInProcess(config);
  EXPECT_GT(local.total_dropped_clients + local.total_straggler_clients +
                local.total_crashed_clients,
            0);
  ExpectBitIdentical(*remote, local);
}

TEST(LoopbackTest, FedProxOverTwoWorkersIsBitIdenticalToSimulation) {
  RemoteFedConfig config = BaseConfig();
  config.strategy = "fedprox";
  config.strategy_options.prox_mu = 0.1f;
  config.num_workers = 2;
  config.sim.rounds = 2;
  Result<SimulationResult> remote = RunRemote(config);
  ASSERT_TRUE(remote.ok()) << remote.status();
  const SimulationResult local = RunInProcess(config);
  ExpectBitIdentical(*remote, local);
}

TEST(LoopbackTest, AsyncTauZeroIsBitIdenticalToSyncSimulation) {
  // The bounded-staleness runtime at tau = 0: the wait rule degenerates to
  // the full round barrier, every injected straggler's late upload misses
  // the window, and the run must reproduce the *synchronous* in-process
  // simulation bit for bit — the async plane's determinism oracle.
  RemoteFedConfig config = BaseConfig();
  config.seed = 13;
  config.num_workers = 3;
  config.sim.rounds = 3;
  config.sim.failure.straggler_rate = 0.3;
  config.sim.failure.seed = 5;
  config.sim.async = true;
  config.sim.staleness_tau = 0;

  std::vector<int> exit_codes;
  Result<SimulationResult> remote =
      RunRemote(config, /*max_train_requests=*/0, &exit_codes);
  ASSERT_TRUE(remote.ok()) << remote.status();
  for (int code : exit_codes) EXPECT_EQ(code, 0);

  RemoteFedConfig sync_config = config;
  sync_config.sim.async = false;
  sync_config.sim.staleness_tau = 0;
  const SimulationResult local = RunInProcess(sync_config);
  EXPECT_GT(local.total_straggler_clients, 0);
  ExpectBitIdentical(*remote, local);
}

int64_t CounterValue(const std::string& name) {
  const Counter* c = GlobalMetrics().FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

TEST(LoopbackTest, AsyncBoundedStalenessMatchesOracleAndPlan) {
  // tau = 2 over five workers with 40% injected stragglers. Every admission
  // decision is a pure function of (seed, round, client): a straggler
  // trained at round r with StragglerDelay d is admitted iff d <= tau and
  // r + d lands inside the run, stale-dropped iff d > tau (and it arrives
  // at all), undelivered iff the run ends first. The remote run must match
  // the in-process async oracle bit for bit and the fed.async.* counters
  // must match the plan's closed form exactly.
  RemoteFedConfig config = BaseConfig();
  config.seed = 17;
  config.num_workers = 5;
  config.sim.rounds = 5;
  config.sim.failure.straggler_rate = 0.4;
  config.sim.failure.seed = 11;
  config.sim.async = true;
  config.sim.staleness_tau = 2;
  config.sim.staleness_decay = 0.5;

  const FailurePlan plan(config.sim.failure);
  int64_t expect_stale = 0;
  int64_t expect_undelivered = 0;
  int64_t expect_accepted = 0;  // admitted + superseded
  for (int r = 1; r <= config.sim.rounds; ++r) {
    for (int c = 0; c < config.split.num_clients; ++c) {
      if (plan.FateOf(r, c) != ClientFate::kStraggler) {
        ++expect_accepted;  // healthy: always admitted within the window
        continue;
      }
      const int d = plan.StragglerDelay(r, c);
      if (r + d > config.sim.rounds) {
        ++expect_undelivered;
      } else if (d > config.sim.staleness_tau) {
        ++expect_stale;
      } else {
        ++expect_accepted;
      }
    }
  }
  ASSERT_GT(expect_stale, 0) << "plan produced no over-tau stragglers";
  ASSERT_GT(expect_undelivered, 0) << "plan produced no undelivered updates";

  const int64_t admitted0 = CounterValue("fed.async.admitted");
  const int64_t superseded0 = CounterValue("fed.async.superseded");
  const int64_t stale0 = CounterValue("fed.async.stale_dropped");
  const int64_t undelivered0 = CounterValue("fed.async.undelivered");

  Result<SimulationResult> remote = RunRemote(config);
  ASSERT_TRUE(remote.ok()) << remote.status();

  EXPECT_EQ(CounterValue("fed.async.stale_dropped") - stale0, expect_stale);
  EXPECT_EQ(CounterValue("fed.async.undelivered") - undelivered0,
            expect_undelivered);
  EXPECT_EQ(CounterValue("fed.async.admitted") - admitted0 +
                CounterValue("fed.async.superseded") - superseded0,
            expect_accepted);
  EXPECT_EQ(remote->total_stale_dropped_updates, expect_stale);
  EXPECT_GT(remote->total_admitted_updates, 0);

  // With eval_every = 1 every round ends in a full barrier, which pins the
  // drain schedule: the distributed run is bit-identical to the in-process
  // oracle even at tau > 0.
  const SimulationResult local = RunInProcess(config);
  ExpectBitIdentical(*remote, local);
  EXPECT_EQ(remote->total_admitted_updates, local.total_admitted_updates);
  EXPECT_EQ(remote->total_stale_dropped_updates,
            local.total_stale_dropped_updates);
}

TEST(LoopbackTest, NonRemotableStrategyIsRejectedBeforeAcceptingWorkers) {
  RemoteFedConfig config = BaseConfig();
  config.strategy = "scaffold";  // mutates per-client server state
  RemoteCoordinator coordinator(config);
  ASSERT_TRUE(coordinator.Listen(0).ok());
  const Result<SimulationResult> result = coordinator.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

std::string QueryStatus(int port, const std::string& command) {
  Result<net::Socket> conn = net::Connect("127.0.0.1", port, 2000);
  EXPECT_TRUE(conn.ok()) << conn.status();
  if (!conn.ok()) return "";
  const std::string line = command + "\n";
  EXPECT_TRUE(conn->WriteFull(line.data(), line.size()).ok());
  std::string reply;
  char byte = 0;
  while (conn->ReadFull(&byte, 1).ok()) reply.push_back(byte);
  return reply;
}

TEST(LoopbackTest, ObservabilityPlaneStitchesTracesMetricsAndStatus) {
  RemoteFedConfig config = BaseConfig();
  config.split.num_clients = 6;
  config.num_workers = 3;
  config.sim.rounds = 2;
  config.status_port = 0;

  const std::string dir = testing::TempDir();
  const std::string server_trace = dir + "/fedgta_lb_server_trace.json";
  const std::string merged = dir + "/fedgta_lb_merged_trace.json";
  std::vector<std::string> worker_traces;
  for (int w = 0; w < config.num_workers; ++w) {
    worker_traces.push_back(dir + "/fedgta_lb_worker_trace_" +
                            std::to_string(w) + ".json");
  }

  // The registry is process-global and cumulative across tests: everything
  // below is asserted as a diff against these baselines.
  const int64_t fleet_train0 =
      CounterValue("fleet.phase.remote_train.calls");
  std::vector<int64_t> worker_train0;
  for (int w = 0; w < config.num_workers; ++w) {
    worker_train0.push_back(CounterValue(
        "worker." + std::to_string(w) + ".phase.remote_train.calls"));
  }

  ClearTrace();
  SetTraceProcessId(1);
  SetTraceProcessName("fedgta_server");
  EnableTracing();

  RemoteCoordinator coordinator(config);
  ASSERT_TRUE(coordinator.Listen(0).ok());
  ASSERT_GT(coordinator.status_port(), 0);
  std::vector<pid_t> pids;
  for (int w = 0; w < config.num_workers; ++w) {
    pids.push_back(SpawnWorker(coordinator.port(), /*max_train_requests=*/0,
                               worker_traces[static_cast<size_t>(w)]));
  }
  Result<SimulationResult> remote = coordinator.Run();
  for (pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  DisableTracing();
  ASSERT_TRUE(remote.ok()) << remote.status();

  // --- Fleet metrics: the server-side rollups are exact. -------------------
  // 2 rounds x 6 clients = 12 train requests across the fleet; each worker
  // piggybacked its phase counter increments on the responses.
  const int rounds_x_clients = config.sim.rounds * config.split.num_clients;
  EXPECT_EQ(CounterValue("fleet.phase.remote_train.calls") - fleet_train0,
            rounds_x_clients);
  int64_t worker_sum = 0;
  for (int w = 0; w < config.num_workers; ++w) {
    worker_sum +=
        CounterValue("worker." + std::to_string(w) +
                     ".phase.remote_train.calls") -
        worker_train0[static_cast<size_t>(w)];
  }
  EXPECT_EQ(worker_sum, rounds_x_clients);
  EXPECT_EQ(CounterValue("obs.fleet.merge_errors"), 0);

  // --- Status endpoint: still serving after Run() returns. -----------------
  const std::string status = QueryStatus(coordinator.status_port(), "status");
  EXPECT_NE(status.find("fedgta server status"), std::string::npos) << status;
  EXPECT_NE(status.find("round: 2/2"), std::string::npos) << status;
  EXPECT_NE(status.find("workers: 3"), std::string::npos) << status;
  const std::string timeline_reply =
      QueryStatus(coordinator.status_port(), "timeline");
  EXPECT_NE(timeline_reply.find("\"round_end\""), std::string::npos);
  const std::string metrics_reply =
      QueryStatus(coordinator.status_port(), "metrics.json");
  EXPECT_NE(metrics_reply.find("fleet.phase.remote_train.calls"),
            std::string::npos);

  // --- Merged trace: worker spans stitch into the server timeline. ---------
  ASSERT_TRUE(WriteChromeTrace(server_trace).ok());
  std::vector<std::string> inputs = {server_trace};
  for (const std::string& t : worker_traces) inputs.push_back(t);
  ASSERT_TRUE(MergeChromeTraces(inputs, merged).ok());

  std::ifstream in(merged);
  ASSERT_TRUE(in.good());
  int remote_train_spans = 0;
  std::map<std::string, std::set<std::string>> pids_by_trace;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"name\": \"remote_train\"") != std::string::npos) {
      ++remote_train_spans;
    }
    const size_t trace_pos = line.find("\"trace_id\": \"");
    const size_t pid_pos = line.find("\"pid\": ");
    if (trace_pos == std::string::npos || pid_pos == std::string::npos) {
      continue;
    }
    const size_t trace_begin = trace_pos + 13;
    const std::string trace_id =
        line.substr(trace_begin, line.find('"', trace_begin) - trace_begin);
    const size_t pid_begin = pid_pos + 7;  // strlen("\"pid\": ")
    const std::string pid =
        line.substr(pid_begin, line.find(',', pid_begin) - pid_begin);
    pids_by_trace[trace_id].insert(pid);
  }
  // One span per remote training execution, recorded inside the workers and
  // present in the merged file.
  EXPECT_EQ(remote_train_spans, rounds_x_clients);
  // The run's trace id appears on the server (pid 1) and at least one
  // worker process (pid >= 2): the cross-process stitch worked.
  bool stitched = false;
  for (const auto& [trace_id, trace_pids] : pids_by_trace) {
    if (trace_pids.size() >= 2) stitched = true;
  }
  EXPECT_TRUE(stitched) << "no trace id spans more than one process";

  // --- Determinism: observability must not perturb the computation. --------
  const SimulationResult local = RunInProcess(config);
  ExpectBitIdentical(*remote, local);

  std::remove(server_trace.c_str());
  std::remove(merged.c_str());
  for (const std::string& t : worker_traces) std::remove(t.c_str());
}

TEST(LoopbackTest, DeltaCompressedRunSavesBytesAndStaysAccurate) {
  RemoteFedConfig config = BaseConfig();
  config.num_workers = 3;
  config.compress = "delta";
  config.status_port = 0;
  // A model big enough for auto top-k to sparsify (96*64 + 64*7 weights >
  // kDeltaAutoFloor); the tiny SGC head ships whole under the auto floor,
  // which is correct behaviour but saves nothing to assert on.
  config.model.type = ModelType::kGcn;
  config.model.hidden = 64;

  const int64_t wire0 = CounterValue("net.bytes_wire");
  const int64_t raw0 = CounterValue("net.bytes_raw");

  RemoteCoordinator coordinator(config);
  ASSERT_TRUE(coordinator.Listen(0).ok());
  std::vector<pid_t> pids;
  for (int w = 0; w < config.num_workers; ++w) {
    pids.push_back(SpawnWorker(coordinator.port()));
  }
  Result<SimulationResult> remote = coordinator.Run();
  for (pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  ASSERT_TRUE(remote.ok()) << remote.status();

  // Delta sparsification is lossy on uploads, so exact bit-identity is off
  // the table — but the run must stay in the oracle's neighborhood.
  const SimulationResult local = RunInProcess(config);
  EXPECT_GT(remote->final_test_accuracy, 0.1);
  EXPECT_NEAR(remote->final_test_accuracy, local.final_test_accuracy, 0.15);

  // The server saved bytes: raw (what the traffic would have cost) grew
  // faster than wire (what actually crossed the socket). Both sides of the
  // savings land here — send-side via SendFrame, recv-side post-decode.
  const int64_t wire = CounterValue("net.bytes_wire") - wire0;
  const int64_t raw = CounterValue("net.bytes_raw") - raw0;
  ASSERT_GT(wire, 0);
  EXPECT_GT(raw, wire) << "compression engaged but saved nothing";

  // The live status endpoint reports the wire plane.
  const std::string status = QueryStatus(coordinator.status_port(), "status");
  EXPECT_NE(status.find("net (compress=delta):"), std::string::npos)
      << status;
  EXPECT_NE(status.find("compression_ratio:"), std::string::npos) << status;
}

TEST(LoopbackTest, CompressionNegotiatesToRawAgainstRestrictedWorkers) {
  // The server asks for delta but every worker advertises nothing
  // (--compress=off) — the same degradation path a v3 peer takes. The
  // negotiated-raw run must stay bit-identical to the in-process oracle:
  // no Link is constructed, so the bytes are the legacy wire format.
  RemoteFedConfig config = BaseConfig();
  config.num_workers = 2;
  config.sim.rounds = 2;
  config.compress = "delta";
  std::vector<int> exit_codes;
  Result<SimulationResult> remote =
      RunRemote(config, /*max_train_requests=*/0, &exit_codes, "off");
  ASSERT_TRUE(remote.ok()) << remote.status();
  for (int code : exit_codes) EXPECT_EQ(code, 0);
  ExpectBitIdentical(*remote, RunInProcess(config));
}

TEST(LoopbackTest, KilledWorkerDegradesToDroppedClients) {
  RemoteFedConfig config = BaseConfig();
  config.strategy = "fedavg";
  config.split.num_clients = 6;
  config.num_workers = 2;
  config.sim.rounds = 2;
  config.rpc.deadline_ms = 3000;
  config.rpc.max_attempts = 2;
  config.rpc.backoff_ms = 20;

  Counter& dropped = GlobalMetrics().GetCounter("fed.round.dropped_clients");
  Counter& retries = GlobalMetrics().GetCounter("net.connect_retries");
  const int64_t dropped0 = dropped.value();
  const int64_t retries0 = retries.value();

  // Every worker vanishes after serving exactly one train request: round 1
  // gets 2 uploads out of 6, the rest of the federation is unreachable.
  Result<SimulationResult> remote =
      RunRemote(config, /*max_train_requests=*/1);
  ASSERT_TRUE(remote.ok()) << remote.status();

  // Round 1: 2 healthy, 4 dropped. Round 2: all 6 dropped.
  EXPECT_EQ(remote->total_dropped_clients, 10);
  ASSERT_EQ(remote->curve.size(), 2u);
  EXPECT_EQ(remote->curve[0].dropped_clients, 4);
  EXPECT_EQ(remote->curve[1].dropped_clients, 10);
  // Aggregation still happened over round 1's survivors.
  EXPECT_GT(remote->total_upload_floats, 0);
  // The transport failures are visible in the metrics registry.
  EXPECT_EQ(dropped.value() - dropped0, 10);
  EXPECT_GE(retries.value() - retries0, 1);
}


/// One cell of the download-reuse matrix: whichever way the coordinator
/// samples, barriers and evaluates, pointing at a stashed download instead
/// of resending it must not change a single result bit.
struct ReuseCase {
  const char* codec;  // server --compress: "off" or "raw"
  bool async;         // async runtime at tau = 2
  int eval_every;
  double participation;
};

std::string ReuseCaseName(const ReuseCase& c) {
  return std::string(c.codec) + (c.async ? "_async" : "_sync") + "_eval" +
         std::to_string(c.eval_every) +
         (c.participation < 1.0 ? "_half" : "_full");
}

// gtest prints a parameter into the listed test name; without this it
// dumps the raw bytes, pointer and padding included, which vary per build.
void PrintTo(const ReuseCase& c, std::ostream* os) { *os << ReuseCaseName(c); }

class DownloadReuseTest : public testing::TestWithParam<ReuseCase> {};

TEST_P(DownloadReuseTest, MatchesSimulation) {
  const ReuseCase& c = GetParam();
  RemoteFedConfig config = BaseConfig();
  config.seed = 23;
  config.num_workers = 3;
  config.sim.rounds = 4;
  config.compress = c.codec;
  config.sim.async = c.async;
  config.sim.staleness_tau = c.async ? 2 : 0;
  config.sim.eval_every = c.eval_every;
  config.sim.participation = c.participation;
  const int64_t train0 = CounterValue("net.bytes_sent.TrainRequest");
  const int64_t eval0 = CounterValue("net.bytes_sent.EvalRequest");

  std::vector<int> exit_codes;
  Result<SimulationResult> remote =
      RunRemote(config, /*max_train_requests=*/0, &exit_codes);
  ASSERT_TRUE(remote.ok()) << remote.status();
  // A worker that could not resolve a reuse marker complains and exits
  // non-zero; every one must have reached the Shutdown goodbye.
  for (int code : exit_codes) EXPECT_EQ(code, 0);
  EXPECT_EQ(remote->total_dropped_clients, 0);

  if (c.async && c.eval_every > 1) {
    // Rounds without an eval barrier drain whatever updates have arrived
    // by then, so these runs depend on timing and have no bit-exact
    // oracle; completing with every exchange intact is the check.
    EXPECT_GT(remote->total_admitted_updates, 0);
    return;
  }
  const SimulationResult local = RunInProcess(config);
  std::string diff;
  EXPECT_TRUE(fed::DeterministicEquals(*remote, local, &diff)) << diff;

  if (c.eval_every == 1 && c.participation == 1.0) {
    // Every client is evaluated on every round, and its round-t eval
    // download is its round-t+1 train download, so only round 1's train
    // requests carry weights. Each eval request is one full download; a
    // train request is the same plus its 4-byte round field.
    const int64_t n = config.split.num_clients;
    const int64_t later_rounds = config.sim.rounds - 1;
    const int64_t eval_bytes = CounterValue("net.bytes_sent.EvalRequest") - eval0;
    const int64_t full = eval_bytes / (config.sim.rounds * n);
    const int64_t later =
        CounterValue("net.bytes_sent.TrainRequest") - train0 - n * (full + 4);
    EXPECT_LT(later, later_rounds * n * full);
    // In fact each is a bare reuse marker (72 bytes framed).
    EXPECT_LE(later, later_rounds * n * 128);
  }
}

std::vector<ReuseCase> ReuseCases() {
  std::vector<ReuseCase> cases;
  for (const char* codec : {"off", "raw"}) {
    for (bool async : {false, true}) {
      for (int eval_every : {1, 2}) {
        for (double participation : {1.0, 0.5}) {
          cases.push_back({codec, async, eval_every, participation});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, DownloadReuseTest,
                         testing::ValuesIn(ReuseCases()),
                         [](const testing::TestParamInfo<ReuseCase>& info) {
                           return ReuseCaseName(info.param);
                         });

/// Drives one in-process RemoteClientRunner from a hand-written server:
/// accepts it, completes the handshake for the first two clients of
/// BaseConfig, then hands the socket to `send` for arbitrary requests.
/// Returns the runner's Status; `complaint` receives the error text the
/// worker sent back.
Status ExchangeWithRunner(const std::function<void(net::Socket&)>& send,
                   std::string* complaint) {
  Result<net::ServerSocket> server = net::ServerSocket::Listen(0);
  FEDGTA_RETURN_IF_ERROR(server.status());
  RemoteRunnerOptions options;
  options.port = server->port();
  options.rpc.deadline_ms = 60000;
  RemoteClientRunner runner(options);
  Status result;
  std::thread worker([&] { result = runner.Run(); });

  Result<net::Socket> sock = server->Accept(60000);
  EXPECT_TRUE(sock.ok()) << sock.status();
  net::HelloMsg hello;
  EXPECT_TRUE(net::ExpectMessage(*sock, &hello).ok());
  net::AssignConfigMsg assign;
  assign.config = ToWireConfig(BaseConfig());
  assign.client_ids = {0, 1};
  EXPECT_TRUE(net::SendMessage(*sock, assign).ok());
  net::ConfigAckMsg ack;
  EXPECT_TRUE(net::ExpectMessage(*sock, &ack).ok());
  EXPECT_GT(ack.param_count, 0);

  send(*sock);
  net::EvalResponseMsg never;
  const Status reply = net::ExpectMessage(*sock, &never);
  EXPECT_EQ(reply.code(), StatusCode::kFailedPrecondition) << reply;
  *complaint = std::string(reply.message());
  worker.join();
  return result;
}

TEST(WorkerProtocolTest, WorkerRefusesDownloadsItCannotUse) {
  struct Case {
    const char* name;
    std::function<void(net::Socket&)> send;
    const char* complaint;
  };
  const std::vector<Case> cases = {
      {"short download",
       [](net::Socket& s) {
         net::TrainRequestMsg req;
         req.round = 1;
         req.weights = {1.0f, 2.0f, 3.0f};
         ASSERT_TRUE(net::SendMessage(s, req).ok());
       },
       "carries 3 weights"},
      {"reuse before any download",
       [](net::Socket& s) {
         net::EvalRequestMsg req;
         req.client_id = 1;
         req.reuse = true;
         ASSERT_TRUE(net::SendMessage(s, req).ok());
       },
       "reuses a download never sent"},
      {"reuse for an unhosted client",
       [](net::Socket& s) {
         net::TrainRequestMsg req;
         req.client_id = 7;
         req.reuse = true;
         ASSERT_TRUE(net::SendMessage(s, req).ok());
       },
       "client 7: not hosted here"},
      {"reuse marker with tensor bytes",
       [](net::Socket& s) {
         serialize::Writer w;
         w.WriteU32(static_cast<uint32_t>(net::MsgType::kTrainRequest));
         w.WriteU64(0);  // trace envelope
         w.WriteU64(0);
         w.WriteI32(0);
         w.WriteI32(1);  // round
         w.WriteI32(0);  // client id
         w.WriteBool(true);
         w.WriteFloatVec(std::vector<float>{1.0f});
         ASSERT_TRUE(net::SendFrame(s, w).ok());
       },
       "reuse marker followed by tensor bytes"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string complaint;
    const Status st = ExchangeWithRunner(c.send, &complaint);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
    EXPECT_NE(complaint.find(c.complaint), std::string::npos) << complaint;
  }
}

/// A hand-written worker for one WorkerFleet: says Hello at `version`,
/// reports a 4-parameter model for clients {0, 1}, then answers each
/// TrainRequest with the next of `uploads` (weights and moments lengths).
void FakeWorker(int port, uint32_t version,
                const std::vector<std::pair<int, int>>& uploads,
                Status* assign_status) {
  Result<net::Socket> sock = net::Connect("127.0.0.1", port, 10000);
  ASSERT_TRUE(sock.ok()) << sock.status();
  net::HelloMsg hello;
  hello.protocol_version = version;
  ASSERT_TRUE(net::SendMessage(*sock, hello).ok());
  net::AssignConfigMsg assign;
  *assign_status = net::ExpectMessage(*sock, &assign);
  if (!assign_status->ok()) return;
  net::ConfigAckMsg ack;
  ack.param_count = 4;
  ack.init_params.assign(4, 0.5f);
  ASSERT_TRUE(net::SendMessage(*sock, ack).ok());
  for (const auto& [weights, moments] : uploads) {
    net::TrainRequestMsg req;
    ASSERT_TRUE(net::ExpectMessage(*sock, &req).ok());
    net::TrainResponseMsg resp;
    resp.client_id = req.client_id;
    resp.round = req.round;
    resp.weights.assign(static_cast<size_t>(weights), 1.0f);
    resp.moments.assign(static_cast<size_t>(moments), 0.25f);
    ASSERT_TRUE(net::SendMessage(*sock, resp).ok());
  }
  net::ShutdownMsg bye;
  if (net::ExpectMessage(*sock, &bye).ok()) {
    (void)net::SendMessage(*sock, net::ShutdownAckMsg());
  }
}

WorkerFleetOptions FakeFleetOptions() {
  WorkerFleetOptions options;
  options.rpc.deadline_ms = 10000;
  options.rpc.max_attempts = 1;
  options.accept_timeout_ms = 10000;
  return options;
}

TEST(WorkerProtocolTest, MisSizedUploadIsAnRpcErrorNotAnAbort) {
  Result<net::ServerSocket> server = net::ServerSocket::Listen(0);
  ASSERT_TRUE(server.ok()) << server.status();
  Status assign_status;
  // Uploads: short weights; a good one fixing the moments length at 2; a
  // good one; then one whose moments disagree.
  std::thread worker(FakeWorker, server->port(), net::kProtocolVersion,
                     std::vector<std::pair<int, int>>{{3, 2}, {4, 2}, {4, 2},
                                                      {4, 3}},
                     &assign_status);
  WorkerFleet fleet;
  const std::vector<std::vector<int>> ownership = {{0, 1}};
  ASSERT_TRUE(fleet.Accept(*server, 2, ownership, FakeFleetOptions()).ok());
  FleetMetricsMerger merger(&GlobalMetrics());
  const std::vector<float> model(4, 0.5f);
  std::vector<Status> got;
  for (int round = 1; round <= 4; ++round) {
    net::TrainResponseMsg resp;
    got.push_back(fleet.TrainClient(round, round % 2, model, &merger, &resp));
  }
  fleet.Shutdown();
  worker.join();
  EXPECT_TRUE(assign_status.ok()) << assign_status;
  EXPECT_EQ(got[0].code(), StatusCode::kInvalidArgument) << got[0];
  EXPECT_NE(got[0].ToString().find("upload of 3 weights"), std::string::npos);
  EXPECT_TRUE(got[1].ok()) << got[1];
  EXPECT_TRUE(got[2].ok()) << got[2];
  EXPECT_EQ(got[3].code(), StatusCode::kInvalidArgument) << got[3];
  EXPECT_NE(got[3].ToString().find("3 moments"), std::string::npos);
}

TEST(WorkerProtocolTest, V5HelloIsRefusedWithTheVersionError) {
  Result<net::ServerSocket> server = net::ServerSocket::Listen(0);
  ASSERT_TRUE(server.ok()) << server.status();
  Status assign_status;
  std::thread worker(FakeWorker, server->port(), 5u,
                     std::vector<std::pair<int, int>>{}, &assign_status);
  WorkerFleet fleet;
  const std::vector<std::vector<int>> ownership = {{0, 1}};
  const Status accepted =
      fleet.Accept(*server, 2, ownership, FakeFleetOptions());
  worker.join();
  EXPECT_EQ(accepted.code(), StatusCode::kFailedPrecondition) << accepted;
  EXPECT_NE(accepted.ToString().find("worker speaks 5"), std::string::npos)
      << accepted;
  // The worker hears the same complaint instead of an AssignConfig.
  EXPECT_EQ(assign_status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(assign_status.ToString().find("worker speaks 5"),
            std::string::npos)
      << assign_status;
}

}  // namespace
}  // namespace fedgta
