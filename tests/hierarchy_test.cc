// Hierarchical-vs-in-process determinism (DESIGN.md §5k): a FedGTA run
// driven through real regional aggregator processes — root + fedgta_aggregator
// children + fedgta_worker grandchildren over loopback TCP — must be
// bit-identical to the in-process Simulation of the same configuration.
// Also covers the relay plane (fedavg), the shardable-capability and async
// rejections, and the root status endpoint's mid-tier table.

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "fed/hierarchy.h"
#include "fed/remote_config.h"
#include "fed/role.h"
#include "fed/simulation.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace fedgta {
namespace {

// The root coordinator runs in a thread of this process while the worker
// tier is being launched, so every spawn prebuilds argv in the parent and
// the child touches nothing but execv (no allocation between fork and
// exec — the child may have inherited a held malloc lock).
pid_t SpawnProcess(const char* binary, std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    execv(binary, argv.data());
    _exit(127);  // exec failed
  }
  return pid;
}

pid_t SpawnAggregator(int root_port, const std::string& port_file,
                      bool status_port) {
  std::vector<std::string> args = {FEDGTA_AGGREGATOR_BINARY,
                                   "--host=127.0.0.1",
                                   "--port=" + std::to_string(root_port),
                                   "--listen_port=0",
                                   "--port_file=" + port_file,
                                   "--connect_attempts=60",
                                   "--deadline_ms=60000",
                                   "--num_threads=2"};
  if (status_port) args.push_back("--status_port=0");
  return SpawnProcess(FEDGTA_AGGREGATOR_BINARY, std::move(args));
}

pid_t SpawnWorker(int agg_port, int max_train_requests = 0) {
  return SpawnProcess(
      FEDGTA_WORKER_BINARY,
      {FEDGTA_WORKER_BINARY, "--host=127.0.0.1",
       "--port=" + std::to_string(agg_port), "--connect_attempts=60",
       "--deadline_ms=60000", "--num_threads=2",
       "--max_train_requests=" + std::to_string(max_train_requests)});
}

// "<worker_port>\n<agg_index>\n", published atomically once the
// aggregator's listener is bound.
bool ReadPortFile(const std::string& path, int* port, int* agg_index) {
  std::ifstream in(path);
  if (!in.good()) return false;
  int p = -1;
  int idx = -1;
  in >> p >> idx;
  if (p <= 0 || idx < 0) return false;
  *port = p;
  *agg_index = idx;
  return true;
}

struct HierarchicalOutcome {
  Result<SimulationResult> result = InternalError("not run");
  std::vector<int> exit_codes;  // aggregators first, then workers
  int root_status_port = -1;
  std::string final_status;  // root "status" reply after Run(), if serving
};

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

/// Listens, forks the aggregator tier, runs the root in a thread, launches
/// each shard's workers once its aggregator publishes a port file, and
/// reaps the whole process tree. Shard 0's workers exit after serving
/// `shard0_max_train_requests` train requests (0 = never).
HierarchicalOutcome RunHierarchical(const RemoteFedConfig& config,
                                    bool agg_status_ports = false,
                                    int shard0_max_train_requests = 0) {
  HierarchicalOutcome out;
  fed::RootCoordinator root(config);
  if (const Status status = root.Listen(0); !status.ok()) {
    out.result = status;
    return out;
  }
  out.root_status_port = root.status_port();

  const std::string dir = testing::TempDir();
  std::vector<std::string> port_files;
  std::vector<pid_t> pids;
  for (int a = 0; a < config.num_aggregators; ++a) {
    port_files.push_back(dir + "/fedgta_hier_agg_" + std::to_string(getpid()) +
                         "_" + std::to_string(a) + ".port");
    std::remove(port_files.back().c_str());
    pids.push_back(
        SpawnAggregator(root.port(), port_files.back(), agg_status_ports));
  }

  Result<SimulationResult> result = InternalError("root thread never ran");
  std::thread root_thread([&] { result = root.Run(); });

  // The aggregators publish their worker ports only after the root's
  // ShardAssign, so polling doubles as the handshake barrier. Launch each
  // shard's worker slice as soon as its file appears; a file that never
  // appears surfaces as the root's accept timeout through `result`.
  const fed::Topology topo(config.split.num_clients, config.num_aggregators,
                           config.num_workers);
  std::vector<bool> launched(port_files.size(), false);
  size_t remaining = port_files.size();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (remaining > 0 && std::chrono::steady_clock::now() < deadline) {
    for (size_t f = 0; f < port_files.size(); ++f) {
      if (launched[f]) continue;
      int port = 0;
      int agg_index = -1;
      if (!ReadPortFile(port_files[f], &port, &agg_index)) continue;
      EXPECT_LT(agg_index, config.num_aggregators);
      for (int w = 0; w < topo.WorkerShard(agg_index).size(); ++w) {
        pids.push_back(SpawnWorker(
            port, agg_index == 0 ? shard0_max_train_requests : 0));
      }
      launched[f] = true;
      --remaining;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(remaining, 0u) << "aggregator(s) never published a port file";

  root_thread.join();
  out.result = std::move(result);
  if (out.root_status_port > 0) {
    // Queried after the run: the aggregator processes are about to exit
    // (or already have), which is exactly the dead-mid-tier view the
    // status satellite wants visible.
    out.final_status = QueryStatus(out.root_status_port, "status");
  }
  for (pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    out.exit_codes.push_back(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  }
  for (const std::string& f : port_files) std::remove(f.c_str());
  return out;
}

/// The same run, in process — the reference the hierarchy must reproduce.
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
    EXPECT_EQ(r.upload_floats, l.upload_floats) << "round " << r.round;
    EXPECT_EQ(r.download_floats, l.download_floats) << "round " << r.round;
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
  config.num_workers = 4;
  config.num_aggregators = 2;
  config.rpc.deadline_ms = 120000;
  config.accept_timeout_ms = 120000;
  return config;
}

TEST(HierarchyTest, FedGtaOverTwoAggregatorsIsBitIdenticalToSimulation) {
  // The acceptance topology: root + 2 aggregators + 4 workers, with the
  // root and mid-tier status endpoints live.
  RemoteFedConfig config = BaseConfig();
  config.status_port = 0;
  // Aggregator-sent bytes, rolled up into the root's registry.
  auto fleet_bytes = [](const char* msg) {
    const Counter* c = GlobalMetrics().FindCounter(
        std::string("fleet.net.bytes_sent.") + msg);
    return c != nullptr ? c->value() : 0;
  };
  const int64_t train0 = fleet_bytes("TrainRequest");
  const int64_t eval0 = fleet_bytes("EvalRequest");
  const HierarchicalOutcome out =
      RunHierarchical(config, /*agg_status_ports=*/true);
  ASSERT_TRUE(out.result.ok()) << out.result.status();
  for (int code : out.exit_codes) EXPECT_EQ(code, 0);
  const SimulationResult local = RunInProcess(config);
  ExpectBitIdentical(*out.result, local);
  EXPECT_GT(local.final_test_accuracy, 0.2);
  // Eval runs every round, so on the aggregator -> worker leg only round
  // 1's train requests carry weights; later ones reuse the eval download.
  const int64_t eval_bytes = fleet_bytes("EvalRequest") - eval0;
  EXPECT_GT(eval_bytes, 0);
  EXPECT_LT(fleet_bytes("TrainRequest") - train0, eval_bytes / 2);

  // Mid-tier visibility (satellite): the root's status table names every
  // aggregator with its shard bounds, and the live probe notices that the
  // mid-tier processes are gone after shutdown.
  const std::string& status = out.final_status;
  EXPECT_NE(status.find("fedgta root status"), std::string::npos) << status;
  EXPECT_NE(status.find("aggregators: 2"), std::string::npos) << status;
  EXPECT_NE(status.find("aggregator 0: healthy shard=[0,5) clients=5 "
                        "workers=2"),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("aggregator 1: healthy shard=[5,10) clients=5 "
                        "workers=2"),
            std::string::npos)
      << status;
}

TEST(HierarchyTest, FailureInjectionAndSamplingStayIdentical) {
  // Dropouts, stragglers, crashes, and partial participation crossing
  // shard boundaries: the shard partition of each round's sampled
  // participants must reproduce the flat run's fate bookkeeping exactly.
  RemoteFedConfig config = BaseConfig();
  config.seed = 11;
  config.sim.participation = 0.6;
  config.sim.failure.dropout_rate = 0.25;
  config.sim.failure.straggler_rate = 0.15;
  config.sim.failure.crash_rate = 0.15;
  const HierarchicalOutcome out = RunHierarchical(config);
  ASSERT_TRUE(out.result.ok()) << out.result.status();
  const SimulationResult local = RunInProcess(config);
  EXPECT_GT(local.total_dropped_clients + local.total_straggler_clients +
                local.total_crashed_clients,
            0);
  ExpectBitIdentical(*out.result, local);
}

TEST(HierarchyTest, RelayedFedAvgIsBitIdenticalToSimulation) {
  // fedavg does not upload topology metrics, so the aggregators collapse
  // to relay hops: the root aggregates centrally and the mid-tier only
  // fans the global model out and the survivor weights back up.
  RemoteFedConfig config = BaseConfig();
  config.strategy = "fedavg";
  config.sim.rounds = 2;
  const HierarchicalOutcome out = RunHierarchical(config);
  ASSERT_TRUE(out.result.ok()) << out.result.status();
  for (int code : out.exit_codes) EXPECT_EQ(code, 0);
  ExpectBitIdentical(*out.result, RunInProcess(config));
}

TEST(HierarchyTest, KilledWorkerDegradesToDroppedClients) {
  // The hierarchy twin of the flat plane's killed-worker test: shard 0's
  // two workers vanish after one train request each. Round 1 keeps 2 of
  // shard 0's 5 participants, later rounds lose all 5; shard 1 is healthy.
  // Both the sharded Eq. 6/7 plane and the relay plane must degrade to
  // dropped clients instead of failing the run.
  for (const char* strategy : {"fedgta", "fedavg"}) {
    SCOPED_TRACE(strategy);
    RemoteFedConfig config = BaseConfig();
    config.strategy = strategy;
    config.rpc.deadline_ms = 3000;
    const HierarchicalOutcome out =
        RunHierarchical(config, /*agg_status_ports=*/false,
                        /*shard0_max_train_requests=*/1);
    ASSERT_TRUE(out.result.ok()) << out.result.status();
    for (int code : out.exit_codes) EXPECT_EQ(code, 0);
    ASSERT_EQ(out.result->curve.size(), 3u);
    EXPECT_EQ(out.result->curve[0].dropped_clients, 3);
    EXPECT_EQ(out.result->curve[1].dropped_clients, 8);
    EXPECT_EQ(out.result->curve[2].dropped_clients, 13);
    EXPECT_EQ(out.result->total_dropped_clients, 13);
  }
}

TEST(HierarchyTest, NonShardableStrategyIsRejectedBeforeAccepting) {
  // `local` is remote-executable on the flat plane but does not declare
  // Capabilities().shardable — the hierarchical root must refuse it before
  // any aggregator is accepted.
  RemoteFedConfig config = BaseConfig();
  config.strategy = "local";
  fed::RootCoordinator root(config);
  ASSERT_TRUE(root.Listen(0).ok());
  const Result<SimulationResult> result = root.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("shard"), std::string::npos)
      << result.status();
}

TEST(HierarchyTest, AsyncRuntimeIsRejectedAtListen) {
  RemoteFedConfig config = BaseConfig();
  config.sim.async = true;
  config.sim.staleness_tau = 1;
  fed::RootCoordinator root(config);
  const Status status = root.Listen(0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(HierarchyTest, TopologyRejectsMoreAggregatorsThanWorkers) {
  RemoteFedConfig config = BaseConfig();
  config.num_aggregators = 5;
  config.num_workers = 4;
  fed::RootCoordinator root(config);
  const Status status = root.Listen(0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// ShardAssign carries the root's Eq. 6 knobs straight into LshShapeFor and
// ComputeLshSignatures on the aggregator: hostile values must come back as
// an error Status from the decoder, never as overflow, a NaN-to-int cast
// or a multi-GB projection.
TEST(HierarchyTest, ShardAssignDecoderRejectsHostileLshFields) {
  const auto decode = [](const fed::ShardAssignBody& in) {
    serialize::Writer writer;
    in.Encode(&writer);
    Result<serialize::Reader> reader =
        serialize::Reader::FromBuffer(writer.Encode());
    EXPECT_TRUE(reader.ok()) << reader.status();
    fed::ShardAssignBody out;
    return out.Decode(&*reader);
  };
  ASSERT_TRUE(decode(fed::ShardAssignBody()).ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, fed::ShardAssignBody>> hostile;
  const auto add = [&](std::string what, auto mutate) {
    fed::ShardAssignBody body;
    mutate(body);
    hostile.emplace_back(std::move(what), body);
  };
  add("bits=0", [](auto& b) { b.lsh_signature_bits = 0; });
  add("bits<0", [](auto& b) { b.lsh_signature_bits = -64; });
  add("bits=INT32_MAX", [](auto& b) {
    b.lsh_signature_bits = std::numeric_limits<int32_t>::max();
  });
  add("bits huge", [](auto& b) { b.lsh_signature_bits = 1 << 24; });
  add("margin=NaN", [&](auto& b) { b.lsh_margin = nan; });
  add("margin=inf", [&](auto& b) { b.lsh_margin = inf; });
  add("margin<0", [](auto& b) { b.lsh_margin = -0.5; });
  add("epsilon=NaN", [&](auto& b) { b.epsilon = nan; });
  add("epsilon=-inf", [&](auto& b) { b.epsilon = -inf; });
  add("mode=3", [](auto& b) { b.similarity_mode = 3; });
  add("mode=UINT32_MAX", [](auto& b) {
    b.similarity_mode = std::numeric_limits<uint32_t>::max();
  });
  for (const auto& [what, body] : hostile) {
    const Status status = decode(body);
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
  }
}

}  // namespace
}  // namespace fedgta
