// Hierarchical-vs-in-process determinism (DESIGN.md §5k): a FedGTA run
// driven through real regional aggregator processes — root + fedgta_aggregator
// children + fedgta_worker grandchildren over loopback TCP — must be
// bit-identical to the in-process Simulation of the same configuration.
// FedAvg and FedProx run the same routed Eq. 7 as one global set, so they
// are pinned the same way. Also covers the shardable-capability and async
// rejections, the routed bodies' decoders, and the root status endpoint's
// mid-tier table.

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "core/similarity.h"
#include "fed/aggregator.h"
#include "fed/hierarchy.h"
#include "fed/remote_config.h"
#include "fed/role.h"
#include "fed/run_result.h"
#include "fed/simulation.h"
#include "linalg/backend.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace fedgta {
namespace {

// The root coordinator runs in a thread of this process while the worker
// tier is being launched, so every spawn prebuilds argv and the
// environment in the parent and the child touches nothing but execve (no
// allocation between fork and exec — the child may have inherited a held
// malloc lock).
pid_t SpawnProcess(const char* binary, std::vector<std::string> args,
                   std::vector<std::string> env) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (std::string& var : env) envp.push_back(var.data());
  envp.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    execve(binary, argv.data(), envp.data());
    _exit(127);  // exec failed
  }
  return pid;
}

/// This process's environment, with FEDGTA_BACKEND set to `backend` when
/// it is non-null.
std::vector<std::string> ChildEnvironment(const char* backend) {
  std::vector<std::string> env;
  for (char** var = environ; *var != nullptr; ++var) {
    if (backend == nullptr ||
        !std::string_view(*var).starts_with("FEDGTA_BACKEND=")) {
      env.emplace_back(*var);
    }
  }
  if (backend != nullptr) {
    env.push_back(std::string("FEDGTA_BACKEND=") + backend);
  }
  return env;
}

pid_t SpawnAggregator(int root_port, const std::string& port_file,
                      bool status_port, const char* backend_env) {
  std::vector<std::string> args = {FEDGTA_AGGREGATOR_BINARY,
                                   "--host=127.0.0.1",
                                   "--port=" + std::to_string(root_port),
                                   "--listen_port=0",
                                   "--port_file=" + port_file,
                                   "--connect_attempts=60",
                                   "--deadline_ms=60000",
                                   "--num_threads=2"};
  if (status_port) args.push_back("--status_port=0");
  return SpawnProcess(FEDGTA_AGGREGATOR_BINARY, std::move(args),
                      ChildEnvironment(backend_env));
}

pid_t SpawnWorker(int agg_port, int max_train_requests,
                  const char* backend_env) {
  return SpawnProcess(
      FEDGTA_WORKER_BINARY,
      {FEDGTA_WORKER_BINARY, "--host=127.0.0.1",
       "--port=" + std::to_string(agg_port), "--connect_attempts=60",
       "--deadline_ms=60000", "--num_threads=2",
       "--max_train_requests=" + std::to_string(max_train_requests)},
      ChildEnvironment(backend_env));
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
/// `shard0_max_train_requests` train requests (0 = never). Every child
/// starts with FEDGTA_BACKEND=`child_backend_env` when that is non-null.
HierarchicalOutcome RunHierarchical(const RemoteFedConfig& config,
                                    bool agg_status_ports = false,
                                    int shard0_max_train_requests = 0,
                                    const char* child_backend_env = nullptr) {
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
    pids.push_back(SpawnAggregator(root.port(), port_files.back(),
                                   agg_status_ports, child_backend_env));
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
            port, agg_index == 0 ? shard0_max_train_requests : 0,
            child_backend_env));
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
/// The model's parameter count goes to *param_count when it is non-null.
SimulationResult RunInProcess(const RemoteFedConfig& config,
                              int64_t* param_count = nullptr) {
  FederatedDataset data = MaterializeFederatedDataset(
      config.dataset, config.seed, config.split, config.federated);
  Result<std::unique_ptr<Strategy>> strategy =
      MakeStrategy(config.strategy, config.strategy_options);
  EXPECT_TRUE(strategy.ok()) << strategy.status();
  SimulationConfig sim = config.sim;
  sim.seed = config.seed;
  Simulation simulation(&data, config.model, config.optimizer,
                        std::move(*strategy), sim);
  SimulationResult result = simulation.Run();
  if (param_count != nullptr) {
    *param_count =
        static_cast<int64_t>(simulation.strategy().ParamsFor(0).size());
  }
  return result;
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
  // root and mid-tier status endpoints live; on the exact Eq. 6 oracle,
  // through the LSH screen, without moments (one set of every survivor,
  // confidence-weighted) and with the adaptive-ε quantile threshold.
  struct Input {
    const char* name;
    SimilarityMode mode;
    bool disable_moments;
    bool adaptive_epsilon;
  };
  for (const Input& input :
       {Input{"exact", SimilarityMode::kExact, false, false},
        Input{"lsh", SimilarityMode::kLsh, false, false},
        Input{"w/o Mom.", SimilarityMode::kExact, true, false},
        Input{"adaptive-eps", SimilarityMode::kExact, false, true}}) {
    SCOPED_TRACE(input.name);
    const SimilarityMode mode = input.mode;
    // Only the ε screens count pairs and their mode; w/o Mom. builds no
    // similarity and adaptive-ε reads the full block.
    const bool screened = !input.disable_moments && !input.adaptive_epsilon;
    RemoteFedConfig config = BaseConfig();
    config.status_port = 0;
    config.strategy_options.fedgta.similarity.mode = mode;
    config.strategy_options.fedgta.disable_moments = input.disable_moments;
    config.strategy_options.fedgta.adaptive_epsilon = input.adaptive_epsilon;
    const auto counter = [](const std::string& name) {
      const Counter* c = GlobalMetrics().FindCounter(name);
      return c != nullptr ? c->value() : 0;
    };
    // The root builds the Eq. 6 sets itself, so its plane counters must
    // move exactly as the in-process server's do.
    const std::vector<std::string> plane = {
        "fedgta.similarity.pairs_exact", "fedgta.similarity.pairs_pruned",
        "fedgta.aggregation.unique_sets",
        "fedgta.similarity.mode." + std::string(SimilarityModeName(mode))};
    const auto snapshot = [&] {
      std::vector<int64_t> values;
      for (const std::string& name : plane) values.push_back(counter(name));
      return values;
    };
    // Aggregator-sent bytes, rolled up into the root's registry.
    const auto fleet_bytes = [&](const char* msg) {
      return counter(std::string("fleet.net.bytes_sent.") + msg);
    };
    const int64_t train0 = fleet_bytes("TrainRequest");
    const int64_t eval0 = fleet_bytes("EvalRequest");
    const std::vector<int64_t> root0 = snapshot();
    const HierarchicalOutcome out =
        RunHierarchical(config, /*agg_status_ports=*/true);
    const std::vector<int64_t> root1 = snapshot();
    ASSERT_TRUE(out.result.ok()) << out.result.status();
    for (int code : out.exit_codes) EXPECT_EQ(code, 0);
    const SimulationResult local = RunInProcess(config);
    const std::vector<int64_t> local1 = snapshot();
    ExpectBitIdentical(*out.result, local);
    // w/o Mom. averages the whole federation and reaches about 0.18 here.
    if (screened) {
      EXPECT_GT(local.final_test_accuracy, 0.2);
    }
    for (size_t k = 0; k < plane.size(); ++k) {
      EXPECT_EQ(root1[k] - root0[k], local1[k] - root1[k]) << plane[k];
    }
    EXPECT_GT(root1[2] - root0[2], 0);
    if (screened) {
      EXPECT_GT(root1[0] - root0[0], 0);
      EXPECT_EQ(root1[3] - root0[3], config.sim.rounds);  // one Eq. 6 a round
    }
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
}

TEST(HierarchyTest, AggregatorsAndWorkersRunTheRootsBackend) {
  // The root runs simd; every aggregator and worker starts under
  // FEDGTA_BACKEND=reference and must still compute simd's floats: the
  // root's ShardAssign names the backend, and each aggregator forwards it
  // to its workers in AssignConfig.
  linalg::ScopedBackend simd("simd");
  const RemoteFedConfig config = BaseConfig();
  const HierarchicalOutcome out = RunHierarchical(
      config, /*agg_status_ports=*/false, /*shard0_max_train_requests=*/0,
      "reference");
  ASSERT_TRUE(out.result.ok()) << out.result.status();
  for (int code : out.exit_codes) EXPECT_EQ(code, 0);
  std::string diff;
  EXPECT_TRUE(
      fed::DeterministicEquals(*out.result, RunInProcess(config), &diff))
      << diff;
}

TEST(HierarchyTest, FailureInjectionAndSamplingStayIdentical) {
  // Dropouts, stragglers, crashes, and partial participation crossing
  // shard boundaries: the shard partition of each round's sampled
  // participants must reproduce the flat run's fate bookkeeping exactly.
  // Every client is evaluated, sampled or not, so a global model that
  // reached only the survivors would show in fedavg's and fedprox's curve.
  for (const char* strategy : {"fedgta", "fedavg", "fedprox"}) {
    SCOPED_TRACE(strategy);
    RemoteFedConfig config = BaseConfig();
    config.strategy = strategy;
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
}

TEST(HierarchyTest, FedAvgOverTwoAggregatorsIsBitIdenticalToSimulation) {
  // fedavg and fedprox upload no topology metrics: the root runs them as
  // Eq. 7 with one set of every survivor, weighted by train size, through
  // the same chained pass and GroupDeliver as FedGTA. Survivor weights
  // stay on their shard, so the root receives less per round than one
  // weight vector per survivor. Every routed reply also carries the
  // aggregator's metrics delta, about 14 KB, which outweighs the SGC
  // model here (679 floats); the byte floor is checked on a GCN input,
  // whose weights dominate the traffic.
  struct Input {
    const char* strategy;
    ModelType model;
    int hidden;
    bool check_bytes;
  };
  for (const Input& input : {Input{"fedavg", ModelType::kSgc, 16, false},
                             Input{"fedprox", ModelType::kSgc, 16, false},
                             Input{"fedavg", ModelType::kGcn, 64, true}}) {
    SCOPED_TRACE(std::string(input.strategy) + "/" +
                 ModelTypeName(input.model));
    RemoteFedConfig config = BaseConfig();
    config.strategy = input.strategy;
    config.model.type = input.model;
    config.model.hidden = input.hidden;
    config.sim.rounds = 2;
    Counter& recv = GlobalMetrics().GetCounter("net.bytes_recv");
    const int64_t recv0 = recv.value();
    const HierarchicalOutcome out = RunHierarchical(config);
    const int64_t root_recv = recv.value() - recv0;
    ASSERT_TRUE(out.result.ok()) << out.result.status();
    for (int code : out.exit_codes) EXPECT_EQ(code, 0);
    int64_t param_count = 0;
    ExpectBitIdentical(*out.result, RunInProcess(config, &param_count));
    // Full participation without failures: every client survives.
    const int64_t survivors = config.split.num_clients;
    if (input.check_bytes) {
      EXPECT_LT(root_recv / config.sim.rounds,
                survivors * param_count * static_cast<int64_t>(sizeof(float)));
    }
  }
}

TEST(HierarchyTest, KilledWorkerDegradesToDroppedClients) {
  // The hierarchy twin of the flat plane's killed-worker test: shard 0's
  // two workers vanish after one train request each. Round 1 keeps 2 of
  // shard 0's 5 participants, later rounds lose all 5; shard 1 is healthy.
  // Both FedGTA's sets and fedavg's global set must degrade to dropped
  // clients instead of failing the run.
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

/// Encodes `in` and decodes it back as a fresh Body, returning the decode
/// status.
template <typename Body>
Status DecodeRoundTrip(const Body& in) {
  serialize::Writer writer;
  in.Encode(&writer);
  Result<serialize::Reader> reader =
      serialize::Reader::FromBuffer(writer.Encode());
  EXPECT_TRUE(reader.ok()) << reader.status();
  Body out;
  return out.Decode(&*reader);
}

// Hostile ShardAssign values must come back as an error Status from the
// decoder, never as an aggregator abort further down.
TEST(HierarchyTest, ShardAssignDecoderRejectsHostileFields) {
  const auto decode = [](const fed::ShardAssignBody& in) {
    return DecodeRoundTrip(in);
  };
  ASSERT_TRUE(decode(fed::ShardAssignBody()).ok());

  std::vector<std::pair<std::string, fed::ShardAssignBody>> hostile;
  const auto add = [&](std::string what, auto mutate) {
    fed::ShardAssignBody body;
    mutate(body);
    hostile.emplace_back(std::move(what), body);
  };
  // The codec reaches WorkerFleet::Accept, which admits only registered
  // names: "off" was a second spelling of raw, fp16 a retired codec.
  add("compress=off", [](auto& b) { b.compress = "off"; });
  add("compress=fp16", [](auto& b) { b.compress = "fp16"; });
  add("compress=gzip", [](auto& b) { b.compress = "gzip"; });
  add("compress empty", [](auto& b) { b.compress.clear(); });
  for (const auto& [what, body] : hostile) {
    const Status status = decode(body);
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
  }
}

// The aggregator runs the root's backend: a name this build lacks fails
// its handshake with InvalidArgument, and the root hears why, instead of
// the shard running a backend of the aggregator's own choosing.
TEST(HierarchyTest, AggregatorRefusesAnUnknownBackend) {
  for (const std::string backend : {"cuda", ""}) {
    SCOPED_TRACE(backend);
    Result<net::ServerSocket> server = net::ServerSocket::Listen(0);
    ASSERT_TRUE(server.ok()) << server.status();
    fed::AggregatorOptions options;
    options.port = server->port();
    options.rpc.deadline_ms = 60000;
    fed::RegionalAggregator aggregator(options);
    Status status;
    std::thread agg_thread([&] { status = aggregator.Run(); });
    Status heard = InternalError("never connected");
    Result<net::Socket> sock = server->Accept(60000);
    EXPECT_TRUE(sock.ok()) << sock.status();
    if (sock.ok()) {
      net::HelloMsg hello;
      EXPECT_TRUE(net::ExpectMessage(*sock, &hello).ok());
      fed::ShardAssignBody assign;
      assign.config = ToWireConfig(BaseConfig());
      assign.config.backend = backend;
      assign.shard_end = assign.config.num_clients;
      const net::RoutedMsg envelope =
          fed::MakeEnvelope(net::EnvelopeKind::kShardAssign, 0, assign);
      EXPECT_TRUE(net::SendMessage(*sock, envelope).ok());
      net::RoutedMsg reply;
      heard = net::ExpectMessage(*sock, &reply);
    }
    agg_thread.join();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_EQ(heard.code(), StatusCode::kFailedPrecondition) << heard;
    EXPECT_NE(heard.ToString().find("unknown backend: " + backend + " (have:"),
              std::string::npos)
        << heard;
  }
}

// A TrainShardDone whose moment rows (or any other per-participant list)
// do not line up with rpc_ok is a decode error, so the root never indexes
// past a short list.
TEST(HierarchyTest, TrainShardDoneDecoderRejectsMisalignedLists) {
  fed::TrainShardDoneBody aligned;
  aligned.rpc_ok = {1, 0, 1};
  aligned.seconds = {0.1, 0.0, 0.2};
  aligned.losses = {1.0, 0.0, 2.0};
  aligned.num_samples = {5, 0, 7};
  aligned.confidences = {0.5, 0.0, 0.7};
  aligned.moments = {{1.0f, 2.0f}, {}, {3.0f, 4.0f}};
  ASSERT_TRUE(DecodeRoundTrip(aligned).ok());

  std::vector<std::pair<std::string, fed::TrainShardDoneBody>> hostile;
  const auto add = [&](std::string what, auto mutate) {
    fed::TrainShardDoneBody body = aligned;
    mutate(body);
    hostile.emplace_back(std::move(what), body);
  };
  add("moments short", [](auto& b) { b.moments.pop_back(); });
  add("moments long", [](auto& b) { b.moments.emplace_back(); });
  add("seconds short", [](auto& b) { b.seconds.pop_back(); });
  add("confidences long", [](auto& b) { b.confidences.push_back(0.1); });
  add("rpc_ok long", [](auto& b) { b.rpc_ok.push_back(1); });
  for (const auto& [what, body] : hostile) {
    const Status status = DecodeRoundTrip(body);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
  }
}

// Each shard's WorkerFleet pins the moment width of its own uploads only,
// so rows of two shards may disagree; the root's Eq. 6 input refuses them
// instead of aborting in StackNormalizedMoments.
TEST(HierarchyTest, RaggedMomentRowsAcrossShardsAreInvalidArgument) {
  const auto result = [](int client_id, size_t width) {
    LocalResult r;
    r.client_id = client_id;
    r.metrics.moments.assign(width, 0.5f);
    return r;
  };
  std::vector<LocalResult> same = {result(1, 45), result(7, 45)};
  Result<std::vector<std::span<const float>>> table =
      fed::MomentTable(10, same);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->size(), 10u);
  // Views of the uploads, not copies.
  EXPECT_EQ((*table)[7].data(), same[1].metrics.moments.data());
  EXPECT_EQ((*table)[7].size(), 45u);
  EXPECT_TRUE((*table)[0].empty());

  for (size_t other : {size_t{44}, size_t{0}, size_t{46}}) {
    std::vector<LocalResult> ragged = {result(1, 45), result(2, 45),
                                       result(7, other)};
    const Status status = fed::MomentTable(10, ragged).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << other;
  }
}

// The aggregator applies a GroupDeliver straight to its parameter table:
// every shard client must point at a delivered group or at none (-1), and
// each group must be exactly one of a local set and a finished vector.
TEST(HierarchyTest, GroupDeliverDecoderRejectsHostileFields) {
  fed::GroupDeliverBody good;
  good.local_sets = {{2, 3}, {}};
  good.params = {{}, {1.0f, 2.0f}};
  good.group_of = {0, -1, 0, 1};
  ASSERT_TRUE(DecodeRoundTrip(good).ok());

  std::vector<std::pair<std::string, fed::GroupDeliverBody>> hostile;
  const auto add = [&](std::string what, auto mutate) {
    fed::GroupDeliverBody body = good;
    mutate(body);
    hostile.emplace_back(std::move(what), body);
  };
  add("group_of<-1", [](auto& b) { b.group_of[1] = -2; });
  add("group_of past end", [](auto& b) { b.group_of[2] = 2; });
  add("lists misaligned", [](auto& b) { b.params.emplace_back(); });
  add("both set", [](auto& b) { b.params[0] = {1.0f}; });
  add("neither set", [](auto& b) { b.local_sets[0].clear(); });
  for (const auto& [what, body] : hostile) {
    const Status status = DecodeRoundTrip(body);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
  }
}

// The root refuses an aggregator that speaks an older protocol, and the
// aggregator hears why instead of a ShardAssign.
TEST(HierarchyTest, OldAggregatorHelloIsRefusedWithTheVersionError) {
  for (uint32_t version : {6u, 7u, 8u, 9u}) {
    SCOPED_TRACE(version);
    RemoteFedConfig config = BaseConfig();
    config.accept_timeout_ms = 10000;
    fed::RootCoordinator root(config);
    ASSERT_TRUE(root.Listen(0).ok());
    Result<SimulationResult> result = InternalError("root never ran");
    std::thread root_thread([&] { result = root.Run(); });
    Status assign_status = InternalError("never connected");
    Result<net::Socket> sock = net::Connect("127.0.0.1", root.port(), 10000);
    EXPECT_TRUE(sock.ok()) << sock.status();
    if (sock.ok()) {
      net::HelloMsg hello;
      hello.protocol_version = version;
      hello.node_role = static_cast<uint32_t>(net::NodeRole::kAggregator);
      EXPECT_TRUE(net::SendMessage(*sock, hello).ok());
      EXPECT_TRUE(sock->SetRecvTimeout(10000).ok());
      net::RoutedMsg assigned;
      assign_status = net::ExpectMessage(*sock, &assigned);
    }
    root_thread.join();
    const std::string speaks = "peer speaks " + std::to_string(version);
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
        << result.status();
    EXPECT_NE(result.status().ToString().find(speaks), std::string::npos)
        << result.status();
    EXPECT_EQ(assign_status.code(), StatusCode::kFailedPrecondition)
        << assign_status;
    EXPECT_NE(assign_status.ToString().find(speaks), std::string::npos)
        << assign_status;
  }
}

}  // namespace
}  // namespace fedgta
