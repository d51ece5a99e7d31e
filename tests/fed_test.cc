#include <cmath>
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/federated.h"
#include "fed/failure.h"
#include "fed/feddc.h"
#include "fed/fedgl.h"
#include "fed/fedgta_strategy.h"
#include "fed/fedprox.h"
#include "fed/fedsage.h"
#include "fed/gcfl_plus.h"
#include "fed/moon.h"
#include "fed/scaffold.h"
#include "fed/simulation.h"
#include "fed/strategy.h"
#include "graph/generator.h"
#include "linalg/ops.h"
#include "nn/loss.h"
#include "obs/metrics.h"

namespace fedgta {
namespace {

// Small synthetic federated dataset for strategy tests.
FederatedDataset MakeTinyFederated(int num_clients = 4, uint64_t seed = 1,
                                   bool inductive = false) {
  SbmConfig cfg;
  cfg.num_nodes = 400;
  cfg.num_classes = 4;
  cfg.avg_degree = 6.0;
  cfg.homophily = 0.85;
  cfg.regions_per_class = 2;
  Rng rng(seed);
  LabeledGraph lg = GeneratePlantedPartition(cfg, rng);
  Dataset ds;
  ds.name = "tiny";
  ds.graph = std::move(lg.graph);
  ds.labels = std::move(lg.labels);
  ds.num_classes = 4;
  FeatureConfig fcfg;
  fcfg.dim = 8;
  fcfg.noise_scale = 1.5f;
  ds.features = GenerateFeatures(ds.labels, 4, fcfg, rng);
  ds.inductive = inductive;
  StratifiedSplit(ds.labels, 4, 0.3, 0.2, rng, &ds.train_idx, &ds.val_idx,
                  &ds.test_idx);
  SplitConfig split;
  split.method = SplitMethod::kLouvain;
  split.num_clients = num_clients;
  Rng srng(seed ^ 7);
  return BuildFederatedDataset(std::move(ds), split, srng);
}

ModelConfig TinyModel() {
  ModelConfig cfg;
  cfg.type = ModelType::kSgc;
  cfg.k = 2;
  cfg.dropout = 0.0f;
  return cfg;
}

TEST(ClientTest, ParamsRoundTrip) {
  FederatedDataset fed = MakeTinyFederated();
  Client client(&fed.clients[0], TinyModel(), OptimizerConfig{}, 3);
  const std::vector<float> params = client.GetParams();
  EXPECT_EQ(static_cast<int64_t>(params.size()), client.param_count());
  std::vector<float> doubled = params;
  for (float& v : doubled) v *= 2.0f;
  client.SetParams(doubled);
  EXPECT_EQ(client.GetParams(), doubled);
}

TEST(ClientTest, TrainingReducesLoss) {
  FederatedDataset fed = MakeTinyFederated();
  OptimizerConfig opt;
  opt.lr = 0.05f;
  Client client(&fed.clients[0], TinyModel(), opt, 3);
  const double first = client.TrainLocal(1);
  double last = first;
  for (int i = 0; i < 20; ++i) last = client.TrainLocal(1);
  EXPECT_LT(last, first);
  EXPECT_GT(client.TestAccuracy(), 0.3);
}

TEST(ClientTest, OnePassEvalMatchesSeparateForwardPasses) {
  FederatedDataset fed = MakeTinyFederated();
  OptimizerConfig opt;
  opt.lr = 0.05f;
  for (ModelType type : {ModelType::kGcn, ModelType::kSage, ModelType::kSgc}) {
    SCOPED_TRACE(ModelTypeName(type));
    ModelConfig model = TinyModel();
    model.type = type;
    model.dropout = 0.5f;
    Client client(&fed.clients[0], model, opt, 3);
    client.TrainLocal(10);
    const ClientData& data = client.data();
    ASSERT_FALSE(data.test_idx.empty());
    ASSERT_FALSE(data.val_idx.empty());
    const double test = Accuracy(client.Predict(), data.labels, data.test_idx);
    const double val = Accuracy(client.Predict(), data.labels, data.val_idx);
    const Client::Accuracies scored = client.EvalAccuracies();
    EXPECT_EQ(scored.test, test);
    EXPECT_EQ(scored.val, val);
    EXPECT_EQ(client.TestAccuracy(), test);
    EXPECT_EQ(client.ValAccuracy(), val);
  }
}

TEST(ClientTest, GradHookObservesAndModifiesGrads) {
  FederatedDataset fed = MakeTinyFederated();
  Client client(&fed.clients[0], TinyModel(), OptimizerConfig{}, 3);
  const std::vector<float> before = client.GetParams();
  TrainHooks hooks;
  int calls = 0;
  hooks.grad_hook = [&calls](std::span<const float> params,
                             std::span<float> grads) {
    ++calls;
    EXPECT_EQ(params.size(), grads.size());
    // Zero out all gradients: weights must not change.
    for (float& g : grads) g = 0.0f;
  };
  client.TrainLocal(3, hooks);
  EXPECT_EQ(calls, 3);
  const std::vector<float> after = client.GetParams();
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i], after[i], 1e-3f)
        << "zeroed grads (weight decay aside) should freeze weights";
  }
}

TEST(ClientTest, FedGtaMetricsWellFormed) {
  FederatedDataset fed = MakeTinyFederated();
  Client client(&fed.clients[1], TinyModel(), OptimizerConfig{}, 3);
  FedGtaOptions options;
  options.k = 3;
  options.moment_order = 2;
  const ClientMetrics metrics = client.ComputeFedGtaMetrics(options);
  EXPECT_GT(metrics.confidence, 0.0);
  EXPECT_EQ(metrics.moments.size(), 3u * 2u * 4u);
}

TEST(ClientTest, EmptyTrainSetIsNoop) {
  FederatedDataset fed = MakeTinyFederated();
  ClientData shard = fed.clients[0];
  shard.train_idx.clear();
  Client client(&shard, TinyModel(), OptimizerConfig{}, 3);
  const std::vector<float> before = client.GetParams();
  EXPECT_DOUBLE_EQ(client.TrainLocal(5), 0.0);
  EXPECT_EQ(client.GetParams(), before);
}

TEST(MergeHooksTest, BothHooksRun) {
  int a = 0, b = 0;
  TrainHooks ha, hb;
  ha.grad_hook = [&a](std::span<const float>, std::span<float>) { ++a; };
  hb.grad_hook = [&b](std::span<const float>, std::span<float>) { ++b; };
  ha.logits_hook = [](const Matrix&, Matrix*) { return 1.0; };
  hb.logits_hook = [](const Matrix&, Matrix*) { return 2.0; };
  TrainHooks merged = MergeHooks(ha, hb);
  std::vector<float> p{1.0f}, g{1.0f};
  merged.grad_hook(p, g);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  Matrix logits(1, 1);
  EXPECT_DOUBLE_EQ(merged.logits_hook(logits, nullptr), 3.0);
  TrainHooks one = MergeHooks(ha, TrainHooks{});
  one.grad_hook(p, g);
  EXPECT_EQ(a, 2);
}

TEST(StrategyTest, ListAndFactory) {
  const auto names = ListStrategies();
  EXPECT_EQ(names.size(), 8u);
  StrategyOptions options;
  for (const std::string& name : names) {
    const auto strategy = MakeStrategy(name, options);
    ASSERT_TRUE(strategy.ok()) << name;
    EXPECT_EQ((*strategy)->name(), name);
  }
  EXPECT_FALSE(MakeStrategy("fedsgd", options).ok());
}

TEST(FedAvgTest, WeightedAverageBySampleCount) {
  FedAvgStrategy strategy;
  strategy.Initialize(2, {30, 10}, {0.0f, 0.0f});
  std::vector<LocalResult> results(2);
  results[0] = {0, {4.0f, 0.0f}, 30, 0.0, {}};
  results[1] = {1, {0.0f, 8.0f}, 10, 0.0, {}};
  strategy.Aggregate({0, 1}, results);
  const auto params = strategy.ParamsFor(0);
  EXPECT_NEAR(params[0], 3.0f, 1e-6f);  // 4 * 30/40
  EXPECT_NEAR(params[1], 2.0f, 1e-6f);  // 8 * 10/40
  // Both clients see the same global model.
  EXPECT_EQ(strategy.ParamsFor(0).data(), strategy.ParamsFor(1).data());
}

TEST(LocalOnlyTest, KeepsPerClientParams) {
  LocalOnlyStrategy strategy;
  strategy.Initialize(2, {5, 5}, {1.0f});
  std::vector<LocalResult> results(1);
  results[0] = {1, {42.0f}, 5, 0.0, {}};
  strategy.Aggregate({1}, results);
  EXPECT_FLOAT_EQ(strategy.ParamsFor(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(strategy.ParamsFor(1)[0], 42.0f);
}

TEST(FedProxTest, ProximalTermPullsTowardGlobal) {
  FederatedDataset fed = MakeTinyFederated();
  OptimizerConfig opt;
  opt.lr = 0.05f;
  Client client_plain(&fed.clients[0], TinyModel(), opt, 3);
  Client client_prox(&fed.clients[0], TinyModel(), opt, 3);

  FedProxStrategy weak(0.0f);
  FedProxStrategy strong(10.0f);
  const std::vector<float> init = client_plain.GetParams();
  weak.Initialize(fed.num_clients(), {10, 10, 10, 10}, init);
  strong.Initialize(fed.num_clients(), {10, 10, 10, 10}, init);
  client_prox.SetParams(init);

  const LocalResult r_weak = weak.TrainClient(client_plain, 10, {});
  const LocalResult r_strong = strong.TrainClient(client_prox, 10, {});
  // Drift from the global anchor must be smaller under a strong prox term.
  double drift_weak = 0.0, drift_strong = 0.0;
  for (size_t i = 0; i < init.size(); ++i) {
    drift_weak += std::fabs(r_weak.params[i] - init[i]);
    drift_strong += std::fabs(r_strong.params[i] - init[i]);
  }
  EXPECT_LT(drift_strong, drift_weak);
}

TEST(ScaffoldTest, ControlVariatesUpdate) {
  FederatedDataset fed = MakeTinyFederated();
  OptimizerConfig opt;
  opt.type = OptimizerType::kSgd;
  opt.momentum = 0.0f;
  opt.lr = 0.05f;
  Client client(&fed.clients[0], TinyModel(), opt, 3);
  ScaffoldStrategy strategy(opt.lr);
  strategy.Initialize(fed.num_clients(), {10, 10, 10, 10}, client.GetParams());
  const LocalResult r = strategy.TrainClient(client, 3, {});
  EXPECT_EQ(r.params.size(), client.GetParams().size());
  strategy.Aggregate({0}, {r});
  // Second round must also run cleanly with updated control variates.
  const LocalResult r2 = strategy.TrainClient(client, 3, {});
  EXPECT_EQ(r2.client_id, 0);
}

TEST(MoonTest, RunsAndAggregates) {
  FederatedDataset fed = MakeTinyFederated();
  ModelConfig model;
  model.type = ModelType::kGcn;  // has a hidden representation
  model.hidden = 8;
  model.dropout = 0.0f;
  OptimizerConfig opt;
  Client client(&fed.clients[0], model, opt, 3);
  MoonStrategy strategy(1.0f, 0.5f);
  strategy.Initialize(fed.num_clients(), {10, 10, 10, 10}, client.GetParams());
  const LocalResult r = strategy.TrainClient(client, 2, {});
  EXPECT_GT(r.loss, 0.0);
  strategy.Aggregate({0}, {r});
}

TEST(FedDcTest, DriftAccumulates) {
  FederatedDataset fed = MakeTinyFederated();
  OptimizerConfig opt;
  opt.lr = 0.1f;
  Client client(&fed.clients[0], TinyModel(), opt, 3);
  FedDcStrategy strategy(0.01f);
  const std::vector<float> init = client.GetParams();
  strategy.Initialize(fed.num_clients(), {10, 10, 10, 10}, init);
  const LocalResult r = strategy.TrainClient(client, 5, {});
  strategy.Aggregate({0}, {r});
  // Global model moved away from init (drift-corrected average).
  double moved = 0.0;
  const auto now = strategy.ParamsFor(0);
  for (size_t i = 0; i < init.size(); ++i) moved += std::fabs(now[i] - init[i]);
  EXPECT_GT(moved, 0.0);
}

TEST(GcflPlusTest, SplitsDivergentClients) {
  GcflPlusStrategy strategy(/*window=*/2, /*eps1=*/10.0f, /*eps2=*/0.0f);
  // eps1 huge and eps2 tiny: the split criterion fires immediately.
  strategy.Initialize(4, {1, 1, 1, 1}, {0.0f, 0.0f});
  // Two groups with opposite update directions.
  std::vector<LocalResult> results(4);
  results[0] = {0, {1.0f, 0.0f}, 1, 0.0, {}};
  results[1] = {1, {1.0f, 0.1f}, 1, 0.0, {}};
  results[2] = {2, {-1.0f, 0.0f}, 1, 0.0, {}};
  results[3] = {3, {-1.0f, -0.1f}, 1, 0.0, {}};
  strategy.Aggregate({0, 1, 2, 3}, results);
  EXPECT_EQ(strategy.num_clusters(), 2);
  const auto& clusters = strategy.clusters();
  EXPECT_EQ(clusters[0], clusters[1]);
  EXPECT_EQ(clusters[2], clusters[3]);
  EXPECT_NE(clusters[0], clusters[2]);
  // Cluster models differ.
  EXPECT_NE(strategy.ParamsFor(0)[0], strategy.ParamsFor(2)[0]);
}

TEST(GcflPlusTest, NoSplitWhenCriterionUnmet) {
  GcflPlusStrategy strategy(/*window=*/2, /*eps1=*/1e-9f, /*eps2=*/1e9f);
  strategy.Initialize(4, {1, 1, 1, 1}, {0.0f});
  std::vector<LocalResult> results(4);
  for (int i = 0; i < 4; ++i) {
    results[static_cast<size_t>(i)] = {i, {static_cast<float>(i)}, 1, 0.0, {}};
  }
  strategy.Aggregate({0, 1, 2, 3}, results);
  EXPECT_EQ(strategy.num_clusters(), 1);
}

TEST(FedGtaStrategyTest, UploadsMetricsAndPersonalizes) {
  FederatedDataset fed = MakeTinyFederated();
  std::vector<Client> clients;
  for (const ClientData& shard : fed.clients) {
    clients.emplace_back(&shard, TinyModel(), OptimizerConfig{}, 3);
  }
  FedGtaOptions options;
  options.k = 2;
  options.moment_order = 2;
  options.epsilon = 0.9;  // strict: likely personalized sets
  FedGtaStrategy strategy(options);
  std::vector<int64_t> sizes;
  for (Client& c : clients) sizes.push_back(c.num_train());
  strategy.Initialize(fed.num_clients(), sizes, clients[0].GetParams());

  std::vector<LocalResult> results;
  std::vector<int> participants;
  for (Client& c : clients) {
    results.push_back(strategy.TrainClient(c, 2, {}));
    participants.push_back(c.id());
    EXPECT_GT(results.back().metrics.confidence, 0.0);
    EXPECT_FALSE(results.back().metrics.moments.empty());
  }
  strategy.Aggregate(participants, results);
  const auto& sets = strategy.last_aggregation_sets();
  ASSERT_EQ(sets.size(), static_cast<size_t>(fed.num_clients()));
  for (int i = 0; i < fed.num_clients(); ++i) {
    ASSERT_FALSE(sets[static_cast<size_t>(i)].empty());
    EXPECT_EQ(sets[static_cast<size_t>(i)].front(), i);
  }
}

TEST(FedSageTest, AugmentAddsGeneratedNodes) {
  FederatedDataset fed = MakeTinyFederated();
  FedSageConfig config;
  config.gen_epochs = 5;
  config.gen_fed_rounds = 1;
  Rng rng(11);
  const std::vector<ClientData> mended =
      FedSageAugment(fed.clients, config, rng);
  ASSERT_EQ(mended.size(), fed.clients.size());
  int64_t added = 0;
  for (size_t c = 0; c < mended.size(); ++c) {
    const ClientData& before = fed.clients[c];
    const ClientData& after = mended[c];
    EXPECT_GE(after.num_nodes(), before.num_nodes());
    added += after.num_nodes() - before.num_nodes();
    // Supervision masks unchanged.
    EXPECT_EQ(after.train_idx, before.train_idx);
    EXPECT_EQ(after.test_idx, before.test_idx);
    // Generated nodes carry the -1 global id sentinel.
    for (int64_t i = before.num_nodes(); i < after.num_nodes(); ++i) {
      EXPECT_EQ(after.sub.global_ids[static_cast<size_t>(i)], -1);
    }
    // Shapes consistent.
    EXPECT_EQ(after.features.rows(), after.num_nodes());
    EXPECT_EQ(static_cast<int64_t>(after.labels.size()), after.num_nodes());
    EXPECT_EQ(after.train_graph.num_nodes(), after.num_nodes());
  }
  EXPECT_GT(added, 0) << "the generator should mend at least some nodes";
}

TEST(FedGlTest, PseudoLabelsOnSharedNodes) {
  // Build with overlap so FedGL has shared nodes.
  SbmConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_classes = 3;
  cfg.avg_degree = 6.0;
  Rng rng(21);
  LabeledGraph lg = GeneratePlantedPartition(cfg, rng);
  Dataset ds;
  ds.graph = std::move(lg.graph);
  ds.labels = std::move(lg.labels);
  ds.num_classes = 3;
  FeatureConfig fcfg;
  fcfg.dim = 6;
  ds.features = GenerateFeatures(ds.labels, 3, fcfg, rng);
  StratifiedSplit(ds.labels, 3, 0.3, 0.2, rng, &ds.train_idx, &ds.val_idx,
                  &ds.test_idx);
  SplitConfig split;
  split.num_clients = 3;
  FederatedOptions options;
  options.overlap_fraction = 0.15;
  Rng srng(22);
  FederatedDataset fed =
      BuildFederatedDataset(std::move(ds), split, srng, options);

  FedGlCoordinator coordinator(&fed, FedGlConfig{});
  EXPECT_GT(coordinator.num_shared_nodes(), 0);

  std::vector<Client> clients;
  for (const ClientData& shard : fed.clients) {
    clients.emplace_back(&shard, TinyModel(), OptimizerConfig{}, 3);
  }
  coordinator.UpdatePseudoLabels(clients, {0, 1, 2});
  // After the refresh, at least one client's hooks add pseudo loss.
  double total_extra = 0.0;
  for (Client& c : clients) {
    TrainHooks hooks = coordinator.HooksFor(c.id());
    ASSERT_TRUE(static_cast<bool>(hooks.logits_hook));
    Matrix logits = c.Predict();
    Matrix dlogits(logits.rows(), logits.cols());
    total_extra += hooks.logits_hook(logits, &dlogits);
  }
  EXPECT_GT(total_extra, 0.0);
}

TEST(SimulationTest, RunsAndTracksCurve) {
  FederatedDataset fed = MakeTinyFederated();
  StrategyOptions sopt;
  auto strategy = MakeStrategy("fedavg", sopt);
  SimulationConfig sim;
  sim.rounds = 5;
  sim.local_epochs = 2;
  sim.eval_every = 1;
  Simulation simulation(&fed, TinyModel(), OptimizerConfig{},
                        std::move(*strategy), sim);
  const SimulationResult result = simulation.Run();
  EXPECT_EQ(result.curve.size(), 5u);
  EXPECT_GT(result.final_test_accuracy, 0.2);
  EXPECT_GE(result.best_test_accuracy, 0.0);
  EXPECT_GT(result.total_client_seconds, 0.0);
  for (size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GT(result.curve[i].round, result.curve[i - 1].round);
    EXPECT_GE(result.curve[i].client_seconds, result.curve[i - 1].client_seconds);
  }
}

TEST(SimulationTest, PartialParticipationSamplesSubset) {
  FederatedDataset fed = MakeTinyFederated(6);
  StrategyOptions sopt;
  auto strategy = MakeStrategy("fedavg", sopt);
  SimulationConfig sim;
  sim.rounds = 3;
  sim.participation = 0.34;  // 2 of 6 clients per round
  Simulation simulation(&fed, TinyModel(), OptimizerConfig{},
                        std::move(*strategy), sim);
  const SimulationResult result = simulation.Run();
  EXPECT_EQ(result.curve.size(), 3u);
}

TEST(SimulationTest, DeterministicPerSeed) {
  SimulationConfig sim;
  sim.rounds = 3;
  sim.eval_every = 1;
  sim.seed = 99;
  StrategyOptions sopt;
  double acc[2];
  for (int trial = 0; trial < 2; ++trial) {
    FederatedDataset fed = MakeTinyFederated(4, /*seed=*/5);
    auto strategy = MakeStrategy("fedgta", sopt);
    Simulation simulation(&fed, TinyModel(), OptimizerConfig{},
                          std::move(*strategy), sim);
    acc[trial] = simulation.Run().final_test_accuracy;
  }
  EXPECT_DOUBLE_EQ(acc[0], acc[1]);
}

// Runs one simulation with `pool_size` workers and returns its full
// evaluation curve. Dropout, minibatching, and partial participation are all
// on so every per-client RNG stream is exercised under concurrency.
std::vector<RoundStats> RunCurveWithPoolSize(const std::string& strategy_name,
                                             int pool_size) {
  SetGlobalThreadPoolSize(pool_size);
  FederatedDataset fed = MakeTinyFederated(/*num_clients=*/6, /*seed=*/5);
  ModelConfig model = TinyModel();
  model.dropout = 0.3f;
  SimulationConfig sim;
  sim.rounds = 4;
  sim.local_epochs = 2;
  sim.batch_size = 16;
  sim.participation = 0.7;
  sim.eval_every = 1;
  sim.seed = 99;
  StrategyOptions sopt;
  auto strategy = MakeStrategy(strategy_name, sopt);
  EXPECT_TRUE(strategy.ok());
  Simulation simulation(&fed, model, OptimizerConfig{}, std::move(*strategy),
                        sim);
  return simulation.Run().curve;
}

// The round executor's determinism guarantee (DESIGN.md "Execution
// engine"): a run with a 4-worker pool is bit-identical to the 1-worker
// serial run, per round, for losses and accuracies alike.
class ParallelDeterminismTest
    : public testing::TestWithParam<const char*> {
 protected:
  ~ParallelDeterminismTest() override { SetGlobalThreadPoolSize(0); }
};

TEST_P(ParallelDeterminismTest, ParallelRunMatchesSerialBitExactly) {
  const std::vector<RoundStats> serial = RunCurveWithPoolSize(GetParam(), 1);
  const std::vector<RoundStats> parallel =
      RunCurveWithPoolSize(GetParam(), 4);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_FALSE(serial.empty());
  for (size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].round, parallel[r].round);
    EXPECT_DOUBLE_EQ(serial[r].train_loss, parallel[r].train_loss)
        << GetParam() << " round " << serial[r].round;
    EXPECT_DOUBLE_EQ(serial[r].val_accuracy, parallel[r].val_accuracy)
        << GetParam() << " round " << serial[r].round;
    EXPECT_DOUBLE_EQ(serial[r].test_accuracy, parallel[r].test_accuracy)
        << GetParam() << " round " << serial[r].round;
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, ParallelDeterminismTest,
                         testing::Values("fedavg", "fedgta", "scaffold"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// Runs the full simulation for `strategy_name` either straight through or
// killed at round `halt_at` and resumed from the checkpoint, with
// `pool_size` workers. Returns the curve; timings are zeroed so comparisons
// cover only deterministic quantities.
std::vector<RoundStats> RunMaybeResumed(const std::string& strategy_name,
                                        int pool_size, int halt_at,
                                        const std::string& dir) {
  SetGlobalThreadPoolSize(pool_size);
  ModelConfig model = TinyModel();
  model.dropout = 0.3f;
  SimulationConfig sim;
  sim.rounds = 4;
  sim.local_epochs = 2;
  sim.batch_size = 16;
  sim.participation = 0.7;
  sim.eval_every = 1;
  sim.seed = 99;
  StrategyOptions sopt;
  SimulationResult result;
  if (halt_at <= 0) {
    FederatedDataset fed = MakeTinyFederated(/*num_clients=*/6, /*seed=*/5);
    auto strategy = MakeStrategy(strategy_name, sopt);
    Simulation simulation(&fed, model, OptimizerConfig{},
                          std::move(*strategy), sim);
    result = simulation.Run();
  } else {
    sim.checkpoint_dir = dir;
    sim.checkpoint_every = 1;
    std::filesystem::remove_all(dir);
    {
      SimulationConfig first = sim;
      first.halt_after_round = halt_at;
      FederatedDataset fed = MakeTinyFederated(6, 5);
      auto strategy = MakeStrategy(strategy_name, sopt);
      Simulation simulation(&fed, model, OptimizerConfig{},
                            std::move(*strategy), first);
      const SimulationResult partial = simulation.Run();
      EXPECT_EQ(partial.curve.size(), static_cast<size_t>(halt_at));
    }
    // "Process restart": everything rebuilt from scratch, state from disk.
    SimulationConfig second = sim;
    second.resume = true;
    FederatedDataset fed = MakeTinyFederated(6, 5);
    auto strategy = MakeStrategy(strategy_name, sopt);
    Simulation simulation(&fed, model, OptimizerConfig{},
                          std::move(*strategy), second);
    result = simulation.Run();
    EXPECT_EQ(result.resumed_from_round, halt_at);
    std::filesystem::remove_all(dir);
  }
  for (RoundStats& stats : result.curve) {
    stats.client_seconds = 0.0;
    stats.server_seconds = 0.0;
  }
  return result.curve;
}

// Checkpoint/resume determinism: killing the run at a round boundary and
// resuming from the checkpoint yields the exact curve of an uninterrupted
// run — for every strategy with cross-round server state, serial and with a
// 4-worker pool.
class ResumeDeterminismTest : public testing::TestWithParam<const char*> {
 protected:
  ~ResumeDeterminismTest() override { SetGlobalThreadPoolSize(0); }
};

TEST_P(ResumeDeterminismTest, ResumedRunMatchesUninterruptedBitExactly) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       (std::string("fedgta_resume_") + GetParam()))
          .string();
  for (int pool_size : {1, 4}) {
    const std::vector<RoundStats> straight =
        RunMaybeResumed(GetParam(), pool_size, /*halt_at=*/0, dir);
    const std::vector<RoundStats> resumed =
        RunMaybeResumed(GetParam(), pool_size, /*halt_at=*/2, dir);
    ASSERT_EQ(straight.size(), resumed.size());
    ASSERT_FALSE(straight.empty());
    for (size_t r = 0; r < straight.size(); ++r) {
      EXPECT_EQ(straight[r].round, resumed[r].round);
      EXPECT_DOUBLE_EQ(straight[r].train_loss, resumed[r].train_loss)
          << GetParam() << " pool " << pool_size << " round "
          << straight[r].round;
      EXPECT_DOUBLE_EQ(straight[r].val_accuracy, resumed[r].val_accuracy)
          << GetParam() << " pool " << pool_size << " round "
          << straight[r].round;
      EXPECT_DOUBLE_EQ(straight[r].test_accuracy, resumed[r].test_accuracy)
          << GetParam() << " pool " << pool_size << " round "
          << straight[r].round;
      EXPECT_EQ(straight[r].upload_floats, resumed[r].upload_floats);
      EXPECT_EQ(straight[r].download_floats, resumed[r].download_floats);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, ResumeDeterminismTest,
                         testing::Values("fedavg", "fedgta", "scaffold"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// Failure injection end to end: a 20% deterministic dropout run completes,
// reports its failure counts through the curve, the metrics registry, and
// the result totals, and FedGTA's Eq. (7) aggregation sets renormalize over
// the surviving participants only.
TEST(SimulationFailureTest, DropoutRunCompletesAndCountsFailures) {
  FederatedDataset fed = MakeTinyFederated(/*num_clients=*/6, /*seed=*/5);
  StrategyOptions sopt;
  auto strategy = MakeStrategy("fedgta", sopt);
  Strategy* strategy_ptr = strategy->get();
  SimulationConfig sim;
  sim.rounds = 5;
  sim.local_epochs = 2;
  sim.eval_every = 1;
  sim.seed = 99;
  sim.failure.dropout_rate = 0.2;
  sim.failure.seed = 7;
  Counter& dropped_counter =
      GlobalMetrics().GetCounter("fed.round.dropped_clients");
  const int64_t dropped_before = dropped_counter.value();
  Simulation simulation(&fed, TinyModel(), OptimizerConfig{},
                        std::move(*strategy), sim);
  const SimulationResult result = simulation.Run();

  EXPECT_EQ(result.curve.size(), 5u);
  EXPECT_GT(result.final_test_accuracy, 0.2);
  // The plan drops ~20% of 6 clients x 5 rounds; with these seeds at least
  // one dropout must occur, and each surface must agree on the count.
  EXPECT_GT(result.total_dropped_clients, 0);
  EXPECT_EQ(result.curve.back().dropped_clients,
            result.total_dropped_clients);
  EXPECT_EQ(dropped_counter.value() - dropped_before,
            result.total_dropped_clients);
  EXPECT_EQ(result.total_straggler_clients, 0);
  EXPECT_EQ(result.total_crashed_clients, 0);

  // Survivor-only aggregation: the last round's FedGTA aggregation sets must
  // not contain any client that dropped in that round.
  const FailurePlan plan(sim.failure);
  auto* fedgta_strategy = dynamic_cast<FedGtaStrategy*>(strategy_ptr);
  ASSERT_NE(fedgta_strategy, nullptr);
  const auto& sets = fedgta_strategy->last_aggregation_sets();
  for (const auto& set : sets) {
    for (int member : set) {
      EXPECT_NE(plan.FateOf(sim.rounds, member), ClientFate::kDropout)
          << "dropped client " << member << " leaked into an aggregation set";
    }
  }
}

TEST(SimulationFailureTest, StragglersAndCrashesAreDiscarded) {
  FederatedDataset fed = MakeTinyFederated(/*num_clients=*/6, /*seed=*/5);
  StrategyOptions sopt;
  auto strategy = MakeStrategy("fedavg", sopt);
  SimulationConfig sim;
  sim.rounds = 4;
  sim.local_epochs = 2;
  sim.eval_every = 1;
  sim.seed = 99;
  sim.failure.straggler_rate = 0.2;
  sim.failure.crash_rate = 0.2;
  sim.failure.seed = 3;
  Simulation simulation(&fed, TinyModel(), OptimizerConfig{},
                        std::move(*strategy), sim);
  const SimulationResult result = simulation.Run();
  EXPECT_EQ(result.curve.size(), 4u);
  EXPECT_GT(result.total_straggler_clients + result.total_crashed_clients, 0);
  EXPECT_EQ(result.total_dropped_clients, 0);
  // Training still converges on the survivors.
  EXPECT_GT(result.final_test_accuracy, 0.2);
}

// The ClientMetricsCache must not change what a client uploads: repeated
// metric computations (as happen across rounds) return identical moments
// and confidence, including under the FedGTA+feat extension whose feature
// block is the cached part.
TEST(ClientTest, FedGtaMetricsStableAcrossRepeatedCalls) {
  FederatedDataset fed = MakeTinyFederated();
  Client client(&fed.clients[0], TinyModel(), OptimizerConfig{}, 3);
  FedGtaOptions options;
  options.use_feature_moments = true;
  options.feature_moment_dims = 4;
  Counter& lp_calls =
      GlobalMetrics().GetCounter("phase.label_propagation.calls");
  const int64_t before_first = lp_calls.value();
  const ClientMetrics first = client.ComputeFedGtaMetrics(options);
  // First call propagates both soft labels and features (2 LP runs); later
  // calls reuse the cached feature block (1 LP run).
  EXPECT_EQ(lp_calls.value() - before_first, 2);
  client.TrainLocal(1);  // weights change; cached operator/features must not
  const int64_t before_again = lp_calls.value();
  const ClientMetrics again = client.ComputeFedGtaMetrics(options);
  EXPECT_EQ(lp_calls.value() - before_again, 1);
  EXPECT_EQ(first.moments.size(), again.moments.size());

  // A fresh client at the same weights reproduces the cached-path output.
  Client fresh(&fed.clients[0], TinyModel(), OptimizerConfig{}, 3);
  fresh.SetParams(client.GetParams());
  const ClientMetrics recomputed = fresh.ComputeFedGtaMetrics(options);
  ASSERT_EQ(again.moments.size(), recomputed.moments.size());
  EXPECT_DOUBLE_EQ(again.confidence, recomputed.confidence);
  for (size_t i = 0; i < again.moments.size(); ++i) {
    EXPECT_FLOAT_EQ(again.moments[i], recomputed.moments[i]) << "dim " << i;
  }
  // Changing a cached-key option (k) rebuilds rather than serving stale data.
  FedGtaOptions deeper = options;
  deeper.k = options.k + 2;
  const ClientMetrics rebuilt = fresh.ComputeFedGtaMetrics(deeper);
  EXPECT_NE(rebuilt.moments.size(), 0u);
  EXPECT_NE(rebuilt.moments, recomputed.moments);
}

}  // namespace
}  // namespace fedgta
