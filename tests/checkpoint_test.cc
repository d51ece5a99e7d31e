// Serialization + checkpoint/resume state tests: the versioned binary
// format, the SaveState/LoadState contract across optimizers, clients, and
// every strategy, deterministic failure injection, and Simulation-level
// checkpoint files.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/serialize.h"
#include "data/federated.h"
#include "fed/failure.h"
#include "fed/simulation.h"
#include "fed/strategy.h"
#include "graph/generator.h"
#include "nn/optimizer.h"

namespace fedgta {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Crc32Test, MatchesKnownVector) {
  // The classic IEEE 802.3 check value for "123456789".
  const char data[] = "123456789";
  EXPECT_EQ(serialize::Crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(serialize::Crc32(data, 0), 0u);
}

TEST(SerializeTest, ScalarAndVectorRoundTrip) {
  serialize::Writer writer;
  writer.WriteU32(7u);
  writer.WriteU64(1ull << 40);
  writer.WriteI32(-3);
  writer.WriteI64(-(1ll << 40));
  writer.WriteFloat(1.5f);
  writer.WriteDouble(-2.25);
  writer.WriteBool(true);
  writer.WriteString("hello");
  writer.WriteFloatVec(std::vector<float>{1.0f, 2.0f});
  writer.WriteDoubleVec(std::vector<double>{3.0});
  writer.WriteI32Vec(std::vector<int32_t>{4, 5, 6});
  writer.WriteI64Vec(std::vector<int64_t>{});

  serialize::Reader reader(writer.payload());
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  float f = 0.0f;
  double d = 0.0;
  bool b = false;
  std::string s;
  std::vector<float> fv;
  std::vector<double> dv;
  std::vector<int32_t> iv;
  std::vector<int64_t> lv;
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadI32(&i32).ok());
  ASSERT_TRUE(reader.ReadI64(&i64).ok());
  ASSERT_TRUE(reader.ReadFloat(&f).ok());
  ASSERT_TRUE(reader.ReadDouble(&d).ok());
  ASSERT_TRUE(reader.ReadBool(&b).ok());
  ASSERT_TRUE(reader.ReadString(&s).ok());
  ASSERT_TRUE(reader.ReadFloatVec(&fv).ok());
  ASSERT_TRUE(reader.ReadDoubleVec(&dv).ok());
  ASSERT_TRUE(reader.ReadI32Vec(&iv).ok());
  ASSERT_TRUE(reader.ReadI64Vec(&lv).ok());
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(i32, -3);
  EXPECT_EQ(i64, -(1ll << 40));
  EXPECT_FLOAT_EQ(f, 1.5f);
  EXPECT_DOUBLE_EQ(d, -2.25);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(fv, (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(dv, (std::vector<double>{3.0}));
  EXPECT_EQ(iv, (std::vector<int32_t>{4, 5, 6}));
  EXPECT_TRUE(lv.empty());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerializeTest, OverReadIsOutOfRangeNotAbort) {
  serialize::Writer writer;
  writer.WriteU32(1u);
  serialize::Reader reader(writer.payload());
  uint64_t u64 = 0;
  EXPECT_EQ(reader.ReadU64(&u64).code(), StatusCode::kOutOfRange);
  // A length prefix larger than the remaining payload must be rejected too.
  serialize::Writer bad;
  bad.WriteU64(1ull << 50);  // claims a huge vector follows
  serialize::Reader vec_reader(bad.payload());
  std::vector<float> fv;
  EXPECT_EQ(vec_reader.ReadFloatVec(&fv).code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, FileRoundTripAndNotFound) {
  const std::string path = TempPath("fedgta_serialize_roundtrip.ckpt");
  serialize::Writer writer;
  writer.WriteString("payload");
  writer.WriteI64(42);
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  Result<serialize::Reader> reader = serialize::Reader::FromFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  std::string s;
  int64_t v = 0;
  ASSERT_TRUE(reader->ReadString(&s).ok());
  ASSERT_TRUE(reader->ReadI64(&v).ok());
  EXPECT_EQ(s, "payload");
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(reader->AtEnd());
  std::filesystem::remove(path);

  EXPECT_EQ(serialize::Reader::FromFile(TempPath("fedgta_no_such_file.ckpt"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(RngStateTest, SavedStreamContinuesIdentically) {
  Rng rng(123);
  for (int i = 0; i < 100; ++i) rng.Uniform();
  const std::string state = rng.SaveState();
  Rng restored(0);
  ASSERT_TRUE(restored.LoadState(state).ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(rng.Uniform(), restored.Uniform());
    EXPECT_EQ(rng.UniformInt(0, 1000), restored.UniformInt(0, 1000));
  }
}

TEST(RngStateTest, MalformedStateIsInvalidArgument) {
  Rng rng(1);
  for (int i = 0; i < 5; ++i) rng.Uniform();
  const std::string before = rng.SaveState();
  // The text is 312 state words and then the position, space-separated.
  const std::string words = before.substr(0, before.rfind(' ') + 1);
  const std::string short_list =
      words.substr(0, words.rfind(' ', words.size() - 2) + 1) + "5";
  for (const std::string& bad :
       {std::string("not a generator state"), std::string(), words,
        words + "313", words + "18446744073709551615", words + "-1",
        short_list}) {
    EXPECT_EQ(rng.LoadState(bad).code(), StatusCode::kInvalidArgument)
        << bad.substr(bad.size() > 40 ? bad.size() - 40 : 0);
    EXPECT_EQ(rng.SaveState(), before) << "a refused state changed the engine";
  }
  // The bounds of the valid range load.
  EXPECT_TRUE(Rng(2).LoadState(words + "0").ok());
  EXPECT_TRUE(Rng(2).LoadState(words + "312").ok());
}

// Steps an optimizer on a small parameter set, checkpoints it, and verifies
// a restored optimizer takes bit-identical further steps.
void CheckOptimizerRoundTrip(const OptimizerConfig& config) {
  Matrix w1(2, 3, 1.0f), g1(2, 3, 0.5f);
  Matrix w2(3, 1, -1.0f), g2(3, 1, 0.25f);
  std::vector<ParamRef> params{{&w1, &g1}, {&w2, &g2}};
  std::unique_ptr<Optimizer> opt = MakeOptimizer(config);
  opt->Step(params);
  opt->Step(params);

  serialize::Writer writer;
  opt->SaveState(&writer);

  Matrix w1b = w1, g1b = g1, w2b = w2, g2b = g2;
  std::vector<ParamRef> params_b{{&w1b, &g1b}, {&w2b, &g2b}};
  std::unique_ptr<Optimizer> restored = MakeOptimizer(config);
  serialize::Reader reader(writer.payload());
  ASSERT_TRUE(restored->LoadState(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());

  opt->Step(params);
  restored->Step(params_b);
  for (int64_t i = 0; i < w1.rows() * w1.cols(); ++i) {
    EXPECT_EQ(w1.data()[i], w1b.data()[i]);
  }
  for (int64_t i = 0; i < w2.rows() * w2.cols(); ++i) {
    EXPECT_EQ(w2.data()[i], w2b.data()[i]);
  }
}

TEST(OptimizerStateTest, SgdRoundTrip) {
  OptimizerConfig config;
  config.type = OptimizerType::kSgd;
  config.momentum = 0.9f;
  CheckOptimizerRoundTrip(config);
}

TEST(OptimizerStateTest, AdamRoundTrip) {
  OptimizerConfig config;
  config.type = OptimizerType::kAdam;
  CheckOptimizerRoundTrip(config);
}

TEST(OptimizerStateTest, CrossArchitectureLoadFails) {
  Matrix w(2, 2, 1.0f), g(2, 2, 0.5f);
  std::vector<ParamRef> params{{&w, &g}};
  OptimizerConfig config;
  config.type = OptimizerType::kSgd;
  std::unique_ptr<Optimizer> opt = MakeOptimizer(config);
  opt->Step(params);
  serialize::Writer writer;
  opt->SaveState(&writer);
  // Restoring after stepping a *different* shape must fail cleanly.
  Matrix w_other(3, 3, 1.0f), g_other(3, 3, 0.5f);
  std::vector<ParamRef> other{{&w_other, &g_other}};
  std::unique_ptr<Optimizer> restored = MakeOptimizer(config);
  restored->Step(other);
  serialize::Reader reader(writer.payload());
  EXPECT_FALSE(restored->LoadState(&reader).ok());
}

// Small synthetic federated dataset (mirrors fed_test.cc).
FederatedDataset MakeTinyFederated(int num_clients = 4, uint64_t seed = 1) {
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

TEST(ClientStateTest, RoundTripRestoresParamsAndRngStreams) {
  FederatedDataset fed = MakeTinyFederated();
  ModelConfig model = TinyModel();
  model.dropout = 0.3f;  // exercise the dropout RNG stream
  OptimizerConfig opt;
  Client client(&fed.clients[0], model, opt, 3);
  client.SetBatchSize(16);  // exercise the minibatch RNG stream
  client.TrainLocal(3);

  serialize::Writer writer;
  client.SaveState(&writer);

  Client restored(&fed.clients[0], model, opt, 999);  // different seed
  restored.SetBatchSize(16);
  serialize::Reader reader(writer.payload());
  ASSERT_TRUE(restored.LoadState(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(client.GetParams(), restored.GetParams());

  // Both stochastic streams restored: further training is bit-identical.
  const double loss_a = client.TrainLocal(2);
  const double loss_b = restored.TrainLocal(2);
  EXPECT_DOUBLE_EQ(loss_a, loss_b);
  EXPECT_EQ(client.GetParams(), restored.GetParams());
}

TEST(ClientStateTest, WrongClientIdIsFailedPrecondition) {
  FederatedDataset fed = MakeTinyFederated();
  Client a(&fed.clients[0], TinyModel(), OptimizerConfig{}, 3);
  Client b(&fed.clients[1], TinyModel(), OptimizerConfig{}, 3);
  serialize::Writer writer;
  a.SaveState(&writer);
  serialize::Reader reader(writer.payload());
  EXPECT_EQ(b.LoadState(&reader).code(), StatusCode::kFailedPrecondition);
}

// Runs one federated round for `name`, checkpoints the strategy, restores
// into a freshly initialized instance, and verifies every client's served
// parameters match bit-exactly.
void CheckStrategyRoundTrip(const std::string& name) {
  FederatedDataset fed = MakeTinyFederated();
  std::vector<Client> clients;
  ModelConfig model = TinyModel();
  if (name == "moon") {
    model.type = ModelType::kGcn;  // MOON needs a hidden representation
    model.hidden = 8;
  }
  for (const ClientData& shard : fed.clients) {
    clients.emplace_back(&shard, model, OptimizerConfig{}, 3);
  }
  std::vector<int64_t> sizes;
  for (Client& c : clients) sizes.push_back(c.num_train());

  StrategyOptions options;
  Result<std::unique_ptr<Strategy>> strategy = MakeStrategy(name, options);
  ASSERT_TRUE(strategy.ok()) << name;
  (*strategy)->Initialize(fed.num_clients(), sizes, clients[0].GetParams());
  std::vector<LocalResult> results;
  std::vector<int> participants;
  for (Client& c : clients) {
    results.push_back((*strategy)->TrainClient(c, 2, {}));
    participants.push_back(c.id());
  }
  (*strategy)->Aggregate(participants, results);

  serialize::Writer writer;
  (*strategy)->SaveState(&writer);

  Result<std::unique_ptr<Strategy>> restored = MakeStrategy(name, options);
  ASSERT_TRUE(restored.ok()) << name;
  (*restored)->Initialize(fed.num_clients(), sizes, clients[0].GetParams());
  serialize::Reader reader(writer.payload());
  ASSERT_TRUE((*restored)->LoadState(&reader).ok()) << name;
  EXPECT_TRUE(reader.AtEnd()) << name;

  for (int id = 0; id < fed.num_clients(); ++id) {
    const std::span<const float> a = (*strategy)->ParamsFor(id);
    const std::span<const float> b = (*restored)->ParamsFor(id);
    ASSERT_EQ(a.size(), b.size()) << name << " client " << id;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << name << " client " << id << " param " << i;
    }
  }
}

class StrategyStateTest : public testing::TestWithParam<const char*> {};

TEST_P(StrategyStateTest, SaveLoadRoundTripServesIdenticalParams) {
  CheckStrategyRoundTrip(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyStateTest,
                         testing::Values("fedavg", "fedprox", "scaffold",
                                         "moon", "feddc", "gcfl+", "fedgta",
                                         "local"),
                         [](const auto& info) {
                           std::string n(info.param);
                           if (n == "gcfl+") n = "gcflplus";
                           return n;
                         });

TEST(StrategyStateTest, CrossStrategyLoadIsFailedPrecondition) {
  StrategyOptions options;
  auto fedavg = MakeStrategy("fedavg", options);
  auto scaffold = MakeStrategy("scaffold", options);
  ASSERT_TRUE(fedavg.ok() && scaffold.ok());
  (*fedavg)->Initialize(2, {5, 5}, {1.0f, 2.0f});
  (*scaffold)->Initialize(2, {5, 5}, {1.0f, 2.0f});
  serialize::Writer writer;
  (*fedavg)->SaveState(&writer);
  serialize::Reader reader(writer.payload());
  EXPECT_EQ((*scaffold)->LoadState(&reader).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FailurePlanTest, PureFunctionOfRoundAndClient) {
  FailureConfig config;
  config.dropout_rate = 0.2;
  config.straggler_rate = 0.1;
  config.crash_rate = 0.05;
  config.seed = 77;
  const FailurePlan a(config);
  const FailurePlan b(config);  // independent instance, same config
  for (int round = 0; round < 50; ++round) {
    for (int client = 0; client < 20; ++client) {
      EXPECT_EQ(a.FateOf(round, client), b.FateOf(round, client));
      // Re-querying never changes the answer (no consumed stream).
      EXPECT_EQ(a.FateOf(round, client), a.FateOf(round, client));
    }
  }
}

TEST(FailurePlanTest, EmpiricalRatesMatchConfig) {
  FailureConfig config;
  config.dropout_rate = 0.2;
  config.straggler_rate = 0.1;
  config.seed = 13;
  const FailurePlan plan(config);
  int dropped = 0, stragglers = 0, crashed = 0, total = 0;
  for (int round = 0; round < 500; ++round) {
    for (int client = 0; client < 20; ++client) {
      ++total;
      switch (plan.FateOf(round, client)) {
        case ClientFate::kDropout: ++dropped; break;
        case ClientFate::kStraggler: ++stragglers; break;
        case ClientFate::kCrash: ++crashed; break;
        case ClientFate::kHealthy: break;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(dropped) / total, 0.2, 0.02);
  EXPECT_NEAR(static_cast<double>(stragglers) / total, 0.1, 0.02);
  EXPECT_EQ(crashed, 0);
}

TEST(FailurePlanTest, ZeroRatesDisableInjection) {
  FailureConfig config;
  EXPECT_FALSE(config.enabled());
  const FailurePlan plan(config);
  for (int round = 0; round < 20; ++round) {
    for (int client = 0; client < 10; ++client) {
      EXPECT_EQ(plan.FateOf(round, client), ClientFate::kHealthy);
    }
  }
}

TEST(SimulationCheckpointTest, WritesFileAndLoadsIntoFreshSimulation) {
  const std::string dir = TempPath("fedgta_sim_ckpt_test");
  std::filesystem::remove_all(dir);
  FederatedDataset fed = MakeTinyFederated();
  StrategyOptions sopt;
  SimulationConfig sim;
  sim.rounds = 4;
  sim.eval_every = 1;
  sim.seed = 21;
  sim.checkpoint_dir = dir;
  sim.checkpoint_every = 1;
  sim.halt_after_round = 2;
  {
    auto strategy = MakeStrategy("fedgta", sopt);
    Simulation simulation(&fed, TinyModel(), OptimizerConfig{},
                          std::move(*strategy), sim);
    const SimulationResult partial = simulation.Run();
    EXPECT_EQ(partial.curve.size(), 2u);
    EXPECT_EQ(partial.resumed_from_round, 0);
  }
  const std::string path = Simulation::CheckpointPath(dir);
  ASSERT_TRUE(std::filesystem::exists(path));

  auto strategy = MakeStrategy("fedgta", sopt);
  Simulation fresh(&fed, TinyModel(), OptimizerConfig{}, std::move(*strategy),
                   sim);
  EXPECT_TRUE(fresh.LoadCheckpoint(path).ok());

  // A simulation built with a different seed must refuse the checkpoint.
  SimulationConfig other = sim;
  other.seed = 22;
  auto strategy2 = MakeStrategy("fedgta", sopt);
  Simulation mismatched(&fed, TinyModel(), OptimizerConfig{},
                        std::move(*strategy2), other);
  EXPECT_EQ(mismatched.LoadCheckpoint(path).code(),
            StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fedgta
