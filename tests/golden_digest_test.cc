// Golden run digests: pins the in-process Simulation, the oracle every
// other plane is compared with, to its own past. Each configuration runs
// under the reference backend and hashes every deterministic field of its
// RunResult (the ones fed::DeterministicEquals compares; wall-clock seconds
// are left out) plus every client's final served parameters, then compares
// the hash with the committed value in kGolden. The same configurations
// run under the default "simd" backend against kSimdGolden, once with each
// of its ISA variants: both must give the same digests, whatever the host.
//
// A change that alters floats on purpose regenerates the table with one
// command:
//
//   ./build/tests/golden_digest_test
//
// Every mismatching configuration prints its actual digest; copy it into
// kGolden or kSimdGolden, and record the change with the accuracy before
// and after.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "fed/remote_config.h"
#include "fed/simulation.h"
#include "fed/strategy.h"
#include "linalg/backend.h"

namespace fedgta {
namespace {

/// 64-bit FNV-1a over the bytes of each value.
class Digest {
 public:
  template <typename T>
  void Add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct GoldenRun {
  const char* name;
  uint64_t digest;
  void (*configure)(RemoteFedConfig* config);
};

RemoteFedConfig BaseConfig() {
  RemoteFedConfig config;
  config.dataset = "cora";
  config.seed = 5;
  config.split.num_clients = 8;
  config.model.type = ModelType::kGcn;
  config.model.hidden = 16;
  config.strategy = "fedgta";
  config.sim.rounds = 3;
  config.sim.local_epochs = 2;
  config.sim.eval_every = 1;
  return config;
}

const GoldenRun kGolden[] = {
    {"fedgta_gcn_exact", 0x351239c14632d8d2ull, [](RemoteFedConfig*) {}},
    {"fedgta_gcn_lsh", 0x351239c14632d8d2ull,
     [](RemoteFedConfig* c) {
       c->strategy_options.fedgta.similarity.mode = SimilarityMode::kLsh;
     }},
    {"fedgta_sgc", 0x322f7eb47560691aull,
     [](RemoteFedConfig* c) {
       c->model.type = ModelType::kSgc;
       c->model.k = 2;
     }},
    {"fedavg_gcn", 0x0ff0ba246e78d90eull,
     [](RemoteFedConfig* c) { c->strategy = "fedavg"; }},
    {"fedgta_async_stragglers", 0x838c5a95ff639e83ull,
     [](RemoteFedConfig* c) {
       c->sim.rounds = 4;
       c->sim.async = true;
       c->sim.staleness_tau = 2;
       c->sim.failure.straggler_rate = 0.3;
       c->sim.failure.dropout_rate = 0.1;
       c->sim.failure.seed = 3;
     }},
};

/// kGolden's configurations under the simd backend, in the same order.
const GoldenRun kSimdGolden[] = {
    {"fedgta_gcn_exact", 0x072c8a5423f11d14ull, nullptr},
    {"fedgta_gcn_lsh", 0x072c8a5423f11d14ull, nullptr},
    {"fedgta_sgc", 0xebceb0914535b284ull, nullptr},
    {"fedavg_gcn", 0x632d3de04919f4a2ull, nullptr},
    {"fedgta_async_stragglers", 0xa7de6050d335bd6cull, nullptr},
};
static_assert(std::size(kSimdGolden) == std::size(kGolden));

uint64_t RunDigest(const RemoteFedConfig& config) {
  FederatedDataset data = MaterializeFederatedDataset(
      config.dataset, config.seed, config.split, config.federated);
  Result<std::unique_ptr<Strategy>> strategy =
      MakeStrategy(config.strategy, config.strategy_options);
  EXPECT_TRUE(strategy.ok()) << strategy.status();
  SimulationConfig sim = config.sim;
  sim.seed = config.seed;
  Simulation simulation(&data, config.model, config.optimizer,
                        std::move(*strategy), sim);
  const SimulationResult result = simulation.Run();

  Digest d;
  for (const RoundStats& r : result.curve) {
    d.Add(r.round);
    d.Add(r.test_accuracy);
    d.Add(r.val_accuracy);
    d.Add(r.train_loss);
    d.Add(r.upload_floats);
    d.Add(r.download_floats);
    d.Add(r.dropped_clients);
    d.Add(r.straggler_clients);
    d.Add(r.crashed_clients);
  }
  d.Add(result.best_test_accuracy);
  d.Add(result.final_test_accuracy);
  d.Add(result.total_upload_floats);
  d.Add(result.total_download_floats);
  d.Add(result.total_dropped_clients);
  d.Add(result.total_straggler_clients);
  d.Add(result.total_crashed_clients);
  d.Add(result.total_admitted_updates);
  d.Add(result.total_stale_dropped_updates);
  for (int id = 0; id < data.num_clients(); ++id) {
    for (float w : simulation.strategy().ParamsFor(id)) d.Add(w);
  }
  return d.value();
}

/// Runs kGolden's configurations under the active backend and compares
/// each digest with `digests`, matched by position.
void ExpectDigests(std::span<const GoldenRun> digests) {
  for (size_t i = 0; i < std::size(kGolden); ++i) {
    const GoldenRun& golden = digests[i];
    SCOPED_TRACE(golden.name);
    ASSERT_STREQ(golden.name, kGolden[i].name);
    RemoteFedConfig config = BaseConfig();
    kGolden[i].configure(&config);
    const uint64_t actual = RunDigest(config);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64 "ull", actual);
    EXPECT_EQ(actual, golden.digest)
        << golden.name << ": actual digest " << hex;
  }
}

TEST(GoldenDigestTest, InProcessRunsMatchTheCommittedDigests) {
  const linalg::ScopedBackend reference("reference");
  ExpectDigests(kGolden);
}

/// Selects the simd backend's `variant` for the scope, under a name only
/// this test registers.
void RunSimdVariant(linalg::internal::SimdVariant variant) {
  linalg::RegisterBackend("simd-variant", [variant] {
    return linalg::internal::MakeSimdVariantBackend(variant);
  });
  const linalg::ScopedBackend simd("simd-variant");
  ExpectDigests(kSimdGolden);
}

TEST(GoldenDigestTest, SimdPortableRunsMatchTheSimdDigests) {
  RunSimdVariant(linalg::internal::SimdVariant::kPortable);
}

TEST(GoldenDigestTest, SimdAvx2RunsMatchTheSimdDigests) {
  if (!linalg::internal::SimdAvx2Supported()) {
    GTEST_SKIP() << "host has no AVX2+FMA";
  }
  RunSimdVariant(linalg::internal::SimdVariant::kAvx2);
}

}  // namespace
}  // namespace fedgta
