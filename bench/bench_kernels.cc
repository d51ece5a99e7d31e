// Supporting microbenchmarks for the substrate kernels: dense GEMM, sparse
// SpMM, label propagation, moments, Louvain, and METIS-style partitioning.
// These back the Table 1 / §4.5 discussion with kernel-level numbers.
//
// Before the google-benchmark suite, an unfiltered run (no
// --benchmark_filter) runs two sweeps:
//  * a kernel-backend sweep (every registered backend) over GEMM and SpMM,
//    written to BENCH_kernels_backends.json — the artifact behind the
//    backend speedup claims (see DESIGN.md "Kernel backends");
//  * a thread-scaling sweep (1/2/4/8 pool threads) over GEMM, SpMM, and
//    full federated rounds, written to BENCH_parallel.json — the artifact
//    behind the parallel round-executor claims (see DESIGN.md "Execution
//    engine").

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "linalg/backend.h"
#include "core/label_propagation.h"
#include "core/moments.h"
#include "data/federated.h"
#include "data/registry.h"
#include "fed/simulation.h"
#include "graph/generator.h"
#include "graph/normalized_adjacency.h"
#include "linalg/ops.h"
#include "partition/louvain.h"
#include "partition/metis.h"

namespace fedgta {
namespace {

LabeledGraph MakeGraph(int n, uint64_t seed) {
  SbmConfig cfg;
  cfg.num_nodes = n;
  cfg.num_classes = 8;
  cfg.avg_degree = 10.0;
  Rng rng(seed);
  return GeneratePlantedPartition(cfg, rng);
}

// The simd backend's portable variant, under a name only this binary
// registers, so every per-backend arm below times it too on hosts whose
// cpuid picks AVX2+FMA. Registered before the benchmarks that list the
// backends (static initialization runs in definition order).
const bool kSimdPortableRegistered = [] {
  linalg::RegisterBackend("simd-portable", [] {
    return linalg::internal::MakeSimdVariantBackend(
        linalg::internal::SimdVariant::kPortable);
  });
  return true;
}();

/// Selects ListBackends()[index] for the scope; -1 keeps the active one.
std::string BackendArm(int64_t index) {
  return index < 0 ? std::string(linalg::ActiveBackendName())
                   : linalg::ListBackends().at(static_cast<size_t>(index));
}

// Args: m, k, n (C is m x n, the inner dimension k), transpose A,
// transpose B, backend (index into ListBackends(); -1 = the active one).
void BM_Gemm(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t k = state.range(1);
  const int64_t n = state.range(2);
  const bool ta = state.range(3) != 0;
  const bool tb = state.range(4) != 0;
  linalg::ScopedBackend scoped(BackendArm(state.range(5)));
  state.SetLabel(linalg::ActiveBackend().description());
  Rng rng(1);
  Matrix a = ta ? Matrix(k, m) : Matrix(m, k);
  Matrix b = tb ? Matrix(n, k) : Matrix(k, n);
  Matrix c(m, n);
  a.GaussianInit(rng, 1.0f);
  b.GaussianInit(rng, 1.0f);
  for (auto _ : state) {
    Gemm(a, ta ? Transpose::kYes : Transpose::kNo, b,
         tb ? Transpose::kYes : Transpose::kNo, 1.0f, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_Gemm)
    ->Args({128, 128, 128, 0, 0, -1})
    ->Args({256, 256, 256, 0, 0, -1})
    ->Args({512, 512, 512, 0, 0, -1})
    ->Unit(benchmark::kMillisecond);

// One ogbn-arxiv client of the inproc-arxiv benchmark workload (about 2,400
// rows, hidden 64, 40 classes) trains a 2-layer GCN with these GEMMs: the
// forward X·W, the backward dY·Wᵀ, and the weight gradient Xᵀ·dY. Each
// runs under every registered backend.
void ArxivClientGemms(benchmark::internal::Benchmark* bench) {
  const int64_t backends =
      static_cast<int64_t>(linalg::ListBackends().size());
  for (int64_t backend = 0; backend < backends; ++backend) {
    bench->Args({2400, 64, 64, 0, 0, backend});
    bench->Args({2400, 40, 64, 0, 1, backend});
    bench->Args({64, 2400, 64, 1, 0, backend});
  }
}
BENCHMARK(BM_Gemm)->Apply(ArxivClientGemms)->Unit(benchmark::kMicrosecond);

// The Eq. 6 exact check of the LSH plane on the server-10k shape: a
// 10,000 x 150 table of normalized moment rows, and for each of 64 rows
// about 700 screened candidates (ascending ids, as LshScreen lists them)
// whose cosines GatherDots computes in place. Arg: backend (index into
// ListBackends()). Reports time per candidate ("survivor").
void BM_Eq6ExactCheck(benchmark::State& state) {
  const linalg::Backend* backend =
      linalg::FindBackend(BackendArm(state.range(0)));
  state.SetLabel(backend->description());
  const int64_t rows = 10000;
  const int64_t d = 150;
  Rng rng(6);
  Matrix table(rows, d);
  table.GaussianInit(rng, 1.0f);
  for (int64_t r = 0; r < rows; ++r) {
    const float norm = static_cast<float>(L2Norm(table.Row(r)));
    for (float& x : table.Row(r)) x /= norm;
  }
  std::vector<std::vector<int32_t>> candidates(64);
  int64_t survivors = 0;
  for (std::vector<int32_t>& list : candidates) {
    for (int64_t b = 0; b < rows; ++b) {
      if (rng.UniformInt(0, 13) == 0) list.push_back(static_cast<int32_t>(b));
    }
    survivors += static_cast<int64_t>(list.size());
  }
  std::vector<float> sims(static_cast<size_t>(rows));
  for (auto _ : state) {
    for (size_t a = 0; a < candidates.size(); ++a) {
      const int64_t row = static_cast<int64_t>(a) * (rows / 64);
      backend->GatherDots(table.Row(row).data(), table.data(), d,
                          candidates[a], sims.data());
      benchmark::DoNotOptimize(sims.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * survivors);
  state.counters["s_per_survivor"] = benchmark::Counter(
      static_cast<double>(survivors),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_Eq6ExactCheck)
    ->DenseRange(0, static_cast<int64_t>(linalg::ListBackends().size()) - 1)
    ->Unit(benchmark::kMicrosecond);

// One Eq. 7 member row on the server-10k shape: y += w * x over 1,024
// floats (the synthetic upload width), the step FedGtaAggregate takes for
// every member of every aggregation set. Arg: backend (index into
// ListBackends()).
void BM_Eq7Axpy(benchmark::State& state) {
  const linalg::Backend* backend =
      linalg::FindBackend(BackendArm(state.range(0)));
  state.SetLabel(backend->description());
  const int64_t n = 1024;
  Rng rng(7);
  Matrix x(1, n);
  Matrix y(1, n);
  x.GaussianInit(rng, 1.0f);
  for (auto _ : state) {
    backend->Axpy(0.001f, x.Row(0), y.Row(0));
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Eq7Axpy)
    ->DenseRange(0, static_cast<int64_t>(linalg::ListBackends().size()) - 1)
    ->Unit(benchmark::kNanosecond);

// Args: nodes, backend (index into ListBackends(); -1 = the active one).
void BM_SpMM(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  linalg::ScopedBackend scoped(BackendArm(state.range(1)));
  state.SetLabel(linalg::ActiveBackend().description());
  LabeledGraph lg = MakeGraph(n, 2);
  const CsrMatrix adj = NormalizedAdjacency(lg.graph);
  Rng rng(3);
  Matrix x(n, 64);
  x.GaussianInit(rng, 1.0f);
  Matrix out;
  for (auto _ : state) {
    adj.Multiply(x, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * 64);
}
BENCHMARK(BM_SpMM)
    ->ArgsProduct({benchmark::CreateRange(4000, 64000, 4), {-1}})
    ->Unit(benchmark::kMillisecond);

// One arxiv client's adjacency (about 2,400 rows, f = 64) under every
// registered backend.
void ArxivClientSpmm(benchmark::internal::Benchmark* bench) {
  const int64_t backends =
      static_cast<int64_t>(linalg::ListBackends().size());
  for (int64_t backend = 0; backend < backends; ++backend) {
    bench->Args({2400, backend});
  }
}
BENCHMARK(BM_SpMM)->Apply(ArxivClientSpmm)->Unit(benchmark::kMicrosecond);

// Local training's two element loops outside the backend, on one arxiv GCN
// client's hidden activation (2,400 x 64): the dropout mask (one engine
// word per element, at the default rate 0.3) and the ReLU backward on
// random signs. Neither loop branches on the data, so running in place on
// the values the previous iteration left is representative.
void BM_DropoutForward(benchmark::State& state) {
  Rng rng(5);
  Matrix h(2400, 64);
  h.GaussianInit(rng, 1.0f);
  Matrix mask;
  for (auto _ : state) {
    DropoutForward(0.3f, rng, &h, &mask);
    benchmark::DoNotOptimize(h.data());
    benchmark::DoNotOptimize(mask.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * h.size());
}
BENCHMARK(BM_DropoutForward)->Unit(benchmark::kMicrosecond);

void BM_ReluBackward(benchmark::State& state) {
  Rng rng(6);
  Matrix pre(2400, 64);
  Matrix grad(2400, 64);
  pre.GaussianInit(rng, 1.0f);
  grad.GaussianInit(rng, 1.0f);
  for (auto _ : state) {
    ReluBackwardInPlace(pre, &grad);
    benchmark::DoNotOptimize(grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * grad.size());
}
BENCHMARK(BM_ReluBackward)->Unit(benchmark::kMicrosecond);

void BM_LabelPropagation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LabeledGraph lg = MakeGraph(n, 4);
  const CsrMatrix op = LabelPropagationOperator(lg.graph);
  Matrix y0(n, 8, 1.0f / 8.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NonParamLabelPropagation(op, y0, 0.5f, 5));
  }
}
BENCHMARK(BM_LabelPropagation)
    ->RangeMultiplier(4)
    ->Range(4000, 64000)
    ->Unit(benchmark::kMillisecond);

// Args: rows, classes. 5 hops, K = 3 (the FedGTA defaults). The last shape
// is one ogbn-arxiv client of the inproc-arxiv benchmark workload.
void BM_MixedMoments(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int c = static_cast<int>(state.range(1));
  Rng rng(5);
  std::vector<Matrix> hops;
  for (int l = 0; l < 5; ++l) {
    Matrix y(n, c);
    y.GaussianInit(rng, 1.0f);
    RowSoftmaxInPlace(&y);
    hops.push_back(std::move(y));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MixedMoments(hops, 3));
  }
}
BENCHMARK(BM_MixedMoments)
    ->ArgNames({"rows", "classes"})
    ->Args({4000, 8})
    ->Args({16000, 8})
    ->Args({64000, 8})
    ->Args({2400, 40})
    ->Unit(benchmark::kMillisecond);

void BM_Louvain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LabeledGraph lg = MakeGraph(n, 6);
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(LouvainCommunities(lg.graph, rng));
  }
}
BENCHMARK(BM_Louvain)
    ->RangeMultiplier(4)
    ->Range(2000, 32000)
    ->Unit(benchmark::kMillisecond);

void BM_MetisPartition(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LabeledGraph lg = MakeGraph(n, 8);
  for (auto _ : state) {
    Rng rng(9);
    benchmark::DoNotOptimize(MetisPartition(lg.graph, 10, rng));
  }
}
BENCHMARK(BM_MetisPartition)
    ->RangeMultiplier(4)
    ->Range(2000, 32000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Thread-scaling sweep: the same three workloads timed at 1/2/4/8 pool
// threads. GEMM and SpMM scale through ParallelForChunked; rounds/sec
// additionally exercises the round executor's per-client dispatch.

double MedianSeconds(const std::function<void()>& fn, int reps) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    times.push_back(timer.Seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct SweepPoint {
  int threads = 0;
  double gemm_ms = 0.0;
  double spmm_ms = 0.0;
  double rounds_per_sec = 0.0;
};

void RunThreadScalingSweep(const char* out_path) {
  const bool full = std::getenv("FEDGTA_BENCH_MODE") != nullptr &&
                    std::string(std::getenv("FEDGTA_BENCH_MODE")) == "full";
  const int reps = full ? 7 : 3;

  // GEMM workload: 384³ — large enough that all chunk sizes engage.
  const int64_t gemm_n = 384;
  Rng rng(11);
  Matrix a(gemm_n, gemm_n), b(gemm_n, gemm_n), c(gemm_n, gemm_n);
  a.GaussianInit(rng, 1.0f);
  b.GaussianInit(rng, 1.0f);

  // SpMM workload: 32k-node planted partition, 64 feature columns.
  LabeledGraph lg = MakeGraph(32000, 12);
  const CsrMatrix adj = NormalizedAdjacency(lg.graph);
  Matrix x(32000, 64);
  x.GaussianInit(rng, 1.0f);
  Matrix spmm_out;

  // Federated-round workload: 10-client FedAvg/SGC on a registry dataset;
  // per-thread-count rounds/sec measures the executor end to end.
  Dataset dataset = MakeDatasetByName("pubmed", /*seed=*/42);
  SplitConfig split;
  split.num_clients = 10;
  Rng split_rng(42);
  const FederatedDataset fed =
      BuildFederatedDataset(std::move(dataset), split, split_rng);
  ModelConfig model;
  model.type = ModelType::kSgc;
  model.hidden = 64;
  model.k = 3;
  SimulationConfig sim;
  sim.rounds = full ? 8 : 4;
  sim.local_epochs = 3;
  sim.eval_every = sim.rounds;  // timing run: evaluate only once

  std::vector<SweepPoint> points;
  for (const int threads : {1, 2, 4, 8}) {
    SetGlobalThreadPoolSize(threads);
    SweepPoint p;
    p.threads = threads;
    p.gemm_ms = 1e3 * MedianSeconds(
                          [&] {
                            Gemm(a, Transpose::kNo, b, Transpose::kNo, 1.0f,
                                 0.0f, &c);
                          },
                          reps);
    p.spmm_ms = 1e3 * MedianSeconds([&] { adj.Multiply(x, &spmm_out); }, reps);
    const double sim_seconds = MedianSeconds(
        [&] {
          auto strategy = MakeStrategy("fedavg", StrategyOptions{});
          FEDGTA_CHECK(strategy.ok());
          Simulation simulation(&fed, model, OptimizerConfig{},
                                std::move(*strategy), sim);
          const SimulationResult result = simulation.Run();
          benchmark::DoNotOptimize(result.final_test_accuracy);
        },
        reps);
    p.rounds_per_sec = static_cast<double>(sim.rounds) / sim_seconds;
    points.push_back(p);
    std::printf(
        "threads=%d  gemm(%lldx%lld)=%.2fms  spmm(32k,64)=%.2fms  "
        "rounds/sec=%.2f\n",
        p.threads, static_cast<long long>(gemm_n),
        static_cast<long long>(gemm_n), p.gemm_ms, p.spmm_ms,
        p.rounds_per_sec);
    std::fflush(stdout);
  }
  SetGlobalThreadPoolSize(0);  // back to FEDGTA_NUM_THREADS / hardware default

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s, skipping JSON dump\n", out_path);
    return;
  }
  std::fprintf(f, "{\n  \"sweep\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"gemm_ms\": %.4f, \"spmm_ms\": %.4f, "
                 "\"rounds_per_sec\": %.4f}%s\n",
                 p.threads, p.gemm_ms, p.spmm_ms, p.rounds_per_sec,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("thread-scaling sweep written to %s\n\n", out_path);
}

// ---------------------------------------------------------------------------
// Backend sweep: GEMM (512³) and SpMM (32k nodes, 64 features) timed under
// every registered kernel backend at the default thread count. The JSON
// artifact backs the backend speedup claims in DESIGN.md "Kernel backends".

struct BackendPoint {
  std::string name;
  std::string description;
  double gemm_ms = 0.0;
  double gemm_gflops = 0.0;
  double spmm_ms = 0.0;
};

void RunBackendSweep(const char* out_path) {
  const bool full = std::getenv("FEDGTA_BENCH_MODE") != nullptr &&
                    std::string(std::getenv("FEDGTA_BENCH_MODE")) == "full";
  const int reps = full ? 7 : 3;

  const int64_t gemm_n = 512;
  Rng rng(13);
  Matrix a(gemm_n, gemm_n), b(gemm_n, gemm_n), c(gemm_n, gemm_n);
  a.GaussianInit(rng, 1.0f);
  b.GaussianInit(rng, 1.0f);

  LabeledGraph lg = MakeGraph(32000, 14);
  const CsrMatrix adj = NormalizedAdjacency(lg.graph);
  Matrix x(32000, 64);
  x.GaussianInit(rng, 1.0f);
  Matrix spmm_out;

  const double gemm_flops = 2.0 * static_cast<double>(gemm_n) *
                            static_cast<double>(gemm_n) *
                            static_cast<double>(gemm_n);

  std::vector<BackendPoint> points;
  for (const std::string& name : linalg::ListBackends()) {
    linalg::ScopedBackend scoped(name);
    BackendPoint p;
    p.name = name;
    p.description = linalg::ActiveBackend().description();
    p.gemm_ms = 1e3 * MedianSeconds(
                          [&] {
                            Gemm(a, Transpose::kNo, b, Transpose::kNo, 1.0f,
                                 0.0f, &c);
                          },
                          reps);
    p.gemm_gflops = gemm_flops / (p.gemm_ms * 1e-3) * 1e-9;
    p.spmm_ms = 1e3 * MedianSeconds([&] { adj.Multiply(x, &spmm_out); }, reps);
    points.push_back(p);
    std::printf("backend=%-22s gemm(512^3)=%.2fms (%.1f GFLOP/s)  "
                "spmm(32k,64)=%.2fms\n",
                p.description.c_str(), p.gemm_ms, p.gemm_gflops, p.spmm_ms);
    std::fflush(stdout);
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s, skipping JSON dump\n", out_path);
    return;
  }
  std::fprintf(f, "{\n  \"backends\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const BackendPoint& p = points[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"description\": \"%s\", "
                 "\"gemm_ms\": %.4f, \"gemm_gflops\": %.2f, "
                 "\"spmm_ms\": %.4f}%s\n",
                 p.name.c_str(), p.description.c_str(), p.gemm_ms,
                 p.gemm_gflops, p.spmm_ms, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("backend sweep written to %s\n\n", out_path);
}

}  // namespace
}  // namespace fedgta

int main(int argc, char** argv) {
  // A filtered run is a kernel spot check: it skips the minutes-long sweeps.
  const bool filtered = std::any_of(argv + 1, argv + argc, [](const char* arg) {
    return std::string_view(arg).starts_with("--benchmark_filter");
  });
  if (!filtered) {
    std::printf("== kernel-backend sweep (every registered backend) ==\n");
    fedgta::RunBackendSweep("BENCH_kernels_backends.json");
    std::printf("== thread-scaling sweep (shared pool: 1/2/4/8 threads) ==\n");
    fedgta::RunThreadScalingSweep("BENCH_parallel.json");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
