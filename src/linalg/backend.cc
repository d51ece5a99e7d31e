#include "linalg/backend.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/check.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace fedgta {
namespace linalg {

// ---------------------------------------------------------------------------
// Backend base: portable scalar defaults for the vector ops. Kept bitwise
// identical to the pre-backend-API loops in ops.cc so the "reference"
// backend is a faithful oracle.

void Backend::Axpy(float alpha, std::span<const float> x,
                   std::span<float> y) const {
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double Backend::Dot(std::span<const float> a, std::span<const float> b) const {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return sum;
}

void Backend::RowSoftmaxRows(float* data, int64_t cols, int64_t row_begin,
                             int64_t row_end) const {
  for (int64_t r = row_begin; r < row_end; ++r) {
    float* row = data + r * cols;
    float max_v = row[0];
    for (int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, row[c]);
    float sum = 0.0f;
    for (int64_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (int64_t c = 0; c < cols; ++c) row[c] *= inv;
  }
}

void Backend::GatherDots(const float* row, const float* table, int64_t d,
                         std::span<const int32_t> idx, float* out) const {
  if (idx.empty()) return;
  // Gather the listed rows and run the 1 x |idx| GEMM against their
  // transposed view; the buffer is per thread and reused across calls.
  thread_local std::vector<float> gathered;
  const int64_t c = static_cast<int64_t>(idx.size());
  gathered.resize(static_cast<size_t>(c * d));
  for (int64_t k = 0; k < c; ++k) {
    std::copy_n(table + int64_t{idx[static_cast<size_t>(k)]} * d, d,
                gathered.data() + k * d);
  }
  GemmCall call;
  call.a = {row, d, 1};
  call.b = {gathered.data(), 1, d};
  call.m = 1;
  call.n = c;
  call.k = d;
  call.c = out;
  GemmRows(call, 0, 1);
}

void Backend::ColumnSums(const float* data, int64_t rows, int64_t cols,
                         float* out) const {
  std::fill(out, out + cols, 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = data + r * cols;
    for (int64_t c = 0; c < cols; ++c) out[c] += row[c];
  }
}

// ---------------------------------------------------------------------------
// Registry. A single mutex-guarded map of factories plus a cache of
// constructed instances; the active backend is a plain pointer read on the
// hot path (selection happens at startup / between runs, never while
// kernels are in flight — see SetActiveBackend's contract).

namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, std::function<std::unique_ptr<Backend>()>,
           std::less<>>
      factories;
  std::map<std::string, std::unique_ptr<Backend>, std::less<>> instances;
  /// Lock-free hot-path read; writes happen under `mutex`.
  std::atomic<const Backend*> active{nullptr};

  Registry() {
    factories["reference"] = internal::MakeReferenceBackend;
    factories["simd"] = internal::MakeSimdBackend;
  }

  // Caller holds `mutex`.
  const Backend* GetLocked(std::string_view name) {
    auto it = instances.find(name);
    if (it != instances.end()) return it->second.get();
    auto factory = factories.find(name);
    if (factory == factories.end()) return nullptr;
    std::unique_ptr<Backend> backend = factory->second();
    const Backend* raw = backend.get();
    instances.emplace(std::string(name), std::move(backend));
    return raw;
  }
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

void RecordSelection(const Backend& backend) {
  GlobalMetrics()
      .GetCounter(std::string("linalg.backend.selected.") +
                  std::string(backend.name()))
      .Increment();
}

std::string JoinBackendNames() {
  std::string names;
  for (const std::string& name : ListBackends()) {
    if (!names.empty()) names += " ";
    names += name;
  }
  return names;
}

}  // namespace

void RegisterBackend(std::string name,
                     std::function<std::unique_ptr<Backend>()> factory) {
  FEDGTA_CHECK(!name.empty());
  FEDGTA_CHECK(factory != nullptr);
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.instances.find(name);
  if (it != registry.instances.end()) {
    FEDGTA_CHECK(registry.active.load(std::memory_order_acquire) !=
                 it->second.get())
        << "cannot re-register the active backend '" << name << "'";
    registry.instances.erase(it);
  }
  registry.factories[std::move(name)] = std::move(factory);
}

std::vector<std::string> ListBackends() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<std::string> names;
  names.reserve(registry.factories.size());
  for (const auto& [name, factory] : registry.factories) {
    names.push_back(name);
  }
  return names;
}

const Backend* FindBackend(std::string_view name) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.GetLocked(name);
}

const Backend& ActiveBackend() {
  Registry& registry = GlobalRegistry();
  const Backend* fast = registry.active.load(std::memory_order_acquire);
  if (fast != nullptr) return *fast;

  const Backend* selected = nullptr;
  bool first = false;
  bool defaulted = false;
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    selected = registry.active.load(std::memory_order_acquire);
    if (selected == nullptr) {
      const char* env = std::getenv("FEDGTA_BACKEND");
      defaulted = env == nullptr || env[0] == '\0';
      const std::string_view requested =
          defaulted ? std::string_view("simd") : std::string_view(env);
      selected = registry.GetLocked(requested);
      FEDGTA_CHECK(selected != nullptr)
          << "FEDGTA_BACKEND names an unknown kernel backend: '" << requested
          << "' (have: " << JoinBackendNames() << ")";
      registry.active.store(selected, std::memory_order_release);
      first = true;
    }
  }
  if (first) {
    RecordSelection(*selected);
    FEDGTA_LOG(INFO) << "linalg backend: " << selected->description();
#if defined(__x86_64__) || defined(__i386__)
    // The portable variant emulates each fused step in double arithmetic.
    if (defaulted && !internal::SimdAvx2Supported()) {
      FEDGTA_LOG(WARNING)
          << "this host has no AVX2+FMA, so the default simd backend runs "
             "its portable variant; --backend=reference is 20-26x faster "
             "here (EXPERIMENTS.md)";
    }
#endif
  }
  return *selected;
}

Status SetActiveBackend(std::string_view name) {
  Registry& registry = GlobalRegistry();
  const Backend* backend = nullptr;
  bool changed = false;
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    backend = registry.GetLocked(name);
    if (backend != nullptr) {
      changed = registry.active.load(std::memory_order_acquire) != backend;
      registry.active.store(backend, std::memory_order_release);
    }
  }
  if (backend == nullptr) {
    return InvalidArgumentError("unknown backend: " + std::string(name) +
                                " (have: " + JoinBackendNames() + ")");
  }
  if (changed) RecordSelection(*backend);
  return OkStatus();
}

std::string_view ActiveBackendName() { return ActiveBackend().name(); }

ScopedBackend::ScopedBackend(std::string_view name)
    : previous_(ActiveBackendName()) {
  const Status status = SetActiveBackend(name);
  FEDGTA_CHECK(status.ok()) << status.ToString();
}

ScopedBackend::~ScopedBackend() {
  const Status status = SetActiveBackend(previous_);
  FEDGTA_CHECK(status.ok()) << status.ToString();
}

}  // namespace linalg
}  // namespace fedgta
