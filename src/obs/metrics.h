#ifndef FEDGTA_OBS_METRICS_H_
#define FEDGTA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fedgta {

/// Monotonically increasing integer metric (calls, bytes, rounds, ...).
/// All operations are thread-safe.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins floating-point metric (queue depth, learning rate, ...).
/// All operations are thread-safe.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram tracking count / sum / min / max plus a cumulative
/// bucket distribution from which quantiles are estimated by linear
/// interpolation. Record() is thread-safe (one short critical section).
class Histogram {
 public:
  /// `bounds` are ascending bucket upper limits; values above the last bound
  /// land in an implicit overflow bucket. Empty = default exponential
  /// 1-2-5 ladder from 1us to 100s, suitable for phase durations in seconds.
  explicit Histogram(std::vector<double> bounds = {});

  void Record(double value);

  /// Consistent point-in-time copy of the histogram state.
  struct Snapshot {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // 0 when count == 0
    double max = 0.0;
    std::vector<double> bounds;
    std::vector<int64_t> bucket_counts;  // bounds.size() + 1 (overflow last)

    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    /// Estimated q-quantile (q in [0, 1]) by interpolating within the bucket
    /// containing the target rank. Exact at min/max; 0 when empty.
    double Quantile(double q) const;
  };
  Snapshot snapshot() const;

  /// Folds `delta` (count/sum/buckets add; min/max combine) into this
  /// histogram. Returns false without modifying anything when the bucket
  /// bounds differ — fleet merging requires both sides to use the same
  /// ladder. Empty deltas merge trivially.
  bool Merge(const Snapshot& delta);

  int64_t count() const;
  double sum() const;
  void Reset();

  static const std::vector<double>& DefaultSecondsBounds();

 private:
  mutable std::mutex mutex_;
  std::vector<double> bounds_;
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Point-in-time copy of every metric in a registry, used as the baseline
/// for delta encoding (see obs/metrics_delta.h) and for tests.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;
};

/// Thread-safe registry of named metrics. Lookup returns a stable reference:
/// metrics are never removed, so call sites may cache the reference in a
/// static local (the intended hot-path pattern; see FEDGTA_PHASE_SCOPE).
/// Reset() zeroes values in place and keeps every reference valid.
///
/// Naming convention: dot-separated lowercase paths, unit as the last
/// segment, e.g. `phase.spmm.seconds`, `phase.spmm.calls`,
/// `round.client_seconds`, `comm.upload_floats`.
class MetricsRegistry {
 public:
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// `bounds` is used only on first creation; later calls with the same name
  /// return the existing histogram unchanged.
  Histogram& GetHistogram(std::string_view name,
                          std::vector<double> bounds = {});

  /// nullptr when the metric does not exist (programmatic consumers, e.g.
  /// benchmarks pulling per-phase sums).
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  /// Status-endpoint lines: "  <name>: <value>" for each named counter
  /// that exists (nonzero only, with `skip_zero`), and "  <name>:
  /// count=N p50=X p99=Y" for each named histogram with samples.
  std::string CounterLines(std::initializer_list<const char*> names,
                           bool skip_zero = false) const;
  std::string HistogramLines(std::initializer_list<const char*> names) const;

  /// Human-readable dump, one metric per line, sorted by name.
  std::string ToText() const;
  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// where each histogram carries count/sum/min/max/mean/p50/p90/p99 and the
  /// cumulative bucket table.
  std::string ToJson() const;

  /// Consistent copy of every metric, keyed by name. Individual metrics are
  /// snapshotted atomically; the set as a whole is not a single atomic cut
  /// (fine for delta encoding, which tolerates torn-but-monotonic reads).
  MetricsSnapshot Capture() const;

  /// Zeroes every registered metric in place. References stay valid.
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Process-wide registry used by all built-in instrumentation.
MetricsRegistry& GlobalMetrics();

/// Kill switch for built-in metrics recording (FEDGTA_PHASE_SCOPE et al.).
/// On by default; the overhead benchmark turns it off to measure the cost
/// of instrumentation. Direct registry use is unaffected — only the
/// instrumentation macros consult this flag.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

namespace internal_obs {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal_obs

}  // namespace fedgta

#endif  // FEDGTA_OBS_METRICS_H_
