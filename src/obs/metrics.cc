#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/string_util.h"

namespace fedgta {
namespace {

// Formats a double for JSON: finite shortest-ish representation; JSON has no
// inf/nan so those degrade to 0 (only reachable via user-recorded values).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::string s = StrFormat("%.12g", v);
  return s;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<double>& Histogram::DefaultSecondsBounds() {
  // 1-2-5 ladder covering 1us .. 100s; phase durations outside this land in
  // the first bucket / overflow bucket and still count toward sum/min/max.
  static const std::vector<double>* bounds = [] {
    auto* b = new std::vector<double>;
    for (int decade = -6; decade <= 2; ++decade) {
      const double base = std::pow(10.0, decade);
      b->push_back(base);
      if (decade < 2) {
        b->push_back(2.0 * base);
        b->push_back(5.0 * base);
      }
    }
    return b;
  }();
  return *bounds;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(bounds.empty() ? DefaultSecondsBounds() : std::move(bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    FEDGTA_CHECK_LT(bounds_[i - 1], bounds_[i])
        << "histogram bounds must be ascending";
  }
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Record(double value) {
  const size_t bucket =
      static_cast<size_t>(std::lower_bound(bounds_.begin(), bounds_.end(),
                                           value) -
                          bounds_.begin());
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[bucket];
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.bounds = bounds_;
  s.bucket_counts = buckets_;
  return s;
}

bool Histogram::Merge(const Snapshot& delta) {
  if (delta.count == 0) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  if (delta.bounds != bounds_ ||
      delta.bucket_counts.size() != buckets_.size()) {
    return false;
  }
  if (count_ == 0) {
    min_ = delta.min;
    max_ = delta.max;
  } else {
    min_ = std::min(min_, delta.min);
    max_ = std::max(max_, delta.max);
  }
  count_ += delta.count;
  sum_ += delta.sum;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += delta.bucket_counts[b];
  }
  return true;
}

int64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  int64_t cumulative = 0;
  for (size_t b = 0; b < bucket_counts.size(); ++b) {
    const int64_t in_bucket = bucket_counts[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      // Interpolate within [lo, hi]; clamp the open-ended edges to the
      // observed extrema so estimates never leave [min, max].
      double lo = b == 0 ? min : bounds[b - 1];
      double hi = b < bounds.size() ? bounds[b] : max;
      lo = std::max(lo, min);
      hi = std::min(hi, max);
      if (hi <= lo) return lo;
      const double frac =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + frac * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return max;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::CounterLines(
    std::initializer_list<const char*> names, bool skip_zero) const {
  std::string out;
  for (const char* name : names) {
    const Counter* c = FindCounter(name);
    if (c == nullptr || (skip_zero && c->value() == 0)) continue;
    out += StrFormat("  %s: %lld\n", name, static_cast<long long>(c->value()));
  }
  return out;
}

std::string MetricsRegistry::HistogramLines(
    std::initializer_list<const char*> names) const {
  std::string out;
  for (const char* name : names) {
    const Histogram* h = FindHistogram(name);
    if (h == nullptr) continue;
    const Histogram::Snapshot s = h->snapshot();
    if (s.count == 0) continue;
    out += StrFormat("  %s: count=%lld p50=%.6f p99=%.6f\n", name,
                     static_cast<long long>(s.count), s.Quantile(0.5),
                     s.Quantile(0.99));
  }
  return out;
}

std::string MetricsRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += StrFormat("counter %s %lld\n", name.c_str(),
                     static_cast<long long>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out += StrFormat("gauge %s %.12g\n", name.c_str(), gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot s = histogram->snapshot();
    out += StrFormat(
        "histogram %s count=%lld sum=%.12g min=%.12g max=%.12g mean=%.12g "
        "p50=%.12g p90=%.12g p99=%.12g\n",
        name.c_str(), static_cast<long long>(s.count), s.sum, s.min, s.max,
        s.mean(), s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99));
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += StrFormat("%s\n    \"%s\": %lld", first ? "" : ",",
                     JsonEscape(name).c_str(),
                     static_cast<long long>(counter->value()));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += StrFormat("%s\n    \"%s\": %s", first ? "" : ",",
                     JsonEscape(name).c_str(),
                     JsonNumber(gauge->value()).c_str());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot s = histogram->snapshot();
    out += StrFormat(
        "%s\n    \"%s\": {\"count\": %lld, \"sum\": %s, \"min\": %s, "
        "\"max\": %s, \"mean\": %s, \"p50\": %s, \"p90\": %s, \"p99\": %s, "
        "\"buckets\": [",
        first ? "" : ",", JsonEscape(name).c_str(),
        static_cast<long long>(s.count), JsonNumber(s.sum).c_str(),
        JsonNumber(s.min).c_str(), JsonNumber(s.max).c_str(),
        JsonNumber(s.mean()).c_str(), JsonNumber(s.Quantile(0.5)).c_str(),
        JsonNumber(s.Quantile(0.9)).c_str(),
        JsonNumber(s.Quantile(0.99)).c_str());
    // Only emit non-empty buckets: default histograms have 25 buckets and
    // most are zero; {"le": bound, "count": n} keeps dumps compact.
    bool first_bucket = true;
    for (size_t b = 0; b < s.bucket_counts.size(); ++b) {
      if (s.bucket_counts[b] == 0) continue;
      const std::string le =
          b < s.bounds.size() ? JsonNumber(s.bounds[b]) : "\"+inf\"";
      out += StrFormat("%s{\"le\": %s, \"count\": %lld}",
                       first_bucket ? "" : ", ", le.c_str(),
                       static_cast<long long>(s.bucket_counts[b]));
      first_bucket = false;
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

MetricsSnapshot MetricsRegistry::Capture() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->snapshot();
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsRegistry& GlobalMetrics() {
  // Leaked so instrumentation in static destructors stays safe.
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

namespace internal_obs {
std::atomic<bool> g_metrics_enabled{true};
}  // namespace internal_obs

bool MetricsEnabled() {
  return internal_obs::g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  internal_obs::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

}  // namespace fedgta
