#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fedgta {
namespace {

// --- Minimal JSON syntax validator -----------------------------------------
// Accepts the full JSON grammar; used to assert exports are well-formed
// without pulling in a JSON dependency.

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(Peek())) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(Peek())) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(Peek())) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(text_[pos_])) ++pos_;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, CountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  h.Record(0.5);
  h.Record(2.0);
  h.Record(0.25);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 2.75);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.75 / 3.0);
}

TEST(HistogramTest, CustomBoundsAndOverflowBucket) {
  Histogram h({1.0, 10.0});
  h.Record(0.5);    // bucket 0 (<= 1)
  h.Record(5.0);    // bucket 1 (<= 10)
  h.Record(100.0);  // overflow
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.bucket_counts.size(), 3u);
  EXPECT_EQ(s.bucket_counts[0], 1);
  EXPECT_EQ(s.bucket_counts[1], 1);
  EXPECT_EQ(s.bucket_counts[2], 1);
}

TEST(HistogramTest, QuantileEstimates) {
  // 1000 uniform samples in (0, 1]: quantiles should be close to q.
  Histogram h({0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i) / 1000.0);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_NEAR(s.Quantile(0.5), 0.5, 0.11);
  EXPECT_NEAR(s.Quantile(0.9), 0.9, 0.11);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), s.min);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), s.max);
  // Estimates never leave the observed range.
  EXPECT_GE(s.Quantile(0.99), s.min);
  EXPECT_LE(s.Quantile(0.99), s.max);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.snapshot().Quantile(0.5), 0.0);
}

TEST(MetricsRegistryTest, ReturnsStableInstances) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("test.calls");
  Counter& b = reg.GetCounter("test.calls");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.FindCounter("test.calls"), &a);
  EXPECT_EQ(reg.FindCounter("missing"), nullptr);
  EXPECT_EQ(reg.FindHistogram("missing"), nullptr);
  EXPECT_EQ(reg.FindGauge("missing"), nullptr);
}

TEST(MetricsRegistryTest, ResetZeroesInPlaceKeepingReferences) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("test.calls");
  Histogram& h = reg.GetHistogram("test.seconds");
  c.Increment(7);
  h.Record(1.0);
  reg.Reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(h.count(), 0);
  // The same storage is still wired into the registry after Reset.
  c.Increment();
  EXPECT_EQ(reg.FindCounter("test.calls")->value(), 1);
}

TEST(MetricsRegistryTest, ConcurrentUpdates) {
  MetricsRegistry reg;
  Counter& counter = reg.GetCounter("concurrent.calls");
  Histogram& histogram = reg.GetHistogram("concurrent.seconds");
  constexpr int64_t kN = 20000;
  ParallelFor(0, kN, [&](int64_t i) {
    counter.Increment();
    histogram.Record(static_cast<double>(i % 100) * 1e-3);
    // Concurrent lookups must also be safe.
    reg.GetGauge("concurrent.gauge").Set(static_cast<double>(i));
  });
  EXPECT_EQ(counter.value(), kN);
  EXPECT_EQ(histogram.count(), kN);
  const Histogram::Snapshot s = histogram.snapshot();
  int64_t bucket_total = 0;
  for (int64_t b : s.bucket_counts) bucket_total += b;
  EXPECT_EQ(bucket_total, kN);
}

TEST(MetricsRegistryTest, TextExportListsEveryMetric) {
  MetricsRegistry reg;
  reg.GetCounter("a.calls").Increment(3);
  reg.GetGauge("b.value").Set(1.25);
  reg.GetHistogram("c.seconds").Record(0.5);
  const std::string text = reg.ToText();
  EXPECT_NE(text.find("counter a.calls 3"), std::string::npos);
  EXPECT_NE(text.find("gauge b.value 1.25"), std::string::npos);
  EXPECT_NE(text.find("histogram c.seconds count=1"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonExportIsWellFormed) {
  MetricsRegistry reg;
  const std::string empty = reg.ToJson();
  EXPECT_TRUE(JsonValidator(empty).Valid()) << empty;

  reg.GetCounter("phase.spmm.calls").Increment(12);
  reg.GetGauge("g").Set(-3.5);
  Histogram& h = reg.GetHistogram("phase.spmm.seconds");
  h.Record(1e-4);
  h.Record(2e-3);
  h.Record(250.0);  // overflow bucket ("le": "+inf")
  const std::string json = reg.ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"phase.spmm.calls\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"phase.spmm.seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"+inf\""), std::string::npos);
}

TEST(PhaseScopeTest, AccumulatesIntoGlobalRegistry) {
  const Counter* before = GlobalMetrics().FindCounter("phase.obs_test.calls");
  const int64_t calls_before = before != nullptr ? before->value() : 0;
  {
    FEDGTA_PHASE_SCOPE("obs_test");
  }
  const Counter* after = GlobalMetrics().FindCounter("phase.obs_test.calls");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->value(), calls_before + 1);
  const Histogram* seconds =
      GlobalMetrics().FindHistogram("phase.obs_test.seconds");
  ASSERT_NE(seconds, nullptr);
  EXPECT_GE(seconds->count(), 1);
}

TEST(TraceTest, DisabledScopeEmitsNothing) {
  DisableTracing();
  ClearTrace();
  {
    FEDGTA_TRACE_SCOPE("invisible");
  }
  for (const TraceEvent& e : CollectTraceEvents()) {
    EXPECT_STRNE(e.name, "invisible");
  }
}

TEST(TraceTest, ScopeProducesBeginEndPair) {
  ClearTrace();
  EnableTracing();
  {
    FEDGTA_TRACE_SCOPE("obs_test_span");
  }
  DisableTracing();
  bool found = false;
  for (const TraceEvent& e : CollectTraceEvents()) {
    if (std::string_view(e.name) != "obs_test_span") continue;
    found = true;
    // A complete ("X") event encodes the begin/end pair as ts + dur; both
    // must be non-negative and the end must not precede the begin.
    EXPECT_GE(e.ts_us, 0);
    EXPECT_GE(e.dur_us, 0);
  }
  EXPECT_TRUE(found);
  ClearTrace();
}

TEST(TraceTest, ChromeTraceFileIsValidJson) {
  ClearTrace();
  EnableTracing();
  {
    FEDGTA_TRACE_SCOPE("outer");
    FEDGTA_TRACE_SCOPE("inner");
  }
  DisableTracing();
  const std::string path = testing::TempDir() + "/fedgta_obs_trace.json";
  ASSERT_TRUE(WriteChromeTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  EXPECT_TRUE(JsonValidator(content).Valid()) << content;
  EXPECT_NE(content.find("\"outer\""), std::string::npos);
  EXPECT_NE(content.find("\"inner\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\": \"X\""), std::string::npos);
  std::remove(path.c_str());
  ClearTrace();
}

TEST(TraceTest, EventsFromWorkerThreadsAreCollected) {
  ClearTrace();
  EnableTracing();
  ParallelFor(0, 64, [](int64_t) { FEDGTA_TRACE_SCOPE("pool_span"); },
              /*grain=*/1);
  DisableTracing();
  int found = 0;
  for (const TraceEvent& e : CollectTraceEvents()) {
    if (std::string_view(e.name) == "pool_span") ++found;
  }
  EXPECT_EQ(found, 64);
  ClearTrace();
}

const TraceEvent* FindEvent(const std::vector<TraceEvent>& events,
                            std::string_view name) {
  for (const TraceEvent& e : events) {
    if (std::string_view(e.name) == name) return &e;
  }
  return nullptr;
}

TEST(TraceContextTest, NestedScopesChainParentSpans) {
  ClearTrace();
  EnableTracing();
  TraceContext ctx;
  ctx.trace_id = 0xABCDu;
  ctx.round = 7;
  {
    ScopedTraceContext install(ctx);
    FEDGTA_TRACE_SCOPE("ctx_outer");
    FEDGTA_TRACE_SCOPE("ctx_inner");
  }
  DisableTracing();
  const std::vector<TraceEvent> events = CollectTraceEvents();
  const TraceEvent* outer = FindEvent(events, "ctx_outer");
  const TraceEvent* inner = FindEvent(events, "ctx_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->trace_id, 0xABCDu);
  EXPECT_EQ(inner->trace_id, 0xABCDu);
  EXPECT_EQ(outer->round, 7);
  EXPECT_EQ(inner->round, 7);
  // The inner span's parent is the outer span; the outer span's parent is
  // whatever the installed context carried (here: none).
  EXPECT_NE(outer->span_id, 0u);
  EXPECT_NE(inner->span_id, 0u);
  EXPECT_NE(outer->span_id, inner->span_id);
  EXPECT_EQ(inner->parent_span, outer->span_id);
  EXPECT_EQ(outer->parent_span, 0u);
  ClearTrace();
}

TEST(TraceContextTest, ScopedInstallRestoresPreviousContext) {
  TraceContext ctx;
  ctx.trace_id = 1;
  ctx.round = 3;
  {
    ScopedTraceContext install(ctx);
    EXPECT_EQ(CurrentTraceContext().trace_id, 1u);
    EXPECT_EQ(CurrentTraceContext().round, 3);
    TraceContext deeper;
    deeper.trace_id = 2;
    {
      ScopedTraceContext install2(deeper);
      EXPECT_EQ(CurrentTraceContext().trace_id, 2u);
    }
    EXPECT_EQ(CurrentTraceContext().trace_id, 1u);
  }
  EXPECT_EQ(CurrentTraceContext().trace_id, 0u);
}

TEST(TraceContextTest, NewTraceIdsAreNonZeroAndDistinct) {
  const uint64_t a = NewTraceId();
  const uint64_t b = NewTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(TraceContextTest, ChromeOutputCarriesContextPidAndOffset) {
  ClearTrace();
  SetTraceProcessId(5);
  SetTraceProcessName("obs_test_proc");
  SetTraceClockOffset(1000000);
  EnableTracing();
  TraceContext ctx;
  ctx.trace_id = 0xBEEFu;
  ctx.round = 2;
  {
    ScopedTraceContext install(ctx);
    FEDGTA_TRACE_SCOPE("offset_span");
  }
  DisableTracing();
  const std::string path = testing::TempDir() + "/fedgta_obs_ctx_trace.json";
  ASSERT_TRUE(WriteChromeTrace(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  EXPECT_TRUE(JsonValidator(content).Valid()) << content;
  EXPECT_NE(content.find("\"pid\": 5"), std::string::npos);
  EXPECT_NE(content.find("obs_test_proc"), std::string::npos);
  EXPECT_NE(content.find("\"trace_id\": \"beef\""), std::string::npos);
  EXPECT_NE(content.find("\"round\": 2"), std::string::npos);
  // The offset shifts the emitted timestamps onto the server timebase; the
  // raw in-memory event keeps the local clock.
  const std::vector<TraceEvent> events = CollectTraceEvents();
  const TraceEvent* e = FindEvent(events, "offset_span");
  ASSERT_NE(e, nullptr);
  const std::string shifted =
      "\"ts\": " + std::to_string(e->ts_us + 1000000);
  EXPECT_NE(content.find(shifted), std::string::npos) << content;
  std::remove(path.c_str());
  SetTraceClockOffset(0);
  SetTraceProcessId(1);
  SetTraceProcessName("fedgta");
  ClearTrace();
}

TEST(TraceMergeTest, CombinesFilesIntoOneValidTrace) {
  const std::string dir = testing::TempDir();
  const std::string a = dir + "/fedgta_merge_a.json";
  const std::string b = dir + "/fedgta_merge_b.json";
  const std::string out = dir + "/fedgta_merge_out.json";

  ClearTrace();
  SetTraceProcessId(1);
  SetTraceProcessName("server");
  EnableTracing();
  {
    FEDGTA_TRACE_SCOPE("server_span");
  }
  DisableTracing();
  ASSERT_TRUE(WriteChromeTrace(a).ok());

  ClearTrace();
  SetTraceProcessId(2);
  SetTraceProcessName("worker");
  EnableTracing();
  {
    FEDGTA_TRACE_SCOPE("worker_span");
  }
  DisableTracing();
  ASSERT_TRUE(WriteChromeTrace(b).ok());
  SetTraceProcessId(1);
  SetTraceProcessName("fedgta");
  ClearTrace();

  ASSERT_TRUE(MergeChromeTraces({a, b}, out).ok());
  std::ifstream in(out);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  EXPECT_TRUE(JsonValidator(content).Valid()) << content;
  EXPECT_NE(content.find("\"server_span\""), std::string::npos);
  EXPECT_NE(content.find("\"worker_span\""), std::string::npos);
  EXPECT_NE(content.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(content.find("\"pid\": 2"), std::string::npos);

  EXPECT_FALSE(MergeChromeTraces({dir + "/fedgta_missing.json"}, out).ok());
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(out.c_str());
}

TEST(TimelineTest, RecordsRoundsAndRendersValidJsonLines) {
  Timeline timeline;
  timeline.RoundStart(1, 4);
  timeline.ClientFate(1, 0, "healthy", 0.5);
  timeline.ClientFate(1, 1, "dropout", 0.0);
  timeline.RoundEnd(1, 0.25, 0.05, 1024, 2048, 1, 0, 0);
  timeline.RoundStart(2, 4);
  EXPECT_EQ(timeline.current_round(), 2);
  ASSERT_GE(timeline.size(), 5u);

  const std::string lines = timeline.ToJsonLines();
  std::stringstream stream(lines);
  std::string line;
  int n_lines = 0;
  while (std::getline(stream, line)) {
    ++n_lines;
    EXPECT_TRUE(JsonValidator(line).Valid()) << line;
  }
  EXPECT_GE(n_lines, 5);
  EXPECT_NE(lines.find("\"round_start\""), std::string::npos);
  EXPECT_NE(lines.find("\"round_end\""), std::string::npos);
  EXPECT_NE(lines.find("\"client_fate\""), std::string::npos);
  EXPECT_NE(lines.find("\"dropout\""), std::string::npos);
}

TEST(TimelineTest, CapacityBoundDropsOldestAndCounts) {
  Timeline timeline(/*capacity=*/4);
  for (int round = 1; round <= 6; ++round) timeline.RoundStart(round, 1);
  EXPECT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline.dropped_events(), 2);
  // The newest events survive.
  EXPECT_EQ(timeline.current_round(), 6);
  EXPECT_EQ(timeline.Events().front().round, 3);
}

TEST(TimelineTest, CurrentRoundFollowsTheLatestRun) {
  // Two runs in one process share the global timeline: the second run's
  // round must win even though the first one got further.
  Timeline timeline;
  for (int round = 1; round <= 5; ++round) timeline.RoundStart(round, 1);
  for (int round = 1; round <= 2; ++round) timeline.RoundStart(round, 1);
  EXPECT_EQ(timeline.current_round(), 2);
}

}  // namespace
}  // namespace fedgta
