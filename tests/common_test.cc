#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace fedgta {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, AllErrorConstructorsSetCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(OkStatus(), Status());
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFoundError("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return InternalError("boom"); };
  auto wrapper = [&fails]() -> Status {
    FEDGTA_RETURN_IF_ERROR(fails());
    return OkStatus();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.Uniform(2.0f, 5.0f);
    EXPECT_GE(v, 2.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 2000; ++i) {
    const size_t pick = rng.Categorical({0.0, 9.0, 1.0});
    EXPECT_NE(pick, 0u);  // zero-weight item never picked
    if (pick == 1) ++hits;
  }
  EXPECT_GT(hits, 1600);  // ~90% expected
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  const std::vector<int> sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(9);
  const std::vector<int> sample = rng.SampleWithoutReplacement(5, 5);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(1);
  Rng fork = a.Fork(1);
  // A fork should not replay the parent's sequence.
  Rng b(1);
  (void)b.engine()();  // parent consumed one draw to fork
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (fork.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

std::string StdEngineText(const std::mt19937_64& engine) {
  std::ostringstream os;
  os << engine;
  return os.str();
}

// Mt19937_64 replaces std::mt19937_64: single draws and Fill blocks of
// every length up to 1,000 (crossing the 312-word twist in all phases)
// return the std engine's words, and the state text matches at every
// position.
TEST(Mt19937Test, DrawsAndFillMatchStdEngine) {
  std::vector<size_t> lengths{0, 1, 2, 311, 312, 313, 623, 624, 625, 1000};
  for (size_t len = 3; len <= 1000; len += 37) lengths.push_back(len);
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{5489},
                        uint64_t{0x9e3779b97f4a7c15}, ~uint64_t{0}}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    std::vector<uint64_t> block;
    for (size_t step = 0; step < lengths.size(); ++step) {
      for (size_t i = 0; i < step % 3; ++i) ASSERT_EQ(rng.engine()(), ref());
      const size_t len = lengths[step];
      block.assign(len + 1, 0);
      rng.engine().Fill(block.data(), len);
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(block[i], ref()) << "seed " << seed << " len " << len
                                   << " word " << i;
      }
      EXPECT_EQ(block[len], 0u) << "Fill wrote past its length";
      ASSERT_EQ(rng.SaveState(), StdEngineText(ref));
    }
  }
}

TEST(Mt19937Test, StateTextMatchesStdEngineAtEveryPosition) {
  Rng rng(2024);
  std::mt19937_64 ref(2024);
  ASSERT_EQ(rng.SaveState(), StdEngineText(ref));
  for (size_t i = 0; i < 2 * Mt19937_64::kStateSize + 3; ++i) {
    ASSERT_EQ(rng.engine()(), ref());
    ASSERT_EQ(rng.SaveState(), StdEngineText(ref)) << "after draw " << i;
  }
  // A std engine's text loads, and both continue identically from it,
  // including position 0, which no draw leaves behind.
  std::string text = StdEngineText(ref);
  text = text.substr(0, text.rfind(' ') + 1) + "0";
  std::istringstream(text) >> ref;
  Rng loaded(1);
  ASSERT_TRUE(loaded.LoadState(text).ok());
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(loaded.engine()(), ref());
}

TEST(Mt19937Test, DistributionsAndShuffleMatchStdEngine) {
  for (uint64_t seed : {uint64_t{3}, uint64_t{77}, uint64_t{1} << 40}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 500; ++i) {
      EXPECT_EQ(std::bit_cast<uint32_t>(rng.Uniform(-2.0f, 3.0f)),
                std::bit_cast<uint32_t>(
                    std::uniform_real_distribution<float>(-2.0f, 3.0f)(ref)));
      EXPECT_EQ(std::bit_cast<uint32_t>(rng.Normal(1.0f, 2.0f)),
                std::bit_cast<uint32_t>(
                    std::normal_distribution<float>(1.0f, 2.0f)(ref)));
      EXPECT_EQ(rng.UniformInt(-i, 1000 * i),
                std::uniform_int_distribution<int64_t>(-i, 1000 * i)(ref));
      EXPECT_EQ(rng.Bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
    }
    for (size_t n : {size_t{2}, size_t{17}, size_t{1000}, size_t{70000}}) {
      std::vector<int> a(n);
      std::iota(a.begin(), a.end(), 0);
      std::vector<int> b = a;
      rng.Shuffle(a);
      std::shuffle(b.begin(), b.end(), ref);
      EXPECT_EQ(a, b);
    }
    EXPECT_EQ(rng.SaveState(), StdEngineText(ref));
  }
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(5000);
  ParallelFor(0, 5000, [&hits](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ParallelFor(10, 10, [](int64_t) { FAIL() << "must not run"; });
  ParallelFor(10, 5, [](int64_t) { FAIL() << "must not run"; });
}

// Regression: a ParallelFor issued from inside a pool task must run inline.
// Before the nested-parallelism fix, the inner call re-entered the shared
// pool and blocked on ThreadPool::Wait — with every worker inside the outer
// loop, no worker remained to drain the inner tasks and this test deadlocked.
TEST(ParallelForTest, NestedCallsRunInlineInsteadOfDeadlocking) {
  constexpr int64_t kOuter = 64;
  constexpr int64_t kInner = 32;
  std::atomic<int64_t> total{0};
  ParallelFor(
      0, kOuter,
      [&total](int64_t) {
        // Saturates the pool: each outer body issues its own parallel
        // section while every worker is already busy with an outer index.
        ParallelFor(
            0, kInner, [&total](int64_t) { total.fetch_add(1); },
            /*grain=*/1);
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ParallelForTest, WorkerContextDetectedInsideTasks) {
  EXPECT_FALSE(ThreadPool::IsWorkerThread());
  std::atomic<int> worker_hits{0};
  ParallelFor(
      0, 16,
      [&worker_hits](int64_t) {
        if (ThreadPool::IsWorkerThread()) worker_hits.fetch_add(1);
      },
      /*grain=*/1);
  EXPECT_FALSE(ThreadPool::IsWorkerThread());
  if (GlobalThreadPoolSize() > 1) {
    EXPECT_GT(worker_hits.load(), 0);
  }
}

TEST(TaskGroupTest, WaitScopesToOwnTasksOnly) {
  ThreadPool pool(4);
  std::atomic<bool> slow_done{false};
  TaskGroup slow(pool);
  slow.Submit([&slow_done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    slow_done.store(true);
  });

  // A sibling group on the same pool completes without waiting for `slow`.
  std::atomic<int> fast_count{0};
  {
    TaskGroup fast(pool);
    for (int i = 0; i < 8; ++i) {
      fast.Submit([&fast_count] { fast_count.fetch_add(1); });
    }
    fast.Wait();
  }
  EXPECT_EQ(fast_count.load(), 8);
  slow.Wait();
  EXPECT_TRUE(slow_done.load());
}

TEST(TaskGroupTest, ConcurrentGroupsFromManyThreads) {
  ThreadPool pool(4);
  constexpr int kThreads = 8;
  constexpr int kTasksPer = 50;
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &total] {
      TaskGroup group(pool);
      for (int i = 0; i < kTasksPer; ++i) {
        group.Submit([&total] { total.fetch_add(1); });
      }
      group.Wait();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(total.load(), kThreads * kTasksPer);
}

// Restores the default pool size even if an assertion fails mid-test.
class GlobalPoolSizeTest : public testing::Test {
 protected:
  ~GlobalPoolSizeTest() override { SetGlobalThreadPoolSize(0); }
};

TEST_F(GlobalPoolSizeTest, ResizeTakesEffectAndResets) {
  SetGlobalThreadPoolSize(3);
  EXPECT_EQ(GlobalThreadPoolSize(), 3);
  // The resized pool must actually execute work.
  std::atomic<int> count{0};
  ParallelFor(
      0, 100, [&count](int64_t) { count.fetch_add(1); }, /*grain=*/1);
  EXPECT_EQ(count.load(), 100);

  SetGlobalThreadPoolSize(1);
  EXPECT_EQ(GlobalThreadPoolSize(), 1);
  SetGlobalThreadPoolSize(0);
  EXPECT_GE(GlobalThreadPoolSize(), 1);
}

TEST(ParallelForChunkedTest, ChunksPartitionRange) {
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelForChunked(
      0, 10000,
      [&](int64_t lo, int64_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(lo, hi);
      },
      128);
  std::sort(chunks.begin(), chunks.end());
  int64_t expected = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expected);
    EXPECT_GT(hi, lo);
    expected = hi;
  }
  EXPECT_EQ(expected, 10000);
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrJoinTest, JoinsWithSeparator) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ", "), "");
  EXPECT_EQ(StrJoin({"solo"}, ", "), "solo");
}

TEST(StrSplitTest, SplitsKeepingEmptyFields) {
  const auto parts = StrSplit("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(FormatMeanStdTest, DefaultPrecision) {
  EXPECT_EQ(FormatMeanStd(82.149, 0.351), "82.1±0.4");
  EXPECT_EQ(FormatMeanStd(82.149, 0.351, 2), "82.15±0.35");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "12345"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(rendered.find("| b     | 12345 |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TablePrinterTest, SeparatorRendersRule) {
  TablePrinter table({"a"});
  table.AddRow({"1"});
  table.AddSeparator();
  table.AddRow({"2"});
  const std::string rendered = table.ToString();
  // header rule + separator + bottom rule + top rule = 4 rules
  size_t rules = 0;
  for (size_t pos = rendered.find("+-"); pos != std::string::npos;
       pos = rendered.find("+-", pos + 1)) {
    ++rules;
  }
  EXPECT_GE(rules, 4u);
}

TEST(WallTimerTest, MeasuresElapsed) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.Millis(), 15.0);
  timer.Restart();
  EXPECT_LT(timer.Millis(), 15.0);
}

// Restores the default sink and min level even when a test fails mid-way.
class LogSinkTest : public testing::Test {
 protected:
  ~LogSinkTest() override {
    SetLogSink(nullptr);
    SetMinLogLevel(LogLevel::kInfo);
  }
};

TEST_F(LogSinkTest, SinkCapturesRecordsWithTimestamp) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  SetLogSink([&captured](LogLevel level, std::string_view message) {
    captured.emplace_back(level, std::string(message));
  });
  FEDGTA_LOG(WARNING) << "hello sink " << 42;
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].first, LogLevel::kWarning);
  const std::string& message = captured[0].second;
  EXPECT_NE(message.find("hello sink 42"), std::string::npos);
  EXPECT_NE(message.find("common_test.cc"), std::string::npos);
  // "[W HH:MM:SS.mmm file:line]" — check the timestamp shape.
  ASSERT_GE(message.size(), 16u);
  EXPECT_EQ(message.substr(0, 3), "[W ");
  EXPECT_EQ(message[5], ':');
  EXPECT_EQ(message[8], ':');
  EXPECT_EQ(message[11], '.');
  for (const size_t i : {3u, 4u, 6u, 7u, 9u, 10u, 12u, 13u, 14u}) {
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(message[i])))
        << message;
  }
}

TEST_F(LogSinkTest, MinLevelFiltersBeforeSink) {
  std::vector<std::string> captured;
  SetLogSink([&captured](LogLevel, std::string_view message) {
    captured.emplace_back(message);
  });
  SetMinLogLevel(LogLevel::kError);
  FEDGTA_LOG(INFO) << "dropped";
  FEDGTA_LOG(ERROR) << "kept";
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_NE(captured[0].find("kept"), std::string::npos);
}

}  // namespace
}  // namespace fedgta
