#include "obs/trace.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "common/string_util.h"

namespace fedgta {
namespace internal_obs {

std::atomic<bool> g_tracing_enabled{false};

namespace {

// Per-thread ring buffer; oldest events are overwritten when full so a long
// run keeps the tail of the timeline rather than aborting or reallocating.
constexpr size_t kEventsPerThread = 1 << 15;

struct ThreadBuffer {
  int32_t tid = 0;
  // Guards events/next/wrapped against the collector; writers are the owning
  // thread only, so the lock is uncontended in steady state.
  std::mutex mutex;
  std::vector<TraceEvent> events;
  size_t next = 0;
  bool wrapped = false;

  void Push(const TraceEvent& e) {
    std::lock_guard<std::mutex> lock(mutex);
    if (events.empty()) events.resize(kEventsPerThread);
    events[next] = e;
    next = (next + 1) % events.size();
    if (next == 0) wrapped = true;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mutex);
    next = 0;
    wrapped = false;
    events.clear();
    events.shrink_to_fit();
  }

  void AppendTo(std::vector<TraceEvent>* out) {
    std::lock_guard<std::mutex> lock(mutex);
    const size_t n = wrapped ? events.size() : next;
    const size_t start = wrapped ? next : 0;
    for (size_t i = 0; i < n; ++i) {
      out->push_back(events[(start + i) % events.size()]);
    }
  }
};

struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int32_t next_tid = 0;
};

BufferRegistry& Registry() {
  // Leaked: thread-local destructors may run after static destruction.
  static BufferRegistry* registry = new BufferRegistry;
  return *registry;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    BufferRegistry& reg = Registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    b->tid = reg.next_tid++;
    reg.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

// Process identity for merged traces. The atomics make the cross-thread
// reads well-defined; the name needs a mutex because std::string is not.
std::atomic<int32_t> g_trace_pid{1};
std::atomic<int64_t> g_clock_offset_us{0};
std::mutex g_process_name_mutex;
std::string& ProcessNameStorage() {
  static std::string* name = new std::string("fedgta");
  return *name;
}

// Span ids must be unique fleet-wide so a parent recorded on the server and
// a child recorded on a worker never collide: the top byte carries the
// process id, the low 56 bits a process-local counter.
std::atomic<uint64_t> g_next_span{0};

thread_local TraceContext g_trace_context;

}  // namespace

int64_t TraceNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - TraceEpoch())
      .count();
}

void EmitTraceEvent(const TraceEvent& event) {
  ThreadBuffer& buffer = LocalBuffer();
  TraceEvent e = event;
  e.tid = buffer.tid;
  buffer.Push(e);
}

uint64_t NextSpanId() {
  const uint64_t pid =
      static_cast<uint64_t>(g_trace_pid.load(std::memory_order_relaxed));
  const uint64_t seq = g_next_span.fetch_add(1, std::memory_order_relaxed);
  return (pid << 56) | ((seq + 1) & ((uint64_t{1} << 56) - 1));
}

TraceContext& MutableTraceContext() { return g_trace_context; }

}  // namespace internal_obs

TraceContext CurrentTraceContext() { return internal_obs::g_trace_context; }

uint64_t NewTraceId() {
  // Wall-clock nanoseconds mixed with the OS pid (SplitMix64 finalizer);
  // good enough for uniqueness across a fleet launched together.
  uint64_t x = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  x ^= static_cast<uint64_t>(::getpid()) << 32;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x != 0 ? x : 1;
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx) {
  TraceContext& current = internal_obs::MutableTraceContext();
  previous_ = current;
  current = ctx;
}

ScopedTraceContext::~ScopedTraceContext() {
  internal_obs::MutableTraceContext() = previous_;
}

void EnableTracing() {
  (void)internal_obs::TraceEpoch();  // pin the epoch before the first span
  internal_obs::g_tracing_enabled.store(true, std::memory_order_relaxed);
}

void DisableTracing() {
  internal_obs::g_tracing_enabled.store(false, std::memory_order_relaxed);
}

void ClearTrace() {
  internal_obs::BufferRegistry& reg = internal_obs::Registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& buffer : reg.buffers) buffer->Clear();
}

void SetTraceProcessId(int32_t pid) {
  internal_obs::g_trace_pid.store(pid, std::memory_order_relaxed);
}

int32_t TraceProcessId() {
  return internal_obs::g_trace_pid.load(std::memory_order_relaxed);
}

void SetTraceProcessName(const std::string& name) {
  std::lock_guard<std::mutex> lock(internal_obs::g_process_name_mutex);
  internal_obs::ProcessNameStorage() = name;
}

std::string TraceProcessName() {
  std::lock_guard<std::mutex> lock(internal_obs::g_process_name_mutex);
  return internal_obs::ProcessNameStorage();
}

void SetTraceClockOffset(int64_t offset_us) {
  internal_obs::g_clock_offset_us.store(offset_us, std::memory_order_relaxed);
}

int64_t TraceClockOffset() {
  return internal_obs::g_clock_offset_us.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> CollectTraceEvents() {
  std::vector<TraceEvent> out;
  internal_obs::BufferRegistry& reg = internal_obs::Registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& buffer : reg.buffers) buffer->AppendTo(&out);
  return out;
}

Status WriteChromeTrace(const std::string& path) {
  const std::vector<TraceEvent> events = CollectTraceEvents();
  const int32_t pid = TraceProcessId();
  const int64_t offset = TraceClockOffset();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InternalError("cannot open trace output: " + path);
  }
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  // Process-track label ("M" metadata event). trace_merge keys on the
  // one-event-per-line layout below; keep it if you touch the format.
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
               "\"args\": {\"name\": \"%s\"}}%s\n",
               pid, TraceProcessName().c_str(), events.empty() ? "" : ",");
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"fedgta\", \"ph\": \"X\", "
                 "\"pid\": %d, \"tid\": %d, \"ts\": %lld, \"dur\": %lld",
                 e.name, pid, e.tid, static_cast<long long>(e.ts_us + offset),
                 static_cast<long long>(e.dur_us));
    if (e.trace_id != 0) {
      std::fprintf(f,
                   ", \"args\": {\"trace_id\": \"%llx\", \"span\": \"%llx\", "
                   "\"parent\": \"%llx\"",
                   static_cast<unsigned long long>(e.trace_id),
                   static_cast<unsigned long long>(e.span_id),
                   static_cast<unsigned long long>(e.parent_span));
      if (e.round >= 0) std::fprintf(f, ", \"round\": %d", e.round);
      std::fputs("}", f);
    }
    std::fprintf(f, "}%s\n", i + 1 < events.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) {
    return InternalError("error writing trace output: " + path);
  }
  return OkStatus();
}

}  // namespace fedgta
