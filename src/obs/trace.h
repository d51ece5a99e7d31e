#ifndef FEDGTA_OBS_TRACE_H_
#define FEDGTA_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace fedgta {

/// Cross-process span identity. A TraceContext travels with every RPC (see
/// net/rpc.h): the sender stamps its current context into the message
/// envelope and the receiver adopts it around the handling scope, so spans
/// recorded on a remote worker carry the server's trace_id, the server-side
/// parent span, and the federated round they belong to. Within one process
/// the context is thread-local; worker-pool threads do not inherit it
/// automatically — capture CurrentTraceContext() and re-install it with
/// ScopedTraceContext on the other side.
struct TraceContext {
  /// One id per distributed run (0 = no context).
  uint64_t trace_id = 0;
  /// The innermost enclosing span (the parent of any span opened under this
  /// context).
  uint64_t span_id = 0;
  /// Federated round the context belongs to; -1 outside any round.
  int32_t round = -1;

  bool valid() const { return trace_id != 0; }
};

/// The calling thread's current context (all-zero when none is installed).
TraceContext CurrentTraceContext();

/// Fresh nonzero run-level id (wall clock + pid mixed; uniqueness across a
/// fleet matters, determinism does not).
uint64_t NewTraceId();

/// Installs `ctx` as the calling thread's context for the enclosing scope
/// and restores the previous one on destruction. Used by the server around
/// each round and by workers around each adopted RPC.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

/// One completed span. `name` must be a string literal (the macro below
/// guarantees this); events store the pointer, never a copy.
struct TraceEvent {
  const char* name = nullptr;
  int32_t tid = 0;       // dense per-thread id assigned on first emit
  int64_t ts_us = 0;     // microseconds since process trace epoch
  int64_t dur_us = 0;    // span duration in microseconds
  uint64_t trace_id = 0;     // distributed run id (0 = untagged)
  uint64_t span_id = 0;      // this span (0 when context-free)
  uint64_t parent_span = 0;  // enclosing span, possibly in another process
  int32_t round = -1;        // federated round, -1 outside rounds
};

/// Tracing is off by default; when off, FEDGTA_TRACE_SCOPE costs one relaxed
/// atomic load. Enabling mid-run is safe; spans already in flight on other
/// threads are simply not recorded.
void EnableTracing();
/// Disables collection; already-buffered events stay until ClearTrace().
void DisableTracing();
/// Drops all buffered events on every thread.
void ClearTrace();

/// Perfetto "pid" lane of this process's spans in a merged trace. The
/// server is 1 (the default); workers use their assigned index + 2 so a
/// merged timeline shows one process track per fleet member.
void SetTraceProcessId(int32_t pid);
int32_t TraceProcessId();
/// Human label for the process track ("fedgta_server", "fedgta_worker_3").
void SetTraceProcessName(const std::string& name);
std::string TraceProcessName();

/// Offset added to every timestamp when writing the trace file, mapping
/// this process's trace clock onto the server's. Workers estimate it from
/// the Hello/AssignConfig ping-pong (NTP-style midpoint; see DESIGN.md
/// §5g) so the merged timeline shares one timebase. 0 (the default) for
/// the server and for single-process runs.
void SetTraceClockOffset(int64_t offset_us);
int64_t TraceClockOffset();

/// Snapshot of all buffered events across threads, in arbitrary order.
std::vector<TraceEvent> CollectTraceEvents();

/// Writes all buffered events as Chrome trace-event JSON ("X" complete
/// events), loadable in chrome://tracing and Perfetto (ui.perfetto.dev).
/// Timestamps are shifted by the trace clock offset, events carry the
/// process id/name set above, and context-tagged spans get
/// args.{trace_id,span,parent,round} so one distributed round filters to a
/// single flow across processes.
Status WriteChromeTrace(const std::string& path);

/// Unifies per-process Chrome trace files (each written by
/// WriteChromeTrace, already offset-corrected onto the server timebase)
/// into one timeline. Inputs keep their distinct pids; the merge is purely
/// structural.
Status MergeChromeTraces(const std::vector<std::string>& inputs,
                         const std::string& output);

namespace internal_obs {

/// Current time in microseconds since the process trace epoch.
int64_t TraceNowMicros();
/// Appends one event to the calling thread's ring buffer (oldest events are
/// overwritten when the buffer is full).
void EmitTraceEvent(const TraceEvent& event);
/// Fresh span id, unique within the fleet (salted by the process id).
uint64_t NextSpanId();
/// The calling thread's mutable context (ScopedTraceContext/TraceScope).
TraceContext& MutableTraceContext();

extern std::atomic<bool> g_tracing_enabled;

/// RAII span: records [construction, destruction) under `name` when tracing
/// is enabled at construction time. While open, the span installs itself as
/// the thread's current parent so nested spans (local or remote, via the
/// RPC envelope) chain to it.
class TraceScope {
 public:
  explicit TraceScope(const char* name) {
    if (g_tracing_enabled.load(std::memory_order_relaxed)) {
      name_ = name;
      start_us_ = TraceNowMicros();
      TraceContext& ctx = MutableTraceContext();
      parent_span_ = ctx.span_id;
      span_id_ = NextSpanId();
      ctx.span_id = span_id_;
    }
  }
  ~TraceScope() {
    if (name_ != nullptr) {
      TraceContext& ctx = MutableTraceContext();
      TraceEvent e;
      e.name = name_;
      e.ts_us = start_us_;
      e.dur_us = TraceNowMicros() - start_us_;
      e.trace_id = ctx.trace_id;
      e.span_id = span_id_;
      e.parent_span = parent_span_;
      e.round = ctx.round;
      EmitTraceEvent(e);
      ctx.span_id = parent_span_;
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  int64_t start_us_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_span_ = 0;
};

}  // namespace internal_obs
}  // namespace fedgta

// Traces the enclosing scope under `name` (a string literal). Compiles to
// nothing when FEDGTA_DISABLE_TRACING is defined; otherwise costs one relaxed
// atomic load while tracing is off.
#define FEDGTA_OBS_CONCAT_INNER(a, b) a##b
#define FEDGTA_OBS_CONCAT(a, b) FEDGTA_OBS_CONCAT_INNER(a, b)

#ifdef FEDGTA_DISABLE_TRACING
#define FEDGTA_TRACE_SCOPE(name)
#else
#define FEDGTA_TRACE_SCOPE(name)                  \
  ::fedgta::internal_obs::TraceScope FEDGTA_OBS_CONCAT( \
      fedgta_trace_scope_, __COUNTER__)(name)
#endif

#endif  // FEDGTA_OBS_TRACE_H_
