#ifndef FEDGTA_OBS_TIMELINE_H_
#define FEDGTA_OBS_TIMELINE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace fedgta {

/// What a timeline entry describes.
enum class TimelineEventKind {
  kRoundStart,   // a federated round began
  kRoundEnd,     // a round finished (phase durations + wire totals)
  kClientFate,       // one client's outcome within a round
  kPhase,            // a named phase duration within a round
  kWorker,           // worker lifecycle (connected, lost, ...)
  kAsyncAdmission,   // async runtime: one round's update-admission outcome
};

const char* TimelineEventKindName(TimelineEventKind kind);

/// One structured event in the round timeline. Fields not meaningful for a
/// kind stay at their defaults and are omitted from the JSON rendering.
struct TimelineEvent {
  TimelineEventKind kind = TimelineEventKind::kRoundStart;
  int64_t ts_us = 0;    // trace clock (see internal_obs::TraceNowMicros)
  int32_t round = -1;   // -1 when not round-scoped
  int32_t client = -1;
  int32_t worker = -1;
  std::string label;    // fate name, phase name, worker event, ...
  double seconds = 0.0;
  int64_t bytes_sent = 0;
  int64_t bytes_recv = 0;
  int64_t dropped = 0;
  int64_t stragglers = 0;
  int64_t crashed = 0;
  int64_t participants = 0;
  /// kAsyncAdmission: updates still buffered after this round's drain.
  int64_t queue_depth = 0;

  /// One-line JSON object (no trailing newline).
  std::string ToJson() const;
};

/// Append-only, thread-safe structured event log of a federated run: round
/// boundaries, per-client fates, phase durations, bytes on the wire, and
/// worker lifecycle. Bounded — when full, the oldest events are discarded
/// and counted, so a long run keeps the recent past. This is the data the
/// status endpoint (net/status.h) serves live and the `--timeline_out`
/// JSON-lines file is written from.
class Timeline {
 public:
  explicit Timeline(size_t capacity = 1 << 20) : capacity_(capacity) {}

  void Record(TimelineEvent event);

  // Convenience recorders; all stamp ts_us themselves.
  void RoundStart(int32_t round, int64_t participants);
  void RoundEnd(int32_t round, double client_seconds, double server_seconds,
                int64_t bytes_sent, int64_t bytes_recv, int64_t dropped,
                int64_t stragglers, int64_t crashed);
  void ClientFate(int32_t round, int32_t client, const std::string& fate,
                  double seconds);
  void Phase(int32_t round, const std::string& phase, double seconds);
  void Worker(int32_t worker, const std::string& event);
  /// Async runtime: one round's admission outcome — `admitted` updates
  /// aggregated (recorded as `participants`), `stale_dropped` past the
  /// staleness bound (recorded as `dropped`), `queue_depth` still buffered.
  void AsyncAdmission(int32_t round, int64_t admitted, int64_t stale_dropped,
                      int64_t queue_depth);

  std::vector<TimelineEvent> Events() const;
  size_t size() const;
  int64_t dropped_events() const;
  /// Round of the latest RoundStart (a new run restarts it); -1 before
  /// the first round.
  int32_t current_round() const;

  /// All events, one JSON object per line.
  std::string ToJsonLines() const;
  Status WriteJsonLines(const std::string& path) const;

  void Clear();

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<TimelineEvent> events_;
  int64_t dropped_events_ = 0;
  int32_t current_round_ = -1;
};

/// Process-wide timeline used by Simulation and the remote coordinator.
Timeline& GlobalTimeline();

}  // namespace fedgta

#endif  // FEDGTA_OBS_TIMELINE_H_
