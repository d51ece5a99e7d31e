#include "obs/timeline.h"

#include <cmath>
#include <cstdio>

#include "common/string_util.h"
#include "obs/trace.h"

namespace fedgta {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

const char* TimelineEventKindName(TimelineEventKind kind) {
  switch (kind) {
    case TimelineEventKind::kRoundStart:
      return "round_start";
    case TimelineEventKind::kRoundEnd:
      return "round_end";
    case TimelineEventKind::kClientFate:
      return "client_fate";
    case TimelineEventKind::kPhase:
      return "phase";
    case TimelineEventKind::kWorker:
      return "worker";
    case TimelineEventKind::kAsyncAdmission:
      return "async_admission";
  }
  return "unknown";
}

std::string TimelineEvent::ToJson() const {
  std::string out = StrFormat("{\"kind\": \"%s\", \"ts_us\": %lld",
                              TimelineEventKindName(kind),
                              static_cast<long long>(ts_us));
  if (round >= 0) out += StrFormat(", \"round\": %d", round);
  if (client >= 0) out += StrFormat(", \"client\": %d", client);
  if (worker >= 0) out += StrFormat(", \"worker\": %d", worker);
  if (!label.empty()) out += ", \"label\": " + JsonString(label);
  if (seconds != 0.0 && std::isfinite(seconds)) {
    out += StrFormat(", \"seconds\": %.6f", seconds);
  }
  if (bytes_sent > 0) {
    out += StrFormat(", \"bytes_sent\": %lld",
                     static_cast<long long>(bytes_sent));
  }
  if (bytes_recv > 0) {
    out += StrFormat(", \"bytes_recv\": %lld",
                     static_cast<long long>(bytes_recv));
  }
  if (dropped > 0) {
    out += StrFormat(", \"dropped\": %lld", static_cast<long long>(dropped));
  }
  if (stragglers > 0) {
    out += StrFormat(", \"stragglers\": %lld",
                     static_cast<long long>(stragglers));
  }
  if (crashed > 0) {
    out += StrFormat(", \"crashed\": %lld", static_cast<long long>(crashed));
  }
  if (participants > 0) {
    out += StrFormat(", \"participants\": %lld",
                     static_cast<long long>(participants));
  }
  if (queue_depth > 0) {
    out += StrFormat(", \"queue_depth\": %lld",
                     static_cast<long long>(queue_depth));
  }
  out += "}";
  return out;
}

void Timeline::Record(TimelineEvent event) {
  if (event.ts_us == 0) event.ts_us = internal_obs::TraceNowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  if (event.kind == TimelineEventKind::kRoundStart) {
    current_round_ = event.round;
  }
  if (events_.size() >= capacity_) {
    events_.pop_front();
    ++dropped_events_;
  }
  events_.push_back(std::move(event));
}

void Timeline::RoundStart(int32_t round, int64_t participants) {
  TimelineEvent e;
  e.kind = TimelineEventKind::kRoundStart;
  e.round = round;
  e.participants = participants;
  Record(std::move(e));
}

void Timeline::RoundEnd(int32_t round, double client_seconds,
                        double server_seconds, int64_t bytes_sent,
                        int64_t bytes_recv, int64_t dropped,
                        int64_t stragglers, int64_t crashed) {
  TimelineEvent e;
  e.kind = TimelineEventKind::kRoundEnd;
  e.round = round;
  e.label = "round";
  e.seconds = client_seconds + server_seconds;
  e.bytes_sent = bytes_sent;
  e.bytes_recv = bytes_recv;
  e.dropped = dropped;
  e.stragglers = stragglers;
  e.crashed = crashed;
  Record(std::move(e));
  if (client_seconds > 0.0) Phase(round, "client", client_seconds);
  if (server_seconds > 0.0) Phase(round, "server", server_seconds);
}

void Timeline::ClientFate(int32_t round, int32_t client,
                          const std::string& fate, double seconds) {
  TimelineEvent e;
  e.kind = TimelineEventKind::kClientFate;
  e.round = round;
  e.client = client;
  e.label = fate;
  e.seconds = seconds;
  Record(std::move(e));
}

void Timeline::Phase(int32_t round, const std::string& phase,
                     double seconds) {
  TimelineEvent e;
  e.kind = TimelineEventKind::kPhase;
  e.round = round;
  e.label = phase;
  e.seconds = seconds;
  Record(std::move(e));
}

void Timeline::AsyncAdmission(int32_t round, int64_t admitted,
                              int64_t stale_dropped, int64_t queue_depth) {
  TimelineEvent e;
  e.kind = TimelineEventKind::kAsyncAdmission;
  e.round = round;
  e.participants = admitted;
  e.dropped = stale_dropped;
  e.queue_depth = queue_depth;
  Record(std::move(e));
}

void Timeline::Worker(int32_t worker, const std::string& event) {
  TimelineEvent e;
  e.kind = TimelineEventKind::kWorker;
  e.worker = worker;
  e.label = event;
  Record(std::move(e));
}

std::vector<TimelineEvent> Timeline::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<TimelineEvent>(events_.begin(), events_.end());
}

size_t Timeline::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

int64_t Timeline::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_events_;
}

int32_t Timeline::current_round() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_round_;
}

std::string Timeline::ToJsonLines() const {
  std::string out;
  for (const TimelineEvent& e : Events()) {
    out += e.ToJson();
    out += '\n';
  }
  return out;
}

Status Timeline::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InternalError("cannot open timeline output: " + path);
  }
  const std::string lines = ToJsonLines();
  const bool ok =
      std::fwrite(lines.data(), 1, lines.size(), f) == lines.size();
  if (std::fclose(f) != 0 || !ok) {
    return InternalError("error writing timeline output: " + path);
  }
  return OkStatus();
}

void Timeline::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_events_ = 0;
  current_round_ = -1;
}

Timeline& GlobalTimeline() {
  // Leaked for the same reason as GlobalMetrics().
  static Timeline* timeline = new Timeline;
  return *timeline;
}

}  // namespace fedgta
