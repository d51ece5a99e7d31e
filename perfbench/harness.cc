#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value, const std::string& unit) {
  for (Metric& m : *metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics->push_back({name, value, unit});
}

// ------------------------------------------------------------ statistics

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

Tail TailPercentile(const std::vector<double>& values, int beyond) {
  Tail tail;
  tail.samples = static_cast<int>(values.size());
  const double n = static_cast<double>(values.size());
  for (int q = 99; q >= 50; --q) {
    // Nearest rank r = ceil(q n / 100); n - r samples lie beyond it.
    const double rank = std::ceil(q * n / 100.0);
    if (n - rank >= beyond) {
      tail.pct = q;
      tail.value = Percentile(values, q);
      return tail;
    }
  }
  tail.pct = 50;
  tail.value = Median(values);
  return tail;
}

// ----------------------------------------------------------- processes

double SelfCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double SelfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1.0;
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(line.substr(close + 1));
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::string tok;
  double utime = 0.0;
  double stime = 0.0;
  for (int field = 3; field <= 15 && (fields >> tok); ++field) {
    if (field == 14) utime = std::atof(tok.c_str());
    if (field == 15) stime = std::atof(tok.c_str());
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

ScopedCpuPin::ScopedCpuPin(int cpu) {
  if (cpu < 0) return;
  if (sched_getaffinity(0, sizeof(previous_), &previous_) != 0) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  pinned_ = sched_setaffinity(0, sizeof(mask), &mask) == 0;
}

ScopedCpuPin::~ScopedCpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(previous_), &previous_);
}

ChildProcesses::~ChildProcesses() { KillAll(); }

pid_t ChildProcesses::Spawn(const std::string& binary,
                            const std::vector<std::string>& args,
                            const std::string& label,
                            const std::string& log_path, int cpu) {
  // Everything the child touches is prepared before fork: between fork and
  // exec a child of a multithreaded parent may only make async-signal-safe
  // calls.
  std::vector<std::string> owned;
  owned.reserve(args.size() + 1);
  owned.push_back(binary);
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (cpu >= 0) CPU_SET(cpu, &mask);
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const pid_t parent = getpid();

  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(126);  // parent already gone
    if (cpu >= 0) sched_setaffinity(0, sizeof(mask), &mask);
    if (log_fd >= 0) {
      dup2(log_fd, STDOUT_FILENO);
      dup2(log_fd, STDERR_FILENO);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  if (log_fd >= 0) close(log_fd);
  if (pid < 0) return -1;
  Child child;
  child.pid = pid;
  child.label = label;
  child.log_path = log_path;
  children_.push_back(child);
  return pid;
}

void ChildProcesses::Reap(Child* child, bool block) {
  if (child->reaped) return;
  int status = 0;
  rusage ru{};
  const pid_t got = wait4(child->pid, &status, block ? 0 : WNOHANG, &ru);
  if (got != child->pid) return;
  child->reaped = true;
  child->exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  child->cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  child->peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool ChildProcesses::ReapAll(double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (true) {
    bool all = true;
    for (Child& c : children_) {
      Reap(&c, /*block=*/false);
      all = all && c.reaped;
    }
    if (all || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  bool clean = true;
  for (Child& c : children_) clean = clean && c.reaped && c.exit_code == 0;
  KillAll();
  return clean;
}

void ChildProcesses::KillAll() {
  for (Child& c : children_) {
    if (c.reaped) continue;
    kill(c.pid, SIGKILL);
    Reap(&c, /*block=*/true);
    c.exit_code = -1;
  }
}

std::string ChildProcesses::FailureReport() const {
  std::string out;
  for (const Child& c : children_) {
    if (c.reaped && c.exit_code == 0) continue;
    out += c.label + " pid " + std::to_string(c.pid) + " exit " +
           std::to_string(c.exit_code) + "; log tail:\n";
    std::ifstream in(c.log_path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    const size_t from = lines.size() > 8 ? lines.size() - 8 : 0;
    for (size_t i = from; i < lines.size(); ++i) out += "  " + lines[i] + "\n";
  }
  return out;
}

// ------------------------------------------------------ metrics registry

RegistryDelta::RegistryDelta(const fedgta::MetricsSnapshot& before,
                             const fedgta::MetricsSnapshot& after) {
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    counters_[name] = value - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, snap] : after.histograms) {
    auto it = before.histograms.find(name);
    const bool had = it != before.histograms.end();
    sums_[name] = snap.sum - (had ? it->second.sum : 0.0);
    counts_[name] = snap.count - (had ? it->second.count : 0);
  }
}

int64_t RegistryDelta::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double RegistryDelta::HistSum(const std::string& name) const {
  auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

int64_t RegistryDelta::HistCount(const std::string& name) const {
  auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

double RegistryDelta::Value(const std::string& name) const {
  auto c = counters_.find(name);
  if (c != counters_.end()) return static_cast<double>(c->second);
  return HistSum(name);
}

namespace {

// True when `key` is `agg.<digits>.fleet.<name>`.
bool IsAggregatorRollup(const std::string& key, const std::string& name) {
  const std::string prefix = "agg.";
  const std::string suffix = ".fleet." + name;
  if (key.size() <= prefix.size() + suffix.size() ||
      key.compare(0, prefix.size(), prefix) != 0 ||
      key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  for (size_t i = prefix.size(); i < key.size() - suffix.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return false;
  }
  return true;
}

}  // namespace

double RegistryDelta::AllProcesses(const std::string& name) const {
  double total = Value(name) + Value("fleet." + name);
  for (const auto& [key, value] : counters_) {
    if (IsAggregatorRollup(key, name)) total += static_cast<double>(value);
  }
  for (const auto& [key, value] : sums_) {
    if (IsAggregatorRollup(key, name)) total += value;
  }
  return total;
}

// -------------------------------------------------------------- tracing

namespace {

bool FindField(const std::string& line, const std::string& key,
               std::string* value) {
  const std::string pattern = "\"" + key + "\": ";
  const size_t at = line.find(pattern);
  if (at == std::string::npos) return false;
  size_t begin = at + pattern.size();
  size_t end = begin;
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  }
  if (end == std::string::npos) return false;
  *value = line.substr(begin, end - begin);
  return true;
}

}  // namespace

bool ReadChromeTrace(const std::string& path, std::vector<SpanEvent>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  std::string v;
  while (std::getline(in, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    SpanEvent e;
    if (!FindField(line, "name", &e.name)) continue;
    if (FindField(line, "pid", &v)) e.pid = std::atoi(v.c_str());
    if (FindField(line, "tid", &v)) e.tid = std::atoi(v.c_str());
    if (FindField(line, "ts", &v)) e.ts_us = std::atoll(v.c_str());
    if (FindField(line, "dur", &v)) e.dur_us = std::atoll(v.c_str());
    if (FindField(line, "span", &v)) {
      e.span = std::strtoull(v.c_str(), nullptr, 16);
    }
    if (FindField(line, "parent", &v)) {
      e.parent = std::strtoull(v.c_str(), nullptr, 16);
    }
    if (FindField(line, "round", &v)) e.round = std::atoi(v.c_str());
    out->push_back(std::move(e));
  }
  return true;
}

std::string LayerOf(const std::string& name) {
  static const std::map<std::string, std::string> kLayers = {
      {"gemm", "linalg"},
      {"spmm", "linalg"},
      {"local_train", "gnn"},
      {"client_train", "gnn"},
      {"bench.train_local", "gnn"},
      {"fedgta_metrics", "core"},
      {"label_propagation", "core"},
      {"moments", "core"},
      {"similarity", "core"},
      {"similarity_candidates", "core"},
      {"bench.fedgta_metrics", "core"},
      {"bench.stack", "core"},
      {"bench.signatures", "core"},
      {"bench.sets", "core"},
      {"aggregation", "fed"},
      {"server_step", "fed"},
      {"remote_train", "fed"},
      {"shard_train", "fed"},
      {"bench.aggregate", "fed"},
      {"bench.client", "fed"},
      {"bench.clients", "fed"},
      {"net_send", "net"},
      {"net_recv", "net"},
      {"net_serialize", "net"},
      {"remote_eval", "eval"},
      {"shard_eval", "eval"},
      {"bench.eval", "eval"},
      {"bench.eval_client", "eval"},
  };
  auto it = kLayers.find(name);
  return it == kLayers.end() ? std::string() : it->second;
}

namespace {

struct PathWalker {
  const std::vector<SpanEvent>& events;
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  BlockingPath* out;

  // Walks span `idx`, clipped to [its start, clip_end].
  void Walk(size_t idx, int64_t clip_end) {
    const SpanEvent& s = events[idx];
    const int64_t start = s.ts_us;
    const int64_t end = std::min(s.end_us(), clip_end);
    if (end <= start) return;
    std::vector<size_t> kids;
    if (s.span != 0) {
      auto it = children.find(s.span);
      if (it != children.end()) kids = it->second;
    }
    std::sort(kids.begin(), kids.end(), [&](size_t a, size_t b) {
      return events[a].end_us() > events[b].end_us();
    });
    std::vector<char> chosen(kids.size(), 0);
    int64_t cursor = end;
    int64_t covered = 0;
    for (size_t k = 0; k < kids.size(); ++k) {
      const SpanEvent& c = events[kids[k]];
      const int64_t c_end = std::min(c.end_us(), cursor);
      const int64_t c_start = std::max(c.ts_us, start);
      // A child ending after the cursor ran in parallel with one already
      // chosen (clock skew across processes gets 2 ms of slack).
      if (c.end_us() > cursor + 2000 || c_end <= c_start) continue;
      chosen[k] = 1;
      // Parallel siblings that finished inside this child's interval
      // waited for it at the barrier.
      for (size_t j = 0; j < kids.size(); ++j) {
        if (j == k || chosen[j]) continue;
        const int64_t e = events[kids[j]].end_us();
        if (e > c_start && e <= c_end) {
          out->barrier_wait_s += 1e-6 * static_cast<double>(c_end - e);
          chosen[j] = 2;  // accounted as a waiter, never on the path
        }
      }
      Walk(kids[k], c_end);
      covered += c_end - c_start;
      cursor = c_start;
    }
    const double self_s = 1e-6 * static_cast<double>(end - start - covered);
    const std::string layer = LayerOf(s.name);
    if (layer.empty()) {
      out->unattributed_s += self_s;
    } else {
      out->layer_s[layer] += self_s;
    }
  }
};

}  // namespace

BlockingPath AnalyzeBlockingPath(const std::vector<SpanEvent>& events,
                                 const std::string& round_span) {
  BlockingPath path;
  PathWalker walker{events, {}, &path};
  // Round spans by round number (context-free rounds are numbered in
  // start order).
  std::vector<size_t> rounds;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].name == round_span) rounds.push_back(i);
  }
  std::sort(rounds.begin(), rounds.end(), [&](size_t a, size_t b) {
    return events[a].ts_us < events[b].ts_us;
  });
  std::map<int, size_t> round_by_number;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const SpanEvent& e = events[rounds[r]];
    round_by_number[e.round >= 0 ? e.round : static_cast<int>(r) + 1] =
        rounds[r];
  }
  std::unordered_map<uint64_t, size_t> by_span;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].span != 0) by_span[events[i].span] = i;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    if (e.name == round_span) continue;
    if (e.parent != 0 && e.parent != e.span && by_span.count(e.parent)) {
      walker.children[e.parent].push_back(i);
      continue;
    }
    // Orphans: a remote span whose request carried the round but no
    // parent (the sender had no open span) joins its round; context-free
    // wire work (serialize, throttled send) joins the round it started in.
    // Receive waits stay out: they measure the peer, not the wire.
    size_t target = events.size();
    if (e.round >= 0) {
      auto it = round_by_number.find(e.round);
      if (it != round_by_number.end()) target = it->second;
    } else if (e.name == "net_send" || e.name == "net_serialize") {
      for (size_t r : rounds) {
        if (e.ts_us >= events[r].ts_us && e.ts_us < events[r].end_us()) {
          target = r;
          break;
        }
      }
    }
    if (target < events.size() && events[target].span != 0) {
      walker.children[events[target].span].push_back(i);
    }
  }
  for (size_t i : rounds) {
    ++path.rounds;
    path.round_s += 1e-6 * static_cast<double>(events[i].dur_us);
    walker.Walk(i, events[i].end_us());
  }
  return path;
}

}  // namespace perfbench
