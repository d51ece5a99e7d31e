// Measurement plumbing shared by the perfbench workloads: order statistics,
// child-process lifetime (spawn, deadline, kill, reap), process CPU and
// memory readings, metrics-registry deltas, and blocking-path analysis of
// Chrome trace files. Nothing here knows about a particular workload.

#ifndef FEDGTA_PERFBENCH_HARNESS_H_
#define FEDGTA_PERFBENCH_HARNESS_H_

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

// ---------------------------------------------------------------- output

/// One reported number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Appends `value` under `name`, or overwrites an existing entry.
void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value, const std::string& unit);

// ------------------------------------------------------------ statistics

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 100].
double Percentile(std::vector<double> values, double q);

/// The highest integer percentile that still has at least `beyond` samples
/// above it (nearest rank). With fewer than 2 * beyond samples no tail is
/// resolvable and the median is returned with pct = 50.
struct Tail {
  double value = 0.0;
  int pct = 50;
  int samples = 0;
};
Tail TailPercentile(const std::vector<double>& values, int beyond = 10);

// ----------------------------------------------------------- processes

/// CPU seconds (user + sys) and peak RSS of this process so far.
double SelfCpuSeconds();
double SelfPeakRssMb();
/// CPU seconds of a live (or zombie) process from /proc/<pid>/stat; -1 if
/// it cannot be read.
double ProcCpuSeconds(pid_t pid);

/// Pins the calling thread (and the threads it starts afterwards) to CPU
/// `cpu`; restores the previous mask on destruction. `cpu` < 0 is a no-op.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(int cpu);
  ~ScopedCpuPin();
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  bool pinned_ = false;
  cpu_set_t previous_{};
};

/// Owns every child process a workload starts. Children are forked with
/// PR_SET_PDEATHSIG = SIGKILL, so they die with the benchmark even if it
/// aborts; the destructor kills and reaps whatever is still running.
/// Must be used from the main thread (the death signal is tied to the
/// thread that forked).
class ChildProcesses {
 public:
  struct Child {
    pid_t pid = -1;
    std::string label;  // role, e.g. "worker" or "aggregator"
    std::string log_path;
    bool reaped = false;
    int exit_code = -1;  // -1 = killed by a signal
    double cpu_s = 0.0;
    double peak_rss_mb = 0.0;
  };

  ChildProcesses() = default;
  ~ChildProcesses();
  ChildProcesses(const ChildProcesses&) = delete;
  ChildProcesses& operator=(const ChildProcesses&) = delete;

  /// Starts `binary args...` with stdout/stderr appended to `log_path`,
  /// pinned to CPU `cpu` when it is >= 0. Returns the pid, or -1 when fork
  /// fails.
  pid_t Spawn(const std::string& binary, const std::vector<std::string>& args,
              const std::string& label, const std::string& log_path,
              int cpu = -1);

  /// Waits until every child has exited or `timeout_s` passes, then kills
  /// the rest. Returns true when every child exited on its own with code 0.
  bool ReapAll(double timeout_s);
  /// SIGKILLs and reaps every child still running.
  void KillAll();

  const std::vector<Child>& children() const { return children_; }
  /// Last lines of each failed child's log, for diagnostics.
  std::string FailureReport() const;

 private:
  void Reap(Child* child, bool block);

  std::vector<Child> children_;
};

// ------------------------------------------------------ metrics registry

/// Difference of two registry captures: counters and histogram sums and
/// counts.
class RegistryDelta {
 public:
  RegistryDelta(const fedgta::MetricsSnapshot& before,
                const fedgta::MetricsSnapshot& after);

  int64_t Counter(const std::string& name) const;
  double HistSum(const std::string& name) const;
  int64_t HistCount(const std::string& name) const;
  /// Value of `name` in this process plus every remote process whose
  /// metrics were merged into the registry: `fleet.<name>` (sum over the
  /// directly connected workers or aggregators) and `agg.<i>.fleet.<name>`
  /// (each aggregator's workers). Counters and histogram sums alike.
  double AllProcesses(const std::string& name) const;

 private:
  double Value(const std::string& name) const;

  std::map<std::string, int64_t> counters_;
  std::map<std::string, double> sums_;
  std::map<std::string, int64_t> counts_;
};

// -------------------------------------------------------------- tracing

/// One complete ("X") span read back from a Chrome trace file.
struct SpanEvent {
  std::string name;
  int pid = 0;
  int tid = 0;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  uint64_t span = 0;
  uint64_t parent = 0;
  int round = -1;
  int64_t end_us() const { return ts_us + dur_us; }
};

/// Parses the one-event-per-line layout WriteChromeTrace and trace_merge
/// produce. Returns false when the file cannot be read.
bool ReadChromeTrace(const std::string& path, std::vector<SpanEvent>* out);

/// Module a span name belongs to ("linalg", "gnn", "core", "fed", "net",
/// "eval"); "" for round-level spans whose self time is waiting that no
/// layer accounts for.
std::string LayerOf(const std::string& span_name);

/// Self time of each layer along every round's blocking path. A round is a
/// span named `round_span`; its blocking path is found by walking back from
/// its end through the child that finished last, then the child that
/// finished last before that one started, and so on, recursively (spans
/// chain through parent ids, across processes). Time inside a span not
/// covered by a chosen child is that span's self time on the path.
struct BlockingPath {
  int rounds = 0;
  double round_s = 0.0;                  // summed round wall time
  std::map<std::string, double> layer_s;  // summed self time per layer
  double unattributed_s = 0.0;  // round-level self time (no layer)
  /// Summed idle time of parallel siblings that finished before the
  /// sibling on the blocking path (barrier waits).
  double barrier_wait_s = 0.0;
};
BlockingPath AnalyzeBlockingPath(const std::vector<SpanEvent>& events,
                                 const std::string& round_span);

}  // namespace perfbench

#endif  // FEDGTA_PERFBENCH_HARNESS_H_
