// The four perfbench workloads and the metric catalogue they report.

#ifndef FEDGTA_PERFBENCH_WORKLOADS_H_
#define FEDGTA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes: every code path, a fraction of the work (self-test).
  bool toy = false;
  /// Scratch directory for port files, child logs and trace files.
  std::string work_dir;
  /// This binary (re-executed as a throttled fleet worker) and the
  /// directory holding fedgta_worker, fedgta_aggregator and trace_merge.
  std::string self_exe;
  std::string bin_dir;
};

/// Correctness checks of one run. Each check is evaluated twice: against
/// the true expectation (must pass) and against a deliberately wrong one
/// (must fail) — the second proves the check can fail at all.
class Checks {
 public:
  void Add(const std::string& name, bool passes, bool passes_wrong,
           const std::string& detail);
  bool all_pass() const;
  bool all_discriminate() const;
  std::string Report() const;

 private:
  struct Entry {
    std::string name;
    bool passes = false;
    bool passes_wrong = false;
    std::string detail;
  };
  std::vector<Entry> entries_;
};

struct WorkloadResult {
  /// False when the workload could not finish (a session failed).
  bool finished = true;
  std::string error;
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  Checks checks;
  /// Provenance lines printed ahead of the metrics.
  std::vector<std::string> notes;
};

std::vector<std::string> WorkloadNames();
/// (name, unit) of every end-to-end / per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

WorkloadResult RunWorkload(const RunContext& ctx);

/// Entry point of a throttled flat-fleet worker process: fedgta_worker's
/// flags plus --throttle_bytes_per_sec=N.
int RunThrottledWorker(int argc, char** argv);

}  // namespace perfbench

#endif  // FEDGTA_PERFBENCH_WORKLOADS_H_
