// fgbench: runs one FedGTA deployment workload for a fixed time,
// checks its outputs, and prints every metric by name with its unit. The
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.
//
//   fgbench --workload=inproc-arxiv --seed=1 --seconds=10 --trace=0
//           --work_dir=DIR [--commit=ID]
//   fgbench --selftest --work_dir=DIR      (toy sizes, every workload)
//   fgbench --role=worker <fedgta_worker flags> --throttle_bytes_per_sec=N
//
// perfbench/run.py builds this binary and is the intended entry point.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "linalg/backend.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunContext;
using perfbench::WorkloadResult;

bool ParseArg(const std::string& arg, const std::string& key,
              std::string* value) {
  const std::string prefix = "--" + key + "=";
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

std::string Json(const WorkloadResult& r, bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": ";
    out += num;
    out += ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

/// Names/units the run must report, in catalogue order; returns the
/// missing or mis-united ones.
std::vector<std::string> MissingMetrics(const WorkloadResult& r, bool trace) {
  const auto& expected =
      trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  std::vector<std::string> missing;
  for (const auto& [name, unit] : expected) {
    bool found = false;
    for (const Metric& m : r.metrics) {
      found = found || (m.name == name && m.unit == unit);
    }
    if (!found) missing.push_back(name + " [" + unit + "]");
  }
  if (r.metrics.size() != expected.size()) {
    missing.push_back("(reported " + std::to_string(r.metrics.size()) +
                      " metrics, expected " + std::to_string(expected.size()) +
                      ")");
  }
  return missing;
}

void PrintRun(const RunContext& ctx, const WorkloadResult& r) {
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  std::fputs(r.checks.Report().c_str(), stdout);
  for (const Metric& m : r.metrics) {
    std::printf("metric %-28s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("# attempted %lld, failed %lld (trace=%d)\n",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), ctx.trace ? 1 : 0);
}

int SelfTest(RunContext base) {
  // Every workload at toy size, untraced and traced: each named metric
  // prints with its unit, every check passes on the true expectation and
  // rejects the deliberately wrong one.
  int failures = 0;
  for (const std::string& workload : perfbench::WorkloadNames()) {
    for (int trace = 0; trace <= 1; ++trace) {
      RunContext ctx = base;
      ctx.workload = workload;
      ctx.trace = trace == 1;
      ctx.toy = true;
      ctx.seconds = 0.1;
      const WorkloadResult r = perfbench::RunWorkload(ctx);
      PrintRun(ctx, r);
      std::vector<std::string> problems = MissingMetrics(r, ctx.trace);
      if (!r.finished) problems.push_back("did not finish: " + r.error);
      if (!r.checks.all_pass()) problems.push_back("a check failed");
      if (!r.checks.all_discriminate()) {
        problems.push_back("a check accepted a wrong expectation");
      }
      std::printf("selftest %-16s trace=%d: %s\n", workload.c_str(), trace,
                  problems.empty() ? "ok" : "FAILED");
      for (const std::string& p : problems) std::printf("  %s\n", p.c_str());
      failures += problems.empty() ? 0 : 1;
    }
  }
  std::printf("selftest: %s\n", failures == 0 ? "all ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The benchmark pins its environment: neither it nor its children may
  // pick up a backend, pool size or bench mode from the caller.
  for (const char* var :
       {"FEDGTA_BACKEND", "FEDGTA_NUM_THREADS", "FEDGTA_BENCH_MODE"}) {
    unsetenv(var);
  }
  if (argc > 1 && std::strcmp(argv[1], "--role=worker") == 0) {
    return perfbench::RunThrottledWorker(argc, argv);
  }

  RunContext ctx;
  std::string commit = "unknown";
  bool selftest = false;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
    } else if (ParseArg(arg, "workload", &value)) {
      ctx.workload = value;
    } else if (ParseArg(arg, "seed", &value)) {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(arg, "seconds", &value)) {
      ctx.seconds = std::atof(value.c_str());
    } else if (ParseArg(arg, "trace", &value)) {
      ctx.trace = value == "1";
    } else if (ParseArg(arg, "work_dir", &value)) {
      ctx.work_dir = value;
    } else if (ParseArg(arg, "commit", &value)) {
      commit = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  char exe[4096] = {0};
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
    return 2;
  }
  ctx.self_exe = std::string(exe, static_cast<size_t>(len));
  ctx.bin_dir = ctx.self_exe.substr(0, ctx.self_exe.rfind('/'));
  if (ctx.work_dir.empty()) {
    std::fprintf(stderr, "--work_dir is required\n");
    return 2;
  }

  std::printf("# commit %s | nproc %u | backend %s | seed %llu | seconds %g\n",
              commit.c_str(), std::thread::hardware_concurrency(),
              std::string(fedgta::linalg::ActiveBackendName()).c_str(),
              static_cast<unsigned long long>(ctx.seed), ctx.seconds);
  if (selftest) return SelfTest(ctx);

  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known = known || w == ctx.workload;
  }
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", ctx.workload.c_str());
    return 2;
  }
  const WorkloadResult r = perfbench::RunWorkload(ctx);
  PrintRun(ctx, r);
  if (!r.finished) {
    std::fprintf(stderr,
                 "workload %s could not finish (%lld of %lld attempted "
                 "failed): %s\n",
                 ctx.workload.c_str(), static_cast<long long>(r.failed),
                 static_cast<long long>(r.attempted), r.error.c_str());
    return 1;
  }
  const std::vector<std::string> missing = MissingMetrics(r, ctx.trace);
  if (!missing.empty()) {
    for (const std::string& m : missing) {
      std::fprintf(stderr, "missing metric %s\n", m.c_str());
    }
    return 1;
  }
  std::printf("%s\n", Json(r, r.checks.all_pass() && r.failed == 0).c_str());
  std::fflush(stdout);
  return 0;
}
