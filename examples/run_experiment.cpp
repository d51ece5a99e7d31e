// Command-line experiment runner: the whole library behind flags. For
// example (one command line, wrapped here):
//
//   run_experiment --dataset=cora --model=gamlp --strategy=fedgta
//       --clients=10 --split=louvain --rounds=50 --repeats=3
//       --backend=simd --csv=/tmp/curve.csv
//
// Run with --help for the full flag list. Flag parsing and validation are
// shared with fedgta_server / fedgta_worker (src/eval/cli.h).

#include <cstdio>
#include <string>

#include "common/string_util.h"
#include "eval/cli.h"
#include "eval/csv.h"
#include "eval/experiment.h"
#include "linalg/backend.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

using namespace fedgta;

int main(int argc, char** argv) {
  const Result<cli::ExperimentCli> parsed =
      cli::ParseAndValidate(cli::Role::kRunExperiment, argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  if (parsed->help) {
    std::fputs(cli::HelpText(cli::Role::kRunExperiment).c_str(), stdout);
    return 0;
  }
  if (const Status status = cli::ApplyRuntimeOptions(*parsed); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  const cli::ExperimentCli& flags = *parsed;
  const ExperimentConfig config = flags.ToExperimentConfig();

  std::printf(
      "%s | %s | %s | %s split | %d clients | %d rounds x %d epochs | "
      "backend %s\n",
      flags.dataset.c_str(), flags.model.c_str(), flags.strategy.c_str(),
      flags.split.c_str(), flags.clients, flags.rounds, flags.epochs,
      linalg::ActiveBackend().description().c_str());
  if (!flags.trace_out.empty()) EnableTracing();
  const ExperimentResult result = RunExperiment(config);
  std::printf(
      "test accuracy (best-val): %s%%\n"
      "final-round accuracy:     %s%%\n"
      "client time %.2fs | server time %.3fs | comm %.1f MB up / %.1f MB "
      "down\n",
      FormatMeanStd(result.test_accuracy.mean, result.test_accuracy.stddev)
          .c_str(),
      FormatMeanStd(result.final_accuracy.mean, result.final_accuracy.stddev)
          .c_str(),
      result.mean_client_seconds, result.mean_server_seconds,
      result.mean_upload_mb, result.mean_download_mb);
  if (flags.fail_dropout + flags.fail_straggler + flags.fail_crash > 0.0 &&
      !result.curve.empty()) {
    const RoundStats& last = result.curve.back();
    std::printf("injected failures (first repeat): %lld dropped | %lld "
                "stragglers | %lld crashed\n",
                static_cast<long long>(last.dropped_clients),
                static_cast<long long>(last.straggler_clients),
                static_cast<long long>(last.crashed_clients));
  }

  if (!flags.csv.empty()) {
    const Status status =
        WriteCurvesCsv(flags.csv, {{flags.strategy, result.curve}});
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("curve written to %s\n", flags.csv.c_str());
  }

  if (!flags.metrics_json.empty()) {
    // Final snapshot covers all repeats; with --repeats=1 it equals the
    // per-run SimulationResult::metrics_json hook.
    const std::string dump = GlobalMetrics().ToJson();
    std::FILE* f = std::fopen(flags.metrics_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", flags.metrics_json.c_str());
      return 1;
    }
    std::fputs(dump.c_str(), f);
    std::fclose(f);
    std::printf("metrics written to %s\n", flags.metrics_json.c_str());
  }
  if (!flags.trace_out.empty()) {
    const Status status = WriteChromeTrace(flags.trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s (open in chrome://tracing)\n",
                flags.trace_out.c_str());
  }
  if (!flags.timeline_out.empty()) {
    const Status status = GlobalTimeline().WriteJsonLines(flags.timeline_out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("timeline written to %s\n", flags.timeline_out.c_str());
  }
  return 0;
}
