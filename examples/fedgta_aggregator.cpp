// FedGTA regional aggregator: owns one client shard of a hierarchical
// federation (DESIGN.md §5k).
//
//   fedgta_aggregator --host=127.0.0.1 --port=5714 --port_file=agg0.port
//
// The aggregator dials the root server (retrying with backoff, so it may
// be started before the server), receives its contiguous client shard and
// worker slice via ShardAssign, publishes its worker-facing port, accepts
// the shard's fedgta_worker processes, and then serves the root's routed
// envelopes — train fan-out plus the shard's half of the Eq. 7
// aggregation — until the root says Shutdown. Flag
// parsing and validation are shared with the other binaries
// (src/eval/cli.h).

#include <cstdio>

#include "eval/cli.h"
#include "fed/aggregator.h"
#include "obs/trace.h"

using namespace fedgta;

int main(int argc, char** argv) {
  const Result<cli::ExperimentCli> parsed =
      cli::ParseAndValidate(cli::Role::kAggregator, argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  if (parsed->help) {
    std::fputs(cli::HelpText(cli::Role::kAggregator).c_str(), stdout);
    return 0;
  }
  if (const Status status = cli::ApplyRuntimeOptions(*parsed); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  // The handshake stamps the process id/name and clock offset, so the
  // trace written below already lives on the root's timebase —
  // trace_merge only concatenates.
  if (!parsed->trace_out.empty()) EnableTracing();
  fed::RegionalAggregator aggregator(parsed->ToAggregatorOptions());
  const Status status = aggregator.Run();
  if (!parsed->trace_out.empty()) {
    if (const Status trace = WriteChromeTrace(parsed->trace_out);
        !trace.ok()) {
      std::fprintf(stderr, "%s\n", trace.ToString().c_str());
      return 1;
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "aggregator failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
