// FedGTA worker: hosts a shard of the federation for a fedgta_server.
//
//   fedgta_worker --host=127.0.0.1 --port=5714
//
// The worker dials the server (retrying with backoff, so it may be started
// before the server), receives the experiment config (kernel backend
// included) plus its hosted client ids, switches to the server's backend,
// materializes the deterministic dataset locally, and serves train /
// eval requests until the server says Shutdown. Flag parsing and validation
// are shared with run_experiment / fedgta_server (src/eval/cli.h).

#include <cstdio>

#include "eval/cli.h"
#include "fed/remote_client_runner.h"
#include "obs/trace.h"

using namespace fedgta;

int main(int argc, char** argv) {
  const Result<cli::ExperimentCli> parsed =
      cli::ParseAndValidate(cli::Role::kWorker, argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  if (parsed->help) {
    std::fputs(cli::HelpText(cli::Role::kWorker).c_str(), stdout);
    return 0;
  }
  if (const Status status = cli::ApplyRuntimeOptions(*parsed); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  // The runner stamps the process id/name and clock offset during the
  // handshake, so the trace written below already lives on the server's
  // timebase — trace_merge only concatenates.
  if (!parsed->trace_out.empty()) EnableTracing();
  RemoteClientRunner runner(parsed->ToRunnerOptions());
  const Status status = runner.Run();
  if (!parsed->trace_out.empty()) {
    if (const Status trace = WriteChromeTrace(parsed->trace_out);
        !trace.ok()) {
      std::fprintf(stderr, "%s\n", trace.ToString().c_str());
      return 1;
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "worker failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
