#ifndef FEDGTA_FED_REMOTE_CLIENT_RUNNER_H_
#define FEDGTA_FED_REMOTE_CLIENT_RUNNER_H_

#include <string>

#include "fed/remote_config.h"

namespace fedgta {

struct RemoteRunnerOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Connect retry/backoff plus the handshake receive deadline.
  net::RpcOptions rpc;
  /// Receive timeout of the serve loop (covers the gap between rounds while
  /// the server aggregates); 0 waits forever.
  int idle_timeout_ms = 0;
  /// Test/chaos hook: after this many train responses the runner returns
  /// mid-protocol without a goodbye, exactly like a killed worker process.
  /// 0 disables.
  int max_train_requests = 0;
};

/// One FedGTA worker process: dials the server, receives its experiment
/// config and hosted client ids, materializes the deterministic dataset and
/// its clients locally, then serves Train/Eval requests until Shutdown.
///
/// The runner replicates the in-process executor's client-side semantics
/// exactly: TrainRequest weights are the strategy's download, injected
/// fates come from the same pure FateOf schedule (crashed clients train
/// ceil(epochs/2), stragglers train fully, both upload nothing), and the
/// FedGTA H/M metrics (Eq. 4-5) are computed post-training on the full
/// local graph. See RemoteCoordinator for the server half of the contract.
class RemoteClientRunner {
 public:
  explicit RemoteClientRunner(const RemoteRunnerOptions& options);

  /// Runs the full worker lifetime. Returns OK after a clean Shutdown
  /// exchange (or when the chaos hook fires); any transport or protocol
  /// failure surfaces as the corresponding error Status.
  Status Run();

 private:
  RemoteRunnerOptions options_;
};

}  // namespace fedgta

#endif  // FEDGTA_FED_REMOTE_CLIENT_RUNNER_H_
