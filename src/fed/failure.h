#ifndef FEDGTA_FED_FAILURE_H_
#define FEDGTA_FED_FAILURE_H_

#include <cstdint>
#include <string_view>

namespace fedgta {

/// What happens to one sampled client in one round.
enum class ClientFate {
  /// Trains and reports normally.
  kHealthy,
  /// Sampled but never reports: the client does no local work at all
  /// (machine offline, network partition before download).
  kDropout,
  /// Finishes local training but past the round deadline: the work happens,
  /// the result is discarded by the server.
  kStraggler,
  /// Crashes mid-round: part of the local epochs run, then the process
  /// dies; nothing is uploaded.
  kCrash,
};

std::string_view ClientFateName(ClientFate fate);

/// Failure-injection rates. All failures are drawn deterministically from
/// `seed` (see FailurePlan), so two runs of the same configuration — or a
/// checkpoint-resumed run — inject exactly the same failures.
struct FailureConfig {
  /// Probability a sampled client drops out of a round entirely.
  double dropout_rate = 0.0;
  /// Probability a client misses the round deadline (result discarded).
  double straggler_rate = 0.0;
  /// Probability a client crashes mid-round (result discarded).
  double crash_rate = 0.0;
  uint64_t seed = 0xFA11;

  bool enabled() const {
    return dropout_rate > 0.0 || straggler_rate > 0.0 || crash_rate > 0.0;
  }
};

/// Deterministic per-(round, client) failure schedule. FateOf is a pure
/// function of (seed, round, client) — no internal stream is consumed — so
/// the schedule is independent of participant order, thread count, and
/// checkpoint/resume boundaries. That purity is what lets a resumed run
/// replay the exact failures the killed run would have seen.
class FailurePlan {
 public:
  explicit FailurePlan(const FailureConfig& config);

  ClientFate FateOf(int round, int client_id) const;

  /// Rounds of virtual lateness a straggler's update carries in the async
  /// runtime: an update trained at round r becomes deliverable at round
  /// r + StragglerDelay(r, c). Pure in (seed, round, client) like FateOf —
  /// both the server's admission bookkeeping and a test recomputing the
  /// expected stale-drop count see the same schedule. Range [1, 3]:
  /// always late by at least one round, never by more than the deepest
  /// bounded-staleness window the experiments exercise.
  int StragglerDelay(int round, int client_id) const;

 private:
  FailureConfig config_;
};

}  // namespace fedgta

#endif  // FEDGTA_FED_FAILURE_H_
