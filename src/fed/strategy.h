#ifndef FEDGTA_FED_STRATEGY_H_
#define FEDGTA_FED_STRATEGY_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.h"
#include "core/fedgta_metrics.h"
#include "fed/client.h"

namespace fedgta {

/// What a participant sends back to the server after local training.
struct LocalResult {
  int client_id = 0;
  std::vector<float> params;
  int64_t num_samples = 0;
  double loss = 0.0;
  /// FedGTA uploads (Algorithm 1 line 11); unused by other strategies.
  ClientMetrics metrics;
};

/// Tunables for all built-in strategies (only the relevant block applies).
struct StrategyOptions {
  /// FedProx: proximal coefficient μ.
  float prox_mu = 0.01f;
  /// MOON: contrastive weight μ and temperature τ.
  float moon_mu = 1.0f;
  float moon_tau = 0.5f;
  /// FedDC: drift penalty α.
  float feddc_alpha = 0.01f;
  /// Scaffold: control-variate update uses the optimizer lr; set here so the
  /// strategy need not query the optimizer.
  float scaffold_lr = 0.01f;
  /// GCFL+: gradient-sequence window and the mean/max norm thresholds that
  /// trigger cluster bipartition.
  int gcfl_window = 5;
  float gcfl_eps1 = 0.05f;
  float gcfl_eps2 = 0.10f;
  /// FedGTA hyperparameters (Eq. 3-7) and ablation switches.
  FedGtaOptions fedgta;
};

/// Static, per-strategy facts the distributed coordinator, wire protocol,
/// and workers need before any round runs. Collected in one struct so the
/// next strategy (or the next fact) is a field here, not a new virtual
/// threaded through remote_config.cc / remote_coordinator.cc /
/// remote_client_runner.cc.
struct StrategyCapabilities {
  /// TrainClient reduces to SetParams → TrainLocal (with hooks that are
  /// pure functions of the download) → upload, with every cross-round table
  /// living on the server — safe to run on a remote worker that holds
  /// nothing but the downloaded weights plus wire-shipped hyperparameters.
  bool remote_executable = false;
  /// TrainClient mutates per-client *server* state (Scaffold control
  /// variates, MOON snapshots, FedDC drift, GCFL+ gradient windows). The
  /// distributed coordinator rejects such strategies up front (see
  /// DESIGN.md §5e for the extension path).
  bool needs_server_state = true;
  /// Healthy uploads carry FedGTA's topology metrics — confidence H and
  /// moments M (Algorithm 1 line 11) — alongside the weights; remote
  /// workers must compute and ship them.
  bool uploads_topology_metrics = false;
  /// Aggregate tolerates the async runtime's admission set: a mix of fresh
  /// and bounded-stale updates whose confidence / data-size weights carry a
  /// staleness discount (DESIGN.md §5i). True for the strategies whose
  /// aggregation is a pure weighted reduction over the round's uploads;
  /// false for any strategy keyed to strict round alignment (control
  /// variates, drift windows), which the async mode rejects up front.
  bool async_capable = false;
  /// Aggregation decomposes over a contiguous client-id sharding: each
  /// regional aggregator can run the strategy's reduction over its own
  /// shard (plus, for FedGTA, the cross-shard Eq. 7 sets stitched through
  /// the root's routed envelopes) without any process holding the full
  /// participant set. The hierarchical root rejects non-shardable
  /// strategies up front (DESIGN.md §5k).
  bool shardable = false;
};

/// A federated optimization strategy: decides which weights each client
/// starts a round from, how local training is modified, and how uploads are
/// aggregated. Personalized strategies (FedGTA, GCFL+, local-only) serve
/// different weights per client; the rest serve one global model.
///
/// Thread-safety contract (see DESIGN.md "Execution engine"): the round
/// executor invokes TrainClient concurrently for distinct clients, so
/// TrainClient implementations may only (a) mutate the Client they were
/// handed and state slots indexed by that client's id (Scaffold control
/// variates, MOON snapshots, FedDC drift), and (b) read shared state that
/// is constant for the duration of the round (global_params_, server
/// control variates, FedGL pseudo-label targets). ParamsFor must be a
/// const read. Initialize and Aggregate are always called exclusively
/// (never concurrent with TrainClient) and may mutate anything.
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual std::string_view name() const = 0;

  /// Called once before round 1. `init_params` is the common initialization
  /// every client starts from.
  virtual void Initialize(int num_clients,
                          const std::vector<int64_t>& train_sizes,
                          const std::vector<float>& init_params);

  /// Weights client `client_id` trains from (and is evaluated with).
  virtual std::span<const float> ParamsFor(int client_id) const;
  /// An owned copy of ParamsFor(client_id): what a remote client downloads.
  std::vector<float> DownloadFor(int client_id) const {
    const std::span<const float> params = ParamsFor(client_id);
    return {params.begin(), params.end()};
  }

  /// Runs one round of local training on `client`: pushes ParamsFor,
  /// trains `epochs` epochs (with strategy-specific hooks merged over
  /// `extra_hooks`), and returns the upload.
  virtual LocalResult TrainClient(Client& client, int epochs,
                                  const TrainHooks& extra_hooks);

  /// Server aggregation at the end of a round.
  virtual void Aggregate(const std::vector<int>& participants,
                         const std::vector<LocalResult>& results) = 0;

  /// Floats moved over the (simulated) network this round. The default
  /// counts one weight vector down and one weight vector plus any uploaded
  /// metrics up, per participant. Strategies that ship extra state
  /// (Scaffold's control variates, FedDC's drift) override.
  struct CommunicationStats {
    int64_t upload_floats = 0;
    int64_t download_floats = 0;
  };
  virtual CommunicationStats RoundCommunication(
      const std::vector<LocalResult>& results) const;

  /// Static facts about this strategy (see StrategyCapabilities). The
  /// conservative default — server-bound, not remote-executable — is
  /// correct for any strategy that doesn't explicitly opt in.
  virtual StrategyCapabilities Capabilities() const { return {}; }

  /// Checkpoint contract (see DESIGN.md "Fault tolerance"): SaveState
  /// serializes every field the strategy carries across rounds — for
  /// personalized strategies that includes all per-client server state
  /// (FedGTA's personalized models and H/M uploads, Scaffold's control
  /// variates, MOON snapshots, FedDC drift, GCFL+ clusters). LoadState is
  /// called on a freshly Initialize()d instance of the same strategy over
  /// the same federation; it validates the stream against the live shape
  /// (strategy name, client count, parameter count) and returns an error
  /// Status on mismatch — it must never abort or partially apply.
  /// Overrides call the base implementation first, mirroring the write
  /// order of SaveState.
  virtual void SaveState(serialize::Writer* writer) const;
  virtual Status LoadState(serialize::Reader* reader);

 protected:
  /// Shared encoding for per-client weight tables (count + each vector).
  static void SaveFloatVecs(const std::vector<std::vector<float>>& vecs,
                            serialize::Writer* writer);
  static Status LoadFloatVecs(serialize::Reader* reader,
                              std::vector<std::vector<float>>* vecs);
  /// FedAvg-style weighted average of `results` into `out`.
  static void WeightedAverage(const std::vector<LocalResult>& results,
                              std::vector<float>* out);

  int num_clients_ = 0;
  std::vector<int64_t> train_sizes_;
  std::vector<float> global_params_;
};

/// FedAvg (McMahan et al. 2017), Eq. (2): data-size-weighted global average.
class FedAvgStrategy : public Strategy {
 public:
  std::string_view name() const override { return "fedavg"; }
  void Aggregate(const std::vector<int>& participants,
                 const std::vector<LocalResult>& results) override;
  StrategyCapabilities Capabilities() const override {
    return {.remote_executable = true, .needs_server_state = false,
            .async_capable = true, .shardable = true};
  }
};

/// No-communication baseline ("Local" in Fig. 1b): every client keeps its
/// own weights forever.
class LocalOnlyStrategy : public Strategy {
 public:
  std::string_view name() const override { return "local"; }
  void Initialize(int num_clients, const std::vector<int64_t>& train_sizes,
                  const std::vector<float>& init_params) override;
  std::span<const float> ParamsFor(int client_id) const override;
  void Aggregate(const std::vector<int>& participants,
                 const std::vector<LocalResult>& results) override;
  StrategyCapabilities Capabilities() const override {
    return {.remote_executable = true, .needs_server_state = false,
            .async_capable = true};
  }
  void SaveState(serialize::Writer* writer) const override;
  Status LoadState(serialize::Reader* reader) override;

 private:
  std::vector<std::vector<float>> personal_;
};

/// All built-in strategy names (the paper's comparison set).
std::vector<std::string> ListStrategies();

/// Factory: "fedavg", "fedprox", "scaffold", "moon", "feddc", "gcfl+",
/// "fedgta", "local".
Result<std::unique_ptr<Strategy>> MakeStrategy(const std::string& name,
                                               const StrategyOptions& options);

}  // namespace fedgta

#endif  // FEDGTA_FED_STRATEGY_H_
