#ifndef FEDGTA_EVAL_EXPERIMENT_H_
#define FEDGTA_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "data/registry.h"
#include "fed/simulation.h"
#include "linalg/ops.h"

namespace fedgta {

/// Everything needed to reproduce one (dataset, model, strategy) cell of a
/// paper table, with repeat handling.
struct ExperimentConfig {
  std::string dataset = "cora";
  ModelConfig model;
  OptimizerConfig optimizer;
  SplitConfig split;
  SimulationConfig sim;
  std::string strategy = "fedavg";
  StrategyOptions strategy_options;
  FederatedOptions federated_options;
  /// Independent repetitions (paper: 10); results report mean ± std.
  int repeats = 3;
  uint64_t seed = 42;
};

/// Aggregated outcome over repeats.
struct ExperimentResult {
  /// Test accuracy (%) at the best-validation round, mean ± std.
  MeanStd test_accuracy;
  /// Final-round test accuracy (%).
  MeanStd final_accuracy;
  /// Wall-clock means.
  double mean_client_seconds = 0.0;
  double mean_server_seconds = 0.0;
  double mean_setup_seconds = 0.0;
  /// Mean simulated communication volume per run, in MB (4 bytes/float).
  double mean_upload_mb = 0.0;
  double mean_download_mb = 0.0;
  /// Curve of the first repeat (rounds vs accuracy/time), for figures.
  std::vector<RoundStats> curve;
  /// Metrics-registry JSON snapshot taken at the end of the first repeat
  /// (SimulationResult::metrics_json): per-phase timers and per-round
  /// client/server second deltas for machine-readable perf breakdowns.
  std::string metrics_json;
};

/// Runs `config.repeats` federated simulations with distinct seeds (data
/// generation is re-seeded per repeat too, matching the paper's multi-run
/// protocol) and aggregates.
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// Centralized "Global" baseline (paper Table 3 first row): trains one
/// model on the whole graph for `epochs` epochs and reports test accuracy
/// (%) at the best validation epoch, mean ± std over repeats.
MeanStd RunCentralized(const std::string& dataset,
                       const ModelConfig& model_config,
                       const OptimizerConfig& opt_config, int epochs,
                       int repeats, uint64_t seed);

}  // namespace fedgta

#endif  // FEDGTA_EVAL_EXPERIMENT_H_
