#include "eval/experiment.h"

#include "nn/loss.h"

namespace fedgta {

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  FEDGTA_CHECK_GE(config.repeats, 1);
  std::vector<double> best_accs;
  std::vector<double> final_accs;
  ExperimentResult result;

  for (int rep = 0; rep < config.repeats; ++rep) {
    const uint64_t seed = config.seed + static_cast<uint64_t>(rep) * 1000003u;
    Dataset dataset = MakeDatasetByName(config.dataset, seed);
    Rng split_rng(seed ^ 0x5714);
    FederatedDataset fed = BuildFederatedDataset(
        std::move(dataset), config.split, split_rng, config.federated_options);

    Result<std::unique_ptr<Strategy>> strategy =
        MakeStrategy(config.strategy, config.strategy_options);
    FEDGTA_CHECK(strategy.ok()) << strategy.status().ToString();

    SimulationConfig sim = config.sim;
    sim.seed = seed;
    // Each repeat checkpoints (and resumes) independently.
    if (!sim.checkpoint_dir.empty() && config.repeats > 1) {
      sim.checkpoint_dir += "/rep" + std::to_string(rep);
    }
    Simulation simulation(&fed, config.model, config.optimizer,
                          std::move(*strategy), sim);
    SimulationResult run = simulation.Run();

    best_accs.push_back(run.best_test_accuracy * 100.0);
    final_accs.push_back(run.final_test_accuracy * 100.0);
    result.mean_client_seconds += run.total_client_seconds;
    result.mean_server_seconds += run.total_server_seconds;
    result.mean_setup_seconds += run.setup_seconds;
    result.mean_upload_mb +=
        static_cast<double>(run.total_upload_floats) * 4.0 / (1024.0 * 1024.0);
    result.mean_download_mb += static_cast<double>(run.total_download_floats) *
                               4.0 / (1024.0 * 1024.0);
    if (rep == 0) {
      result.curve = std::move(run.curve);
      result.metrics_json = std::move(run.metrics_json);
    }
  }
  result.test_accuracy = ComputeMeanStd(best_accs);
  result.final_accuracy = ComputeMeanStd(final_accs);
  result.mean_client_seconds /= static_cast<double>(config.repeats);
  result.mean_server_seconds /= static_cast<double>(config.repeats);
  result.mean_setup_seconds /= static_cast<double>(config.repeats);
  result.mean_upload_mb /= static_cast<double>(config.repeats);
  result.mean_download_mb /= static_cast<double>(config.repeats);
  return result;
}

MeanStd RunCentralized(const std::string& dataset,
                       const ModelConfig& model_config,
                       const OptimizerConfig& opt_config, int epochs,
                       int repeats, uint64_t seed) {
  std::vector<double> accs;
  for (int rep = 0; rep < repeats; ++rep) {
    const uint64_t rep_seed = seed + static_cast<uint64_t>(rep) * 1000003u;
    Dataset ds = MakeDatasetByName(dataset, rep_seed);

    // Wrap the whole graph as a single "client" shard.
    ClientData shard;
    shard.client_id = 0;
    shard.num_classes = ds.num_classes;
    std::vector<NodeId> all(static_cast<size_t>(ds.graph.num_nodes()));
    for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
      all[static_cast<size_t>(v)] = v;
    }
    shard.sub.graph = ds.graph;
    shard.sub.global_ids = std::move(all);
    shard.features = ds.features;
    shard.labels = ds.labels;
    shard.train_idx = ds.train_idx;
    shard.val_idx = ds.val_idx;
    shard.test_idx = ds.test_idx;
    shard.train_graph = ds.graph;  // centralized: transductive view

    Client client(&shard, model_config, opt_config, rep_seed);
    double best_val = -1.0;
    double best_test = 0.0;
    const int eval_every = std::max(1, epochs / 50);
    for (int e = 0; e < epochs; ++e) {
      client.TrainLocal(1);
      if ((e + 1) % eval_every == 0 || e + 1 == epochs) {
        const Matrix logits = client.Predict();
        const double val = Accuracy(logits, shard.labels, shard.val_idx);
        if (val > best_val) {
          best_val = val;
          best_test = Accuracy(logits, shard.labels, shard.test_idx);
        }
      }
    }
    accs.push_back(best_test * 100.0);
  }
  return ComputeMeanStd(accs);
}

}  // namespace fedgta
