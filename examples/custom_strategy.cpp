// Example: implementing a custom federated optimization strategy against
// the public Strategy interface, and benchmarking it against the built-ins.
//
// The custom strategy here is "TrimmedFedAvg": a coordinate-wise trimmed
// mean that discards the most extreme client update per coordinate —
// a simple robust-aggregation baseline showing how little code a new
// strategy needs.

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"
#include "common/table.h"
#include "eval/experiment.h"

namespace {

using namespace fedgta;

/// Coordinate-wise trimmed-mean aggregation: drop the min and max client
/// value per coordinate (when there are enough participants), then average.
class TrimmedFedAvg : public Strategy {
 public:
  std::string_view name() const override { return "trimmed-fedavg"; }

  void Aggregate(const std::vector<int>& /*participants*/,
                 const std::vector<LocalResult>& results) override {
    if (results.empty()) return;
    const size_t dim = results.front().params.size();
    std::vector<float> column(results.size());
    for (size_t j = 0; j < dim; ++j) {
      for (size_t c = 0; c < results.size(); ++c) {
        column[c] = results[c].params[j];
      }
      std::sort(column.begin(), column.end());
      const size_t lo = results.size() > 2 ? 1 : 0;
      const size_t hi = results.size() > 2 ? column.size() - 1 : column.size();
      double sum = 0.0;
      for (size_t c = lo; c < hi; ++c) sum += column[c];
      global_model_[j] = static_cast<float>(sum / static_cast<double>(hi - lo));
    }
  }
};

}  // namespace

int main() {
  using namespace fedgta;

  // Assemble the federated dataset once and share it across strategies.
  Dataset dataset = MakeDatasetByName("citeseer", /*seed=*/7);
  SplitConfig split;
  split.method = SplitMethod::kLouvain;
  split.num_clients = 10;
  Rng rng(7);
  FederatedDataset fed = BuildFederatedDataset(std::move(dataset), split, rng);

  ModelConfig model;
  model.type = ModelType::kS2gc;
  model.k = 3;
  model.hidden = 64;

  SimulationConfig sim;
  sim.rounds = 40;
  sim.local_epochs = 3;
  sim.eval_every = 5;
  sim.seed = 7;

  TablePrinter table({"strategy", "test acc (%)"});
  auto run = [&](std::unique_ptr<Strategy> strategy) {
    const std::string name(strategy->name());
    Simulation simulation(&fed, model, OptimizerConfig{}, std::move(strategy),
                          sim);
    const SimulationResult result = simulation.Run();
    table.AddRow({name, StrFormat("%.1f", result.best_test_accuracy * 100.0)});
  };

  StrategyOptions options;
  run(std::move(*MakeStrategy("fedavg", options)));
  run(std::make_unique<TrimmedFedAvg>());
  run(std::move(*MakeStrategy("fedgta", options)));

  std::printf("Custom strategy vs built-ins on citeseer (10 clients):\n");
  table.Print();
  std::printf(
      "\nA new strategy only implements Aggregate() (and optionally\n"
      "TrainClient/ParamsFor for personalized or regularized variants).\n");
  return 0;
}
