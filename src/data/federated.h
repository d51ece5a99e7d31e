#ifndef FEDGTA_DATA_FEDERATED_H_
#define FEDGTA_DATA_FEDERATED_H_

#include <vector>

#include "data/dataset.h"
#include "graph/subgraph.h"
#include "partition/splitter.h"

namespace fedgta {

/// One client's local shard of a federated dataset. All node indices are
/// local to `sub.graph`; `sub.global_ids` maps back to the global graph.
struct ClientData {
  int client_id = 0;
  Subgraph sub;
  Matrix features;
  std::vector<int> labels;
  int num_classes = 0;
  std::vector<int32_t> train_idx;
  std::vector<int32_t> val_idx;
  std::vector<int32_t> test_idx;
  /// Training-view graph. Equals sub.graph for transductive datasets; for
  /// inductive datasets, edges incident to local test nodes are removed
  /// (node set unchanged) so test nodes never influence training-time
  /// propagation.
  Graph train_graph;
  /// Local indices of nodes replicated from other clients (FedGL overlap
  /// mechanism); they carry features but no supervision. Empty by default.
  std::vector<int32_t> overlap_idx;

  int64_t num_nodes() const { return sub.graph.num_nodes(); }
  int64_t num_train() const { return static_cast<int64_t>(train_idx.size()); }
};

/// Extra knobs for federated dataset assembly.
struct FederatedOptions {
  /// Fraction of each client's nodes additionally replicated to one other
  /// client, creating the cross-client overlapping nodes FedGL relies on.
  /// 0 disables replication.
  double overlap_fraction = 0.0;
};

/// A dataset divided across clients.
struct FederatedDataset {
  Dataset global;
  SplitConfig split;
  std::vector<ClientData> clients;

  int num_clients() const { return static_cast<int>(clients.size()); }
  /// Sum of local test set sizes (the denominator of federated accuracy).
  int64_t total_test() const;
  int64_t total_train() const;
  /// Per-client training-set sizes, client order (strategy and Eq. 7
  /// fallback weights).
  std::vector<int64_t> train_sizes() const;
};

/// Splits `dataset` across `split.num_clients` clients with the requested
/// method and materializes each client's local shard (subgraph, features,
/// labels, masks, training-view graph).
FederatedDataset BuildFederatedDataset(Dataset dataset,
                                       const SplitConfig& split, Rng& rng,
                                       const FederatedOptions& options = {});

}  // namespace fedgta

#endif  // FEDGTA_DATA_FEDERATED_H_
