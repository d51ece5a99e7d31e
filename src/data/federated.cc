#include "data/federated.h"

#include <algorithm>
#include <unordered_set>

namespace fedgta {
namespace {

// Builds the training-view graph for an inductive client: same node set,
// but every edge touching a test node is dropped.
Graph BuildTrainGraph(const Graph& graph,
                      const std::vector<int32_t>& test_idx) {
  std::unordered_set<int32_t> test_set(test_idx.begin(), test_idx.end());
  std::vector<Edge> kept;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    if (test_set.count(u)) continue;
    for (NodeId v : graph.Neighbors(u)) {
      if (v <= u) continue;
      if (test_set.count(v)) continue;
      kept.push_back({u, v});
    }
  }
  return Graph::FromEdges(graph.num_nodes(), kept);
}

}  // namespace

int64_t FederatedDataset::total_test() const {
  int64_t total = 0;
  for (const ClientData& c : clients) {
    total += static_cast<int64_t>(c.test_idx.size());
  }
  return total;
}

int64_t FederatedDataset::total_train() const {
  int64_t total = 0;
  for (const ClientData& c : clients) total += c.num_train();
  return total;
}

std::vector<int64_t> FederatedDataset::train_sizes() const {
  std::vector<int64_t> sizes;
  sizes.reserve(clients.size());
  for (const ClientData& c : clients) sizes.push_back(c.num_train());
  return sizes;
}

FederatedDataset BuildFederatedDataset(Dataset dataset,
                                       const SplitConfig& split, Rng& rng,
                                       const FederatedOptions& options) {
  FederatedDataset fed;
  fed.split = split;

  std::vector<std::vector<NodeId>> assignment =
      FederatedSplit(dataset.graph, split, rng);

  // Optional cross-client node replication (FedGL overlap): a sample of
  // each client's nodes is appended to the next client's node list.
  std::vector<std::vector<NodeId>> extra(assignment.size());
  if (options.overlap_fraction > 0.0 && assignment.size() > 1) {
    for (size_t c = 0; c < assignment.size(); ++c) {
      const auto& own = assignment[c];
      const int count = std::max(
          1, static_cast<int>(options.overlap_fraction *
                              static_cast<double>(own.size())));
      std::vector<int> picks = rng.SampleWithoutReplacement(
          static_cast<int>(own.size()), std::min<int>(count, static_cast<int>(own.size())));
      auto& dst = extra[(c + 1) % assignment.size()];
      for (int p : picks) dst.push_back(own[static_cast<size_t>(p)]);
    }
  }

  // Per-node global split membership for carving local masks.
  enum class Role : uint8_t { kTrain, kVal, kTest, kNone };
  std::vector<Role> role(static_cast<size_t>(dataset.graph.num_nodes()),
                         Role::kNone);
  for (int32_t i : dataset.train_idx) role[static_cast<size_t>(i)] = Role::kTrain;
  for (int32_t i : dataset.val_idx) role[static_cast<size_t>(i)] = Role::kVal;
  for (int32_t i : dataset.test_idx) role[static_cast<size_t>(i)] = Role::kTest;

  fed.clients.reserve(assignment.size());
  for (size_t c = 0; c < assignment.size(); ++c) {
    std::vector<NodeId> nodes = assignment[c];
    const size_t own_count = nodes.size();
    nodes.insert(nodes.end(), extra[c].begin(), extra[c].end());

    ClientData client;
    client.client_id = static_cast<int>(c);
    client.num_classes = dataset.num_classes;
    client.sub = InduceSubgraph(dataset.graph, nodes);
    const int64_t n_local = client.sub.graph.num_nodes();
    client.features.ResizeDiscard(n_local, dataset.features.cols());
    client.labels.resize(static_cast<size_t>(n_local));
    for (int64_t i = 0; i < n_local; ++i) {
      const NodeId g = client.sub.global_ids[static_cast<size_t>(i)];
      std::copy(dataset.features.Row(g).begin(), dataset.features.Row(g).end(),
                client.features.Row(i).begin());
      client.labels[static_cast<size_t>(i)] = dataset.labels[static_cast<size_t>(g)];
    }
    for (int64_t i = 0; i < n_local; ++i) {
      if (static_cast<size_t>(i) >= own_count) {
        // Replicated overlap node: features only, no supervision.
        client.overlap_idx.push_back(static_cast<int32_t>(i));
        continue;
      }
      const NodeId g = client.sub.global_ids[static_cast<size_t>(i)];
      switch (role[static_cast<size_t>(g)]) {
        case Role::kTrain:
          client.train_idx.push_back(static_cast<int32_t>(i));
          break;
        case Role::kVal:
          client.val_idx.push_back(static_cast<int32_t>(i));
          break;
        case Role::kTest:
          client.test_idx.push_back(static_cast<int32_t>(i));
          break;
        case Role::kNone:
          break;
      }
    }
    client.train_graph = dataset.inductive
                             ? BuildTrainGraph(client.sub.graph, client.test_idx)
                             : client.sub.graph;
    fed.clients.push_back(std::move(client));
  }
  fed.global = std::move(dataset);
  return fed;
}

}  // namespace fedgta
