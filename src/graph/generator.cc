#include "graph/generator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

namespace fedgta {
namespace {

// Sampler over a fixed set of items with given non-negative weights:
// O(log n) per draw via binary search on the cumulative sum.
class WeightedSampler {
 public:
  WeightedSampler(std::vector<int> items, const std::vector<double>& weights)
      : items_(std::move(items)) {
    FEDGTA_CHECK(!items_.empty());
    cumsum_.resize(items_.size());
    double acc = 0.0;
    for (size_t i = 0; i < items_.size(); ++i) {
      acc += weights[static_cast<size_t>(items_[i])];
      cumsum_[i] = acc;
    }
    FEDGTA_CHECK_GT(acc, 0.0);
  }

  int Sample(Rng& rng) const {
    const double r = rng.Uniform(0.0f, 1.0f) * cumsum_.back();
    const auto it = std::upper_bound(cumsum_.begin(), cumsum_.end(), r);
    const size_t idx = std::min(
        static_cast<size_t>(it - cumsum_.begin()), items_.size() - 1);
    return items_[idx];
  }

 private:
  std::vector<int> items_;
  std::vector<double> cumsum_;
};

}  // namespace

LabeledGraph GeneratePlantedPartition(const SbmConfig& config, Rng& rng) {
  FEDGTA_CHECK_GT(config.num_nodes, 0);
  FEDGTA_CHECK_GT(config.num_classes, 0);
  FEDGTA_CHECK_GE(config.num_classes, 1);
  FEDGTA_CHECK_GE(config.regions_per_class, 1);
  FEDGTA_CHECK_GE(config.homophily, 0.0);
  FEDGTA_CHECK_LE(config.homophily, 1.0);
  const int n = config.num_nodes;
  const int c = config.num_classes;

  // Class sizes: proportional to (rank+1)^{-imbalance}, apportioned largest
  // remainder first, with at least regions_per_class nodes per class.
  std::vector<double> class_weight(static_cast<size_t>(c));
  for (int y = 0; y < c; ++y) {
    class_weight[static_cast<size_t>(y)] =
        std::pow(static_cast<double>(y + 1), -config.class_imbalance);
  }
  const double weight_sum =
      std::accumulate(class_weight.begin(), class_weight.end(), 0.0);
  std::vector<int> class_size(static_cast<size_t>(c), 0);
  int assigned = 0;
  for (int y = 0; y < c; ++y) {
    class_size[static_cast<size_t>(y)] = std::max(
        config.regions_per_class,
        static_cast<int>(std::floor(n * class_weight[static_cast<size_t>(y)] /
                                    weight_sum)));
    assigned += class_size[static_cast<size_t>(y)];
  }
  // Adjust to exactly n nodes (trim from the largest / pad the smallest).
  while (assigned > n) {
    const auto it = std::max_element(class_size.begin(), class_size.end());
    FEDGTA_CHECK_GT(*it, config.regions_per_class)
        << "num_nodes too small for num_classes * regions_per_class";
    --*it;
    --assigned;
  }
  while (assigned < n) {
    ++*std::min_element(class_size.begin(), class_size.end());
    ++assigned;
  }

  // Assign labels and regions over contiguous index ranges.
  LabeledGraph out;
  out.num_classes = c;
  out.labels.resize(static_cast<size_t>(n));
  const int num_regions = c * config.regions_per_class;
  std::vector<int> region_of(static_cast<size_t>(n));
  {
    int next = 0;
    for (int y = 0; y < c; ++y) {
      const int size = class_size[static_cast<size_t>(y)];
      for (int i = 0; i < size; ++i) {
        out.labels[static_cast<size_t>(next + i)] = y;
        const int r = static_cast<int>(
            static_cast<int64_t>(i) * config.regions_per_class / size);
        region_of[static_cast<size_t>(next + i)] =
            y * config.regions_per_class + r;
      }
      next += size;
    }
    FEDGTA_CHECK_EQ(next, n);
  }

  // Per-node propensity (degree skew): w = u^{-skew} clipped.
  std::vector<double> propensity(static_cast<size_t>(n), 1.0);
  if (config.degree_skew > 0.0) {
    for (int v = 0; v < n; ++v) {
      const double u = std::max(1e-3f, rng.Uniform(0.0f, 1.0f));
      propensity[static_cast<size_t>(v)] =
          std::min(50.0, std::pow(u, -config.degree_skew));
    }
  }

  std::vector<std::vector<int>> region_nodes(static_cast<size_t>(num_regions));
  for (int v = 0; v < n; ++v) {
    region_nodes[static_cast<size_t>(region_of[static_cast<size_t>(v)])]
        .push_back(v);
  }

  std::vector<Edge> edges;
  const int64_t target_edges =
      static_cast<int64_t>(config.avg_degree * n / 2.0);
  edges.reserve(static_cast<size_t>(target_edges) + static_cast<size_t>(n));

  // Backbone: a random chain inside each region keeps regions connected so
  // community detection sees them as coherent blocks.
  for (auto& nodes : region_nodes) {
    std::vector<int> order = nodes;
    rng.Shuffle(order);
    for (size_t i = 1; i < order.size(); ++i) {
      edges.push_back({static_cast<NodeId>(order[i - 1]),
                       static_cast<NodeId>(order[i])});
    }
  }

  std::vector<int> all_nodes(static_cast<size_t>(n));
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  const WeightedSampler global_sampler(all_nodes, propensity);
  std::vector<WeightedSampler> region_samplers;
  region_samplers.reserve(static_cast<size_t>(num_regions));
  for (const auto& nodes : region_nodes) {
    region_samplers.emplace_back(nodes, propensity);
  }

  // The backbone chains are all within-region (same-class) edges, so the
  // within-region probability for the *sampled* edges is lowered to keep
  // the overall edge homophily close to config.homophily.
  const int64_t backbone = static_cast<int64_t>(edges.size());
  const double sampled = std::max<double>(1.0, static_cast<double>(target_edges - backbone));
  const double within_prob = std::clamp(
      (config.homophily * static_cast<double>(target_edges) -
       static_cast<double>(backbone)) /
          sampled,
      0.0, 1.0);
  // Districts: random groups of `district_regions` regions. Cross-class
  // edges prefer the district, making districts dense, detectable
  // communities with a biased (few-class) label mixture even when the
  // per-edge homophily is low.
  const int district_size = std::max(1, config.district_regions);
  std::vector<int> district_of_region(static_cast<size_t>(num_regions));
  {
    std::vector<int> order(static_cast<size_t>(num_regions));
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    for (int p = 0; p < num_regions; ++p) {
      district_of_region[static_cast<size_t>(order[static_cast<size_t>(p)])] =
          p / district_size;
    }
  }
  // Per-region sampler over the *other* regions of its district, so the
  // locality-biased edges are genuinely cross-class.
  std::vector<std::vector<int>> district_other_nodes(
      static_cast<size_t>(num_regions));
  for (int v = 0; v < n; ++v) {
    const int rv = region_of[static_cast<size_t>(v)];
    const int dv = district_of_region[static_cast<size_t>(rv)];
    for (int r = 0; r < num_regions; ++r) {
      if (r != rv && district_of_region[static_cast<size_t>(r)] == dv) {
        district_other_nodes[static_cast<size_t>(r)].push_back(v);
      }
    }
  }
  std::vector<std::unique_ptr<WeightedSampler>> district_samplers(
      static_cast<size_t>(num_regions));
  for (int r = 0; r < num_regions; ++r) {
    if (!district_other_nodes[static_cast<size_t>(r)].empty()) {
      district_samplers[static_cast<size_t>(r)] = std::make_unique<WeightedSampler>(
          district_other_nodes[static_cast<size_t>(r)], propensity);
    }
  }

  for (int64_t e = backbone; e < target_edges; ++e) {
    const int u = global_sampler.Sample(rng);
    const int region_u = region_of[static_cast<size_t>(u)];
    int v;
    if (rng.Bernoulli(within_prob)) {
      v = region_samplers[static_cast<size_t>(region_u)].Sample(rng);
    } else if (district_samplers[static_cast<size_t>(region_u)] != nullptr &&
               rng.Bernoulli(config.cross_locality)) {
      v = district_samplers[static_cast<size_t>(region_u)]->Sample(rng);
    } else {
      v = global_sampler.Sample(rng);
    }
    if (u == v) continue;
    edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
  }

  out.graph = Graph::FromEdges(n, edges);
  out.regions = std::move(region_of);
  out.num_regions = num_regions;
  return out;
}

Matrix GenerateFeatures(const std::vector<int>& labels, int num_classes,
                        const FeatureConfig& config, Rng& rng) {
  FEDGTA_CHECK_GT(num_classes, 0);
  FEDGTA_CHECK_GT(config.dim, 0);
  Matrix centers(num_classes, config.dim);
  centers.GaussianInit(rng, config.center_scale);
  Matrix features(static_cast<int64_t>(labels.size()), config.dim);
  for (size_t i = 0; i < labels.size(); ++i) {
    const int y = labels[i];
    FEDGTA_CHECK(y >= 0 && y < num_classes);
    auto row = features.Row(static_cast<int64_t>(i));
    const auto center = centers.Row(y);
    for (int d = 0; d < config.dim; ++d) {
      row[static_cast<size_t>(d)] =
          center[static_cast<size_t>(d)] + rng.Normal(0.0f, config.noise_scale);
    }
  }
  return features;
}

}  // namespace fedgta
