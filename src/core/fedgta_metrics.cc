#include "core/fedgta_metrics.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "core/label_propagation.h"
#include "core/moments.h"
#include "core/similarity.h"
#include "core/smoothing_confidence.h"
#include "graph/normalized_adjacency.h"
#include "linalg/ops.h"
#include "obs/metrics.h"

namespace fedgta {

namespace {

void NormalizeL2(std::vector<float>& v) {
  const double norm = L2Norm(v);
  if (norm > 0.0) {
    for (float& x : v) x = static_cast<float>(x / norm);
  }
}

// The L2-normalized FedGTA+feat moment block (paper §5): moments of the
// k-step propagated node features, first d dimensions.
std::vector<float> PropagatedFeatureMoments(const CsrMatrix& op,
                                            const Matrix& features,
                                            const FedGtaOptions& options) {
  const int64_t d =
      std::min<int64_t>(options.feature_moment_dims, features.cols());
  Matrix truncated(features.rows(), d);
  for (int64_t i = 0; i < features.rows(); ++i) {
    const auto src = features.Row(i);
    std::copy(src.begin(), src.begin() + d, truncated.Row(i).begin());
  }
  const std::vector<Matrix> feature_hops =
      NonParamLabelPropagation(op, truncated, options.alpha, options.k);
  std::vector<float> feature_moments =
      MixedMoments(feature_hops, options.moment_order);
  NormalizeL2(feature_moments);
  return feature_moments;
}

// FNV-1a over the members of a canonical (sorted) aggregation set, for the
// Eq. (7) dedup map.
struct SetHash {
  size_t operator()(const std::vector<int>& v) const {
    uint64_t h = 1469598103934665603ull;
    for (int x : v) {
      h ^= static_cast<uint32_t>(x);
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace

ClientMetrics ComputeClientMetrics(const Graph& graph, const Matrix& logits,
                                   const FedGtaOptions& options,
                                   const Matrix* features,
                                   ClientMetricsCache* cache) {
  FEDGTA_CHECK_EQ(static_cast<int64_t>(graph.num_nodes()), logits.rows());
  const bool want_feature_moments =
      options.use_feature_moments && features != nullptr;
  if (want_feature_moments) {
    FEDGTA_CHECK_EQ(features->rows(), logits.rows());
  }

  // (Re)fill the round-invariant cache when absent or built under different
  // option fields. With no caller-provided cache, `local` plays the role for
  // this one call.
  ClientMetricsCache local;
  ClientMetricsCache* c = cache != nullptr ? cache : &local;
  const bool stale = !c->ready || c->alpha != options.alpha ||
                     c->k != options.k ||
                     c->moment_order != options.moment_order ||
                     c->use_feature_moments != want_feature_moments ||
                     c->feature_moment_dims != options.feature_moment_dims;
  if (stale) {
    c->op = LabelPropagationOperator(graph);
    c->degrees = SelfLoopDegrees(graph);
    c->feature_moments =
        want_feature_moments
            ? PropagatedFeatureMoments(c->op, *features, options)
            : std::vector<float>();
    c->alpha = options.alpha;
    c->k = options.k;
    c->moment_order = options.moment_order;
    c->use_feature_moments = want_feature_moments;
    c->feature_moment_dims = options.feature_moment_dims;
    c->ready = true;
  }

  Matrix y0 = logits;
  RowSoftmaxInPlace(&y0);
  const std::vector<Matrix> hops =
      NonParamLabelPropagation(c->op, y0, options.alpha, options.k);

  ClientMetrics metrics;
  metrics.confidence = SmoothingConfidence(hops.back(), c->degrees);
  metrics.moments = MixedMoments(hops, options.moment_order);

  // FedGTA+feat extension (paper §5): append the cached propagated-feature
  // block, L2-normalizing both blocks so they contribute comparably to the
  // cosine.
  if (want_feature_moments) {
    NormalizeL2(metrics.moments);
    metrics.moments.insert(metrics.moments.end(), c->feature_moments.begin(),
                           c->feature_moments.end());
  }
  return metrics;
}

std::vector<AggregationGroup> GroupByAggregationSet(
    RowTable moments, const std::vector<int>& participants,
    const FedGtaOptions& options, std::vector<std::vector<int>>* sets_out) {
  // Eq. (6): aggregation sets from moment similarity.
  std::vector<std::vector<int>> sets;
  if (options.disable_moments) {
    sets.assign(moments.size(), {});
    for (int i : participants) {
      sets[static_cast<size_t>(i)] = participants;
    }
  } else if (options.adaptive_epsilon) {
    // Adaptive-ε extension: threshold at the round's similarity quantile
    // so the set sizes track the actual client heterogeneity. The quantile
    // needs every pairwise value, so this path computes the full exact
    // block once and derives both the threshold and the sets from it.
    const SimilarityBlock block = ComputeSimilarityBlock(moments, participants);
    const double epsilon = SimilarityQuantile(block, options.adaptive_quantile);
    sets = SetsFromSimilarityBlock(block, static_cast<int>(moments.size()),
                                   epsilon);
  } else {
    sets = BuildAggregationSets(moments, participants, options.epsilon,
                                options.similarity);
  }

  // Clients whose aggregation sets contain the same members get the same
  // personalized weights, so group participants by canonical (sorted) set
  // membership; Eq. (7) then runs once per group. The canonical sets and
  // their hashes are built on the pool; only the first-appearance insert
  // is serial, keyed by participant position.
  const int64_t p = static_cast<int64_t>(participants.size());
  std::vector<std::vector<int>> canonical(static_cast<size_t>(p));
  std::vector<size_t> hash(static_cast<size_t>(p));
  ParallelForChunked(0, p, [&](int64_t lo, int64_t hi) {
    for (int64_t a = lo; a < hi; ++a) {
      const auto& set =
          sets[static_cast<size_t>(participants[static_cast<size_t>(a)])];
      FEDGTA_CHECK(!set.empty());
      std::vector<int>& c = canonical[static_cast<size_t>(a)];
      c = set;
      std::sort(c.begin(), c.end());
      hash[static_cast<size_t>(a)] = SetHash()(c);
    }
  });
  const auto position_hash = [&](int64_t a) {
    return hash[static_cast<size_t>(a)];
  };
  const auto same_set = [&](int64_t a, int64_t b) {
    return canonical[static_cast<size_t>(a)] ==
           canonical[static_cast<size_t>(b)];
  };
  std::unordered_map<int64_t, size_t, decltype(position_hash),
                     decltype(same_set)>
      index(static_cast<size_t>(p), position_hash, same_set);
  std::vector<AggregationGroup> groups;
  std::vector<int64_t> first;  // position that opened each group
  for (int64_t a = 0; a < p; ++a) {
    const auto [it, inserted] = index.try_emplace(a, groups.size());
    if (inserted) {
      groups.emplace_back();
      first.push_back(a);
    }
    groups[it->second].clients.push_back(
        participants[static_cast<size_t>(a)]);
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    groups[g].canonical =
        std::move(canonical[static_cast<size_t>(first[g])]);
  }
  MetricsRegistry& obs = GlobalMetrics();
  obs.GetCounter("fedgta.aggregation.unique_sets")
      .Increment(static_cast<int64_t>(groups.size()));
  const int64_t reused = p - static_cast<int64_t>(groups.size());
  if (reused > 0) {
    obs.GetCounter("fedgta.aggregation.dedup_reused").Increment(reused);
  }
  if (sets_out != nullptr) *sets_out = std::move(sets);
  return groups;
}

void FedGtaAggregate(RowTable params, RowTable moments,
                     std::span<const double> confidences,
                     const std::vector<int64_t>& train_sizes,
                     const std::vector<int>& participants,
                     const FedGtaOptions& options,
                     std::vector<std::vector<float>>* personalized,
                     std::vector<std::vector<int>>* aggregation_sets_out) {
  FEDGTA_CHECK(personalized != nullptr);
  FEDGTA_CHECK_EQ(params.size(), moments.size());
  FEDGTA_CHECK_EQ(params.size(), confidences.size());
  FEDGTA_CHECK_EQ(params.size(), train_sizes.size());
  FEDGTA_CHECK_EQ(params.size(), personalized->size());

  const std::vector<AggregationGroup> groups = GroupByAggregationSet(
      moments, participants, options, aggregation_sets_out);

  // Eq. (7): confidence-weighted aggregation within each set. Accumulation
  // runs in canonical member order — fixed by the set contents, not by
  // which client asked — so the result is identical for every group member
  // and invariant to the thread count (groups write disjoint
  // `personalized` entries). Groups are visited in order of their
  // canonical sets, so consecutive groups share members and find their
  // parameter rows still in cache; the visit order changes no float.
  const auto weight = [&](int j) {
    return options.disable_confidence
               ? static_cast<double>(std::max<int64_t>(
                     1, train_sizes[static_cast<size_t>(j)]))
               : confidences[static_cast<size_t>(j)];
  };
  std::vector<size_t> order(groups.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return groups[x].canonical < groups[y].canonical;
  });
  ParallelForChunked(
      0, static_cast<int64_t>(groups.size()),
      [&](int64_t lo, int64_t hi) {
        for (int64_t g = lo; g < hi; ++g) {
          const AggregationGroup& group = groups[order[static_cast<size_t>(g)]];
          const std::vector<int>& set = group.canonical;
          double weight_sum = 0.0;
          for (int j : set) weight_sum += weight(j);
          // Accumulate straight into the first receiver's entry, whose
          // buffer is reused round to round.
          std::vector<float>& out =
              (*personalized)[static_cast<size_t>(group.clients.front())];
          out.assign(params[static_cast<size_t>(set.front())].size(), 0.0f);
          for (int j : set) {
            const float w = weight_sum > 0.0
                                ? static_cast<float>(weight(j) / weight_sum)
                                : 1.0f / static_cast<float>(set.size());
            Axpy(w, params[static_cast<size_t>(j)], out);
          }
          for (size_t c = 1; c < group.clients.size(); ++c) {
            (*personalized)[static_cast<size_t>(group.clients[c])] = out;
          }
        }
      },
      /*min_chunk=*/1);
}

void FedGtaAggregate(const std::vector<ClientMetrics>& metrics,
                     const std::vector<std::vector<float>>& params,
                     const std::vector<int64_t>& train_sizes,
                     const std::vector<int>& participants,
                     const FedGtaOptions& options,
                     std::vector<std::vector<float>>* personalized,
                     std::vector<std::vector<int>>* aggregation_sets_out) {
  std::vector<std::span<const float>> moments(metrics.size());
  std::vector<double> confidences(metrics.size());
  for (size_t i = 0; i < metrics.size(); ++i) {
    moments[i] = metrics[i].moments;
    confidences[i] = metrics[i].confidence;
  }
  FedGtaAggregate(params, moments, confidences, train_sizes, participants,
                  options, personalized, aggregation_sets_out);
}

}  // namespace fedgta
