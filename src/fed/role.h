#ifndef FEDGTA_FED_ROLE_H_
#define FEDGTA_FED_ROLE_H_

#include <algorithm>

#include "common/check.h"

namespace fedgta {
namespace fed {

/// The three process kinds of a FedGTA federation (DESIGN.md §5k):
///
///                        root  (fedgta_server)
///                       /    \
///             aggregator 0    aggregator 1      (fedgta_aggregator)
///              /   \            /    \
///         worker  worker    worker  worker      (fedgta_worker)
///
/// The flat deployment of PR 4 is the degenerate topology with zero
/// aggregators: the root speaks the worker protocol directly. With
/// aggregators, the root speaks only v5 routed envelopes to its
/// aggregators, and each aggregator speaks the unchanged worker protocol
/// downward — a worker cannot tell which deployment it is part of.
enum class Role {
  kRoot,
  kAggregator,
  kWorker,
};

/// Half-open contiguous id range [begin, end).
struct ShardRange {
  int begin = 0;
  int end = 0;
  int size() const { return end - begin; }
  bool contains(int id) const { return id >= begin && id < end; }
};

/// Deterministic contiguous-block layout of clients and workers over the
/// aggregator tier. Both the root and every aggregator compute the same
/// layout from (num_clients, num_aggregators, num_workers) alone — no
/// assignment tables ever ship. Contiguity is what makes the hierarchical
/// plane bit-identical to the single-server one: ascending client order
/// equals shard-major order, so every ordered reduction (survivor lists,
/// Eq. 7 canonical sets, eval weighting) can be replayed shard by shard
/// without reordering floats.
class Topology {
 public:
  Topology(int num_clients, int num_aggregators, int num_workers)
      : num_clients_(num_clients),
        num_aggregators_(num_aggregators),
        num_workers_(num_workers) {
    FEDGTA_CHECK_GE(num_aggregators, 0);
    FEDGTA_CHECK_GE(num_workers, 1);
    FEDGTA_CHECK_GE(num_clients, 1);
  }

  int num_clients() const { return num_clients_; }
  int num_aggregators() const { return num_aggregators_; }
  int num_workers() const { return num_workers_; }
  bool hierarchical() const { return num_aggregators_ > 0; }

  /// Clients owned by aggregator `agg`: blocks of n/K, the remainder
  /// spread one-each over the lowest-indexed shards.
  ShardRange ClientShard(int agg) const {
    return Blocks(num_clients_, num_aggregators_, agg);
  }
  /// Workers attached to aggregator `agg`, by global worker index, split
  /// by the same block rule.
  ShardRange WorkerShard(int agg) const {
    return Blocks(num_workers_, num_aggregators_, agg);
  }
  int AggregatorOf(int client_id) const {
    FEDGTA_CHECK_GE(client_id, 0);
    FEDGTA_CHECK_LT(client_id, num_clients_);
    const int q = num_clients_ / num_aggregators_;
    const int r = num_clients_ % num_aggregators_;
    // The first r shards have q+1 clients.
    const int fat = r * (q + 1);
    if (client_id < fat) return client_id / (q + 1);
    return r + (client_id - fat) / q;
  }

 private:
  static ShardRange Blocks(int total, int parts, int index) {
    FEDGTA_CHECK_GT(parts, 0);
    FEDGTA_CHECK_GE(index, 0);
    FEDGTA_CHECK_LT(index, parts);
    const int q = total / parts;
    const int r = total % parts;
    ShardRange range;
    range.begin = index * q + std::min(index, r);
    range.end = range.begin + q + (index < r ? 1 : 0);
    return range;
  }

  int num_clients_;
  int num_aggregators_;
  int num_workers_;
};

}  // namespace fed
}  // namespace fedgta

#endif  // FEDGTA_FED_ROLE_H_
