#ifndef FEDGTA_FED_SHARD_PLANE_H_
#define FEDGTA_FED_SHARD_PLANE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fed/role.h"

namespace fedgta {
namespace fed {

/// One survivor's round upload as staged on its shard.
struct ShardUpload {
  int client_id = 0;
  std::vector<float> params;
  double confidence = 0.0;
};

/// Shard-local half of the hierarchical Eq. 7 (DESIGN.md §5k): the
/// regional aggregator stages its shard's survivor weights here, while the
/// root builds the round's Eq. 6 sets from the shipped moment rows. A set
/// wholly inside the shard is aggregated here in full; a set that crosses
/// a shard boundary is accumulated by AccumulatePartial, chained across the
/// shards in ascending shard order (the shards are contiguous in client
/// id). Both replay the single-server ascending-member float-addition
/// sequence bit for bit, which is what the hierarchy's bit-identity
/// contract rests on.
///
/// Nothing here talks to the network; the aggregator (and the sharded
/// bench arm, in-process) feed it.
class ShardPlane {
 public:
  /// `train_sizes` covers all clients (the aggregator materializes the full
  /// dataset recipe); Eq. 7 reads it under disable_confidence.
  ShardPlane(ShardRange shard, bool disable_confidence,
             std::vector<int64_t> train_sizes);

  /// Stages one round's surviving uploads (ascending client id, all within
  /// the shard), replacing the previous round's.
  void StageRound(std::vector<ShardUpload> uploads);
  /// Staged survivor ids, ascending.
  const std::vector<int>& staged() const { return staged_; }
  bool IsStaged(int id) const { return row_of_.count(id) > 0; }

  /// Eq. 7 weight of a staged survivor (confidence, or the train-size
  /// fallback under disable_confidence).
  double MemberWeight(int id) const;

  /// Full Eq. 7 for a canonical set whose members are all staged here.
  std::vector<float> AggregateLocalSet(const std::vector<int>& canonical) const;

  /// Chained Eq. 7 partial: Axpy this shard's staged members of `canonical`
  /// onto *acc (pre-sized to the param count) in ascending id order, with
  /// w = weight / weight_sum (weight_sum <= 0 falls back to 1/|set|).
  /// Visiting shards in ascending shard order replays the single-server
  /// accumulation sequence exactly.
  void AccumulatePartial(const std::vector<int>& canonical, double weight_sum,
                         std::vector<float>* acc) const;

  const ShardRange& shard() const { return shard_; }

 private:
  /// Staged row of `id`; aborts if it is not staged here.
  size_t RowOf(int id) const;

  ShardRange shard_;
  bool disable_confidence_;
  std::vector<int64_t> train_sizes_;

  // --- per-round state ---
  std::vector<int> staged_;
  std::vector<std::vector<float>> params_;  // aligned with staged_
  std::vector<double> confidences_;         // aligned with staged_
  std::unordered_map<int, int> row_of_;     // client id -> staged row
};

}  // namespace fed
}  // namespace fedgta

#endif  // FEDGTA_FED_SHARD_PLANE_H_
