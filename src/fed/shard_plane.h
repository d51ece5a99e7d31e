#ifndef FEDGTA_FED_SHARD_PLANE_H_
#define FEDGTA_FED_SHARD_PLANE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/fedgta_metrics.h"
#include "core/similarity.h"
#include "fed/role.h"
#include "linalg/matrix.h"

namespace fedgta {
namespace fed {

/// One survivor's round upload as staged on its shard.
struct ShardUpload {
  int client_id = 0;
  std::vector<float> params;
  std::vector<float> moments;
  double confidence = 0.0;
};

/// Shard-local half of the FedGTA Eq. 6/7 plane (DESIGN.md §5k): the
/// regional aggregator stages its shard's uploads here and the class
/// reproduces, for the shard's rows, exactly the arithmetic the
/// single-server plane would run over the full participant set —
/// per-row moment normalization, per-row LSH signatures, the shared
/// Hamming prescreen (LshScreen) against the *global* survivor frame, the
/// shared 1-row exact GEMM admission (AdmitByCosine) in global candidate
/// order, and ascending-member Eq. 7 accumulation. Chained across shards
/// in ascending shard order (the shards are contiguous in client id), the
/// partial accumulations replay the single-server float-addition sequence
/// bit for bit, which is what the hierarchy's bit-identity contract rests
/// on.
///
/// Nothing here talks to the network; the aggregator (and the sharded
/// bench arm, in-process) drive the exchange and feed the results back in.
class ShardPlane {
 public:
  /// `train_sizes` covers all clients (the aggregator materializes the full
  /// dataset recipe, so cross-shard Eq. 7 train-size weights need no RPC).
  ShardPlane(int num_clients, ShardRange shard, const FedGtaOptions& options,
             std::vector<int64_t> train_sizes);

  /// Stages one round's surviving uploads (ascending client id, all within
  /// the shard). Clears any previous round's frame.
  void StageRound(std::vector<ShardUpload> uploads);
  /// Staged survivor ids, ascending.
  const std::vector<int>& staged() const { return staged_; }

  /// Packed sign-random-projection signatures of the staged rows,
  /// row-major `staged().size() x LshShapeFor(...).words`. A shard slice of
  /// the signatures the whole fleet would compute (per-row hashing).
  std::vector<uint64_t> Signatures() const;

  /// Installs the round's global survivor frame: every shard's survivors
  /// (ascending client id = ascending shard), their confidences (aligned),
  /// and the concatenated signatures (survivor-major; empty in exact mode).
  void InstallGlobalFrame(std::vector<int> global_survivors,
                          std::vector<double> confidences,
                          std::vector<uint64_t> signatures);

  struct Candidates {
    /// Per staged row: global survivor ids passing the prescreen, ascending
    /// (the exact path admits every other survivor). Same candidate order
    /// as the single-server sweep sees for that row.
    std::vector<std::vector<int>> per_row;
    /// Ascending ids outside this shard whose normalized rows admission
    /// needs (the MomentFetch want-list).
    std::vector<int> remote_wanted;
    int64_t pairs_exact = 0;
    int64_t pairs_pruned = 0;
  };
  /// Candidate generation against the installed global frame. `use_lsh` is
  /// decided by the root from the *global* survivor count (kAuto switches
  /// on the fleet-wide round size, not the shard's slice).
  Candidates ComputeCandidates(bool use_lsh) const;

  /// Normalized moment rows of the requested staged ids (MomentBlock
  /// replies to other shards).
  std::vector<std::vector<float>> ExportRows(const std::vector<int>& ids) const;
  /// Installs fetched remote normalized rows (aligned with `ids`).
  void InstallRemoteRows(const std::vector<int>& ids,
                         std::vector<std::vector<float>> rows);

  /// Eq. 6 admission: per staged row, the aggregation set — the row's own
  /// id followed by every candidate whose exact cosine reaches ε, in
  /// candidate order. Remote candidates must have been installed.
  std::vector<std::vector<int>> BuildSets(const Candidates& candidates) const;

  /// Eq. 7 weight of one survivor (confidence, or the train-size fallback
  /// under disable_confidence). Cross-shard ids need the installed frame.
  double MemberWeight(int id) const;
  /// Double-accumulated member-weight sum in canonical (ascending) order —
  /// the same arithmetic stream the single-server group loop runs.
  double WeightSum(const std::vector<int>& canonical) const;

  /// Full Eq. 7 for a set whose members all live on this shard.
  std::vector<float> AggregateLocalSet(const std::vector<int>& canonical) const;

  /// Chained Eq. 7 partial: Axpy this shard's staged members of `canonical`
  /// onto *acc (pre-sized to the param count) in ascending id order, with
  /// w = weight / weight_sum (weight_sum <= 0 falls back to 1/|set|).
  /// Visiting shards in ascending shard order replays the single-server
  /// accumulation sequence exactly.
  void AccumulatePartial(const std::vector<int>& canonical, double weight_sum,
                         std::vector<float>* acc) const;

  /// Staged params of a local survivor.
  const std::vector<float>& ParamsOf(int id) const;
  const ShardRange& shard() const { return shard_; }
  const FedGtaOptions& options() const { return options_; }

 private:
  /// Normalized row of any global survivor (staged local or installed
  /// remote); aborts if admission needs a row nobody shipped.
  const float* RowOf(int id) const;

  int num_clients_;
  ShardRange shard_;
  FedGtaOptions options_;
  std::vector<int64_t> train_sizes_;

  // --- per-round state ---
  std::vector<int> staged_;
  std::vector<std::vector<float>> params_;  // aligned with staged_
  Matrix normalized_;                       // staged_ x moment dim
  std::unordered_map<int, int> row_of_;     // client id -> staged row
  std::vector<int> global_survivors_;
  std::unordered_map<int, int> global_index_;  // client id -> frame index
  std::vector<double> confidence_by_id_;       // sized num_clients
  std::vector<uint64_t> global_sigs_;
  std::unordered_map<int, std::vector<float>> remote_rows_;
};

}  // namespace fed
}  // namespace fedgta

#endif  // FEDGTA_FED_SHARD_PLANE_H_
