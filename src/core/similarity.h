#ifndef FEDGTA_CORE_SIMILARITY_H_
#define FEDGTA_CORE_SIMILARITY_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "linalg/matrix.h"

namespace fedgta {

/// Read-only float rows indexed by client id (uploaded moments or
/// parameters), viewed where they already live: in a table of vectors or
/// in a table of spans, e.g. into the round's uploads. Converts implicitly
/// from either and must not outlive it.
class RowTable {
 public:
  RowTable(const std::vector<std::vector<float>>& rows)  // NOLINT
      : vectors_(rows.data()), size_(rows.size()) {}
  RowTable(const std::vector<std::span<const float>>& rows)  // NOLINT
      : spans_(rows.data()), size_(rows.size()) {}

  size_t size() const { return size_; }
  std::span<const float> operator[](size_t i) const {
    return vectors_ != nullptr ? std::span<const float>(vectors_[i])
                               : spans_[i];
  }

 private:
  const std::vector<float>* vectors_ = nullptr;
  const std::span<const float>* spans_ = nullptr;
  size_t size_ = 0;
};

/// How the server evaluates the Eq. (6) pairwise-similarity predicate.
///  * kExact — the determinism oracle: every participant pair goes through
///    the GEMM-backed cosine block.
///  * kLsh — sign-random-projection signatures prescreen pairs; only pairs
///    whose Hamming-estimated similarity could reach ε are exact-checked
///    (see SimilarityPlaneOptions::lsh_margin for the pruning bound).
///  * kAuto — kExact below auto_lsh_min_participants participants, kLsh at
///    or above it, so small rounds keep the oracle and large rounds prune.
enum class SimilarityMode { kExact, kAuto, kLsh };

/// Parses "exact" / "auto" / "lsh". Returns false on any other input.
bool ParseSimilarityMode(std::string_view name, SimilarityMode* mode);
std::string_view SimilarityModeName(SimilarityMode mode);

/// Tunables of the server similarity plane (DESIGN.md §5h).
struct SimilarityPlaneOptions {
  SimilarityMode mode = SimilarityMode::kExact;
  /// Signature length L in bits (rounded up to a multiple of 64). For a
  /// pair at angle fraction t = θ/π, each bit mismatches independently
  /// with probability t, so h/L concentrates around t.
  int lsh_signature_bits = 256;
  /// Prescreen slack δ in angle-fraction units: a pair is pruned only when
  /// h/L > acos(ε)/π + δ. A pair with true similarity >= ε survives the
  /// screen except with probability <= exp(-2 δ² L) (Hoeffding) — 6e-8 per
  /// pair at the defaults — so pruned pairs are below ε with overwhelming
  /// probability and the LSH sets match the exact oracle's.
  double lsh_margin = 0.18;
  /// Seed of the shared random projection matrix (deterministic per round
  /// shape: the matrix depends only on this seed and the moment dimension).
  uint64_t lsh_seed = 0x5EED5111ull;
  /// kAuto switches to kLsh at this participant count.
  int auto_lsh_min_participants = 512;
};

/// What the candidate generator did for one set-building call. Pairs are
/// counted ordered, (i, j) and (j, i), though LSH judges each pair once.
struct SimilarityStats {
  int64_t pairs_exact = 0;
  int64_t pairs_pruned = 0;
  SimilarityMode mode_used = SimilarityMode::kExact;
};
/// Adds one set-building call to the `fedgta.similarity.pairs_{exact,
/// pruned}` and `fedgta.similarity.mode.<mode>` counters.
void RecordSetStats(const SimilarityStats& stats);
/// The "similarity:" block of a server status reply: the Eq. 6 pair
/// counters and Eq. 7 dedup counters, once the first aggregation has run
/// (empty before).
std::string SimilarityPlaneStatus();

/// Packed sign-random-projection signatures of the normalized moment rows,
/// row-major `normalized.rows() x words` (lsh_signature_bits rounded up to
/// 64-bit words). The projection matrix depends only on (plane.lsh_seed,
/// moment dimension) and each row is hashed independently.
std::vector<uint64_t> ComputeLshSignatures(const Matrix& normalized,
                                           const SimilarityPlaneOptions& plane);

namespace internal {
/// Resolved LSH geometry for one (ε, plane) pair.
struct LshShape {
  /// Packed signature width: words 64-bit words = bits sign bits.
  int64_t words = 1;
  int64_t bits = 64;
  /// Prune threshold in Hamming bits: a pair survives the prescreen iff
  /// its signature distance is <= h_max (bits keeps every pair).
  int64_t h_max = 64;
};
LshShape LshShapeFor(double epsilon, const SimilarityPlaneOptions& plane);

/// The Eq. 6 Hamming prescreen: appends to *candidates, ascending, every
/// row in [begin, end) of the packed table `sigs` (shape.words per row)
/// within shape.h_max bits of `sig`, and returns how many it pruned. Runs
/// on hardware popcnt when the CPU has it (runtime dispatch, like the simd
/// backend), else on LshScreenPortable; same list either way.
int64_t LshScreen(const uint64_t* sig, const uint64_t* sigs, int64_t begin,
                  int64_t end, const LshShape& shape,
                  std::vector<int32_t>* candidates);
/// LshScreen's portable std::popcount loop, exposed so tests can pin that
/// it agrees with the hardware-popcount path.
int64_t LshScreenPortable(const uint64_t* sig, const uint64_t* sigs,
                          int64_t begin, int64_t end, const LshShape& shape,
                          std::vector<int32_t>* candidates);
}  // namespace internal

/// Compact participants-indexed cosine block: values(a, b) is the cosine
/// similarity of participants[a] and participants[b]. It allocates only
/// participants², which is what partial participation actually needs.
struct SimilarityBlock {
  std::vector<int> participants;
  Matrix values;  // participants x participants; unit diagonal
};

/// Stacks the participants' moment vectors into one row-major matrix with
/// every row L2-normalized (all-zero rows stay zero, matching the
/// CosineSimilarity convention that zero vectors have similarity 0).
Matrix StackNormalizedMoments(RowTable moments,
                              const std::vector<int>& participants);

/// The full cosine block in one M·Mᵀ through the backend GEMM. Used by the
/// adaptive-ε extension (which needs every pair for the quantile) and as
/// the inspection/test surface of the plane.
SimilarityBlock ComputeSimilarityBlock(RowTable moments,
                                       const std::vector<int>& participants);

/// Aggregation sets (Eq. 6) from a precomputed block: for participant
/// i = participants[a], the set is {i} followed by every participant j
/// (in participants order) with values(a, b) >= ε. Indexed by client id;
/// ids outside `participants` get empty sets. `num_clients` sizes the
/// returned table.
std::vector<std::vector<int>> SetsFromSimilarityBlock(
    const SimilarityBlock& block, int num_clients, double epsilon);

/// q-quantile (q in [0, 1]) of the off-diagonal pairwise similarities.
/// Returns 0 with fewer than two participants.
double SimilarityQuantile(const SimilarityBlock& block, double q);

/// Aggregation sets, paper Eq. (6): for each participant i,
///   I_i = { j participant : cos(M_i, M_j) >= epsilon } ∪ {i},
/// returned indexed by client id (non-participants get empty sets). The
/// default plane is kExact, the determinism oracle: it sweeps the GEMM
/// block in row panels. kLsh visits each unordered pair once — the Hamming
/// prescreen, then an exact cosine check of the survivors read in place by
/// Backend::GatherDots — mirrors admitted pairs into both rows on the pool
/// and orders every row by participant index, so its sets match the
/// oracle's member for member whenever the screen has no false negatives
/// (see lsh_margin). Candidate generation is timed under the
/// `similarity_candidates` phase and counted in the
/// `fedgta.similarity.pairs_{exact,pruned}` counters.
std::vector<std::vector<int>> BuildAggregationSets(
    RowTable moments, const std::vector<int>& participants, double epsilon,
    const SimilarityPlaneOptions& plane = SimilarityPlaneOptions(),
    SimilarityStats* stats = nullptr);

}  // namespace fedgta

#endif  // FEDGTA_CORE_SIMILARITY_H_
