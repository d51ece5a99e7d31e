#include "fed/shard_plane.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "linalg/ops.h"

namespace fedgta {
namespace fed {

ShardPlane::ShardPlane(int num_clients, ShardRange shard,
                       const FedGtaOptions& options,
                       std::vector<int64_t> train_sizes)
    : num_clients_(num_clients),
      shard_(shard),
      options_(options),
      train_sizes_(std::move(train_sizes)) {
  FEDGTA_CHECK_EQ(train_sizes_.size(), static_cast<size_t>(num_clients_));
  confidence_by_id_.assign(static_cast<size_t>(num_clients_), 0.0);
}

void ShardPlane::StageRound(std::vector<ShardUpload> uploads) {
  staged_.clear();
  params_.clear();
  row_of_.clear();
  global_survivors_.clear();
  global_index_.clear();
  global_sigs_.clear();
  remote_rows_.clear();
  std::fill(confidence_by_id_.begin(), confidence_by_id_.end(), 0.0);

  staged_.reserve(uploads.size());
  params_.reserve(uploads.size());
  // Scatter the raw moment uploads into an id-indexed table and reuse the
  // single-server normalizer verbatim — per-row arithmetic, so the shard's
  // rows are bitwise the rows a whole-fleet stacking would produce.
  std::vector<std::vector<float>> moments(static_cast<size_t>(num_clients_));
  for (ShardUpload& up : uploads) {
    FEDGTA_CHECK(shard_.contains(up.client_id))
        << "client " << up.client_id << " staged outside shard ["
        << shard_.begin << ", " << shard_.end << ")";
    FEDGTA_CHECK(staged_.empty() || staged_.back() < up.client_id)
        << "uploads must arrive in ascending client id";
    row_of_[up.client_id] = static_cast<int>(staged_.size());
    staged_.push_back(up.client_id);
    params_.push_back(std::move(up.params));
    moments[static_cast<size_t>(up.client_id)] = std::move(up.moments);
    confidence_by_id_[static_cast<size_t>(up.client_id)] = up.confidence;
  }
  normalized_ = staged_.empty() ? Matrix()
                                : StackNormalizedMoments(moments, staged_);
}

std::vector<uint64_t> ShardPlane::Signatures() const {
  if (staged_.empty()) return {};
  return ComputeLshSignatures(normalized_, options_.similarity);
}

void ShardPlane::InstallGlobalFrame(std::vector<int> global_survivors,
                                    std::vector<double> confidences,
                                    std::vector<uint64_t> signatures) {
  FEDGTA_CHECK_EQ(global_survivors.size(), confidences.size());
  global_survivors_ = std::move(global_survivors);
  global_sigs_ = std::move(signatures);
  global_index_.clear();
  global_index_.reserve(global_survivors_.size());
  for (size_t g = 0; g < global_survivors_.size(); ++g) {
    const int id = global_survivors_[g];
    FEDGTA_CHECK(id >= 0 && id < num_clients_);
    global_index_[id] = static_cast<int>(g);
    confidence_by_id_[static_cast<size_t>(id)] = confidences[g];
  }
}

ShardPlane::Candidates ShardPlane::ComputeCandidates(bool use_lsh) const {
  Candidates out;
  out.per_row.resize(staged_.size());
  const int64_t gp = static_cast<int64_t>(global_survivors_.size());
  const LshShape shape = LshShapeFor(options_.epsilon, options_.similarity);
  if (use_lsh) {
    FEDGTA_CHECK_EQ(global_sigs_.size(),
                    static_cast<size_t>(gp * shape.words));
  }
  std::vector<char> wanted(static_cast<size_t>(num_clients_), 0);
  for (size_t a = 0; a < staged_.size(); ++a) {
    const int i = staged_[a];
    const auto it = global_index_.find(i);
    FEDGTA_CHECK(it != global_index_.end())
        << "staged survivor " << i << " missing from the global frame";
    const int64_t ga = it->second;
    // Every other survivor, in frame order: the shared screen on both
    // sides of the row's own frame slot, or all of them in exact mode.
    std::vector<int>& cand = out.per_row[a];
    if (use_lsh) {
      const uint64_t* sa = global_sigs_.data() + ga * shape.words;
      out.pairs_pruned +=
          LshScreen(sa, global_sigs_.data(), 0, ga, shape, &cand) +
          LshScreen(sa, global_sigs_.data(), ga + 1, gp, shape, &cand);
      for (int& g : cand) g = global_survivors_[static_cast<size_t>(g)];
    } else {
      cand = global_survivors_;
      cand.erase(cand.begin() + ga);
    }
    for (int j : cand) {
      if (!shard_.contains(j)) wanted[static_cast<size_t>(j)] = 1;
    }
    out.pairs_exact += static_cast<int64_t>(cand.size());
  }
  for (int id = 0; id < num_clients_; ++id) {
    if (wanted[static_cast<size_t>(id)]) out.remote_wanted.push_back(id);
  }
  return out;
}

std::vector<std::vector<float>> ShardPlane::ExportRows(
    const std::vector<int>& ids) const {
  std::vector<std::vector<float>> rows;
  rows.reserve(ids.size());
  const int64_t d = normalized_.cols();
  for (int id : ids) {
    const auto it = row_of_.find(id);
    FEDGTA_CHECK(it != row_of_.end())
        << "row export requested for unstaged client " << id;
    const float* src = normalized_.data() + int64_t{it->second} * d;
    rows.emplace_back(src, src + d);
  }
  return rows;
}

void ShardPlane::InstallRemoteRows(const std::vector<int>& ids,
                                   std::vector<std::vector<float>> rows) {
  FEDGTA_CHECK_EQ(ids.size(), rows.size());
  for (size_t k = 0; k < ids.size(); ++k) {
    remote_rows_[ids[k]] = std::move(rows[k]);
  }
}

const float* ShardPlane::RowOf(int id) const {
  const auto local = row_of_.find(id);
  if (local != row_of_.end()) {
    return normalized_.data() + int64_t{local->second} * normalized_.cols();
  }
  const auto remote = remote_rows_.find(id);
  FEDGTA_CHECK(remote != remote_rows_.end())
      << "admission needs the normalized row of client " << id
      << " but no shard shipped it";
  FEDGTA_CHECK_EQ(remote->second.size(),
                  static_cast<size_t>(normalized_.cols()));
  return remote->second.data();
}

std::vector<std::vector<int>> ShardPlane::BuildSets(
    const Candidates& candidates) const {
  FEDGTA_CHECK_EQ(candidates.per_row.size(), staged_.size());
  const int64_t d = normalized_.cols();
  std::vector<std::vector<int>> sets(staged_.size());
  for (size_t a = 0; a < staged_.size(); ++a) {
    sets[a].push_back(staged_[a]);
    AdmitByCosine(normalized_.data() + static_cast<int64_t>(a) * d, d,
                  candidates.per_row[a], [&](int id) { return RowOf(id); },
                  options_.epsilon, &sets[a]);
  }
  return sets;
}

double ShardPlane::MemberWeight(int id) const {
  FEDGTA_CHECK(id >= 0 && id < num_clients_);
  return options_.disable_confidence
             ? static_cast<double>(std::max<int64_t>(
                   1, train_sizes_[static_cast<size_t>(id)]))
             : confidence_by_id_[static_cast<size_t>(id)];
}

double ShardPlane::WeightSum(const std::vector<int>& canonical) const {
  double weight_sum = 0.0;
  for (int j : canonical) weight_sum += MemberWeight(j);
  return weight_sum;
}

std::vector<float> ShardPlane::AggregateLocalSet(
    const std::vector<int>& canonical) const {
  FEDGTA_CHECK(!canonical.empty());
  const double weight_sum = WeightSum(canonical);
  std::vector<float> out(ParamsOf(canonical.front()).size(), 0.0f);
  AccumulatePartial(canonical, weight_sum, &out);
  return out;
}

void ShardPlane::AccumulatePartial(const std::vector<int>& canonical,
                                   double weight_sum,
                                   std::vector<float>* acc) const {
  for (int j : canonical) {
    const auto it = row_of_.find(j);
    if (it == row_of_.end()) continue;
    const float w =
        weight_sum > 0.0
            ? static_cast<float>(MemberWeight(j) / weight_sum)
            : 1.0f / static_cast<float>(canonical.size());
    Axpy(w, params_[static_cast<size_t>(it->second)], *acc);
  }
}

const std::vector<float>& ShardPlane::ParamsOf(int id) const {
  const auto it = row_of_.find(id);
  FEDGTA_CHECK(it != row_of_.end()) << "client " << id << " not staged here";
  return params_[static_cast<size_t>(it->second)];
}

}  // namespace fed
}  // namespace fedgta
