#include "fed/shard_plane.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "linalg/ops.h"

namespace fedgta {
namespace fed {

ShardPlane::ShardPlane(ShardRange shard, bool disable_confidence,
                       std::vector<int64_t> train_sizes)
    : shard_(shard),
      disable_confidence_(disable_confidence),
      train_sizes_(std::move(train_sizes)) {}

void ShardPlane::StageRound(std::vector<ShardUpload> uploads) {
  staged_.clear();
  params_.clear();
  confidences_.clear();
  row_of_.clear();
  staged_.reserve(uploads.size());
  params_.reserve(uploads.size());
  confidences_.reserve(uploads.size());
  for (ShardUpload& up : uploads) {
    FEDGTA_CHECK(shard_.contains(up.client_id))
        << "client " << up.client_id << " staged outside shard ["
        << shard_.begin << ", " << shard_.end << ")";
    FEDGTA_CHECK(staged_.empty() || staged_.back() < up.client_id)
        << "uploads must arrive in ascending client id";
    row_of_[up.client_id] = static_cast<int>(staged_.size());
    staged_.push_back(up.client_id);
    params_.push_back(std::move(up.params));
    confidences_.push_back(up.confidence);
  }
}

size_t ShardPlane::RowOf(int id) const {
  const auto it = row_of_.find(id);
  FEDGTA_CHECK(it != row_of_.end()) << "client " << id << " not staged here";
  return static_cast<size_t>(it->second);
}

double ShardPlane::MemberWeight(int id) const {
  const size_t row = RowOf(id);
  return disable_confidence_
             ? static_cast<double>(std::max<int64_t>(
                   1, train_sizes_[static_cast<size_t>(id)]))
             : confidences_[row];
}

std::vector<float> ShardPlane::AggregateLocalSet(
    const std::vector<int>& canonical) const {
  FEDGTA_CHECK(!canonical.empty());
  double weight_sum = 0.0;
  for (int j : canonical) weight_sum += MemberWeight(j);
  std::vector<float> out(params_[RowOf(canonical.front())].size(), 0.0f);
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

}  // namespace fed
}  // namespace fedgta
