#include "fed/gcfl_plus.h"

#include <algorithm>
#include <cmath>

#include "linalg/ops.h"

namespace fedgta {

void GcflPlusStrategy::Initialize(int num_clients,
                                  const std::vector<int64_t>& train_sizes,
                                  const std::vector<float>& init_params) {
  Strategy::Initialize(num_clients, train_sizes, init_params);
  cluster_of_.assign(static_cast<size_t>(num_clients), 0);
  cluster_models_.assign(1, init_params);
  update_history_.assign(static_cast<size_t>(num_clients), {});
}

std::span<const float> GcflPlusStrategy::ParamsFor(int client_id) const {
  FEDGTA_CHECK(client_id >= 0 && client_id < num_clients_);
  return cluster_models_[static_cast<size_t>(
      cluster_of_[static_cast<size_t>(client_id)])];
}

std::vector<float> GcflPlusStrategy::WindowVector(int client_id) const {
  const auto& history = update_history_[static_cast<size_t>(client_id)];
  std::vector<float> window;
  window.reserve(static_cast<size_t>(window_) * global_model_.size());
  for (const std::vector<float>& update : history) {
    window.insert(window.end(), update.begin(), update.end());
  }
  window.resize(static_cast<size_t>(window_) * global_model_.size(), 0.0f);
  return window;
}

void GcflPlusStrategy::Aggregate(const std::vector<int>& /*participants*/,
                                 const std::vector<LocalResult>& results) {
  if (results.empty()) return;

  // Record this round's update (y_i - cluster model) per participant.
  for (const LocalResult& r : results) {
    const std::span<const float> base = ParamsFor(r.client_id);
    std::vector<float> update(r.params.size());
    for (size_t j = 0; j < update.size(); ++j) {
      update[j] = r.params[j] - base[j];
    }
    auto& history = update_history_[static_cast<size_t>(r.client_id)];
    history.push_back(std::move(update));
    while (static_cast<int>(history.size()) > window_) history.pop_front();
  }

  // Evaluate the split criterion per cluster over this round's participants.
  const int old_cluster_count = static_cast<int>(cluster_models_.size());
  for (int c = 0; c < old_cluster_count; ++c) {
    std::vector<const LocalResult*> members;
    for (const LocalResult& r : results) {
      if (cluster_of_[static_cast<size_t>(r.client_id)] == c) {
        members.push_back(&r);
      }
    }
    if (members.size() < 3) continue;
    double mean_norm = 0.0;
    double max_norm = 0.0;
    for (const LocalResult* r : members) {
      const auto& history = update_history_[static_cast<size_t>(r->client_id)];
      const double norm = L2Norm(history.back());
      mean_norm += norm;
      max_norm = std::max(max_norm, norm);
    }
    mean_norm /= static_cast<double>(members.size());
    if (!(mean_norm < eps1_ && max_norm > eps2_)) continue;

    // Bipartition by windowed-update cosine similarity: seed with the least
    // similar pair, assign the rest to the closer medoid.
    std::vector<std::vector<float>> windows;
    windows.reserve(members.size());
    for (const LocalResult* r : members) {
      windows.push_back(WindowVector(r->client_id));
    }
    size_t seed_a = 0;
    size_t seed_b = 1;
    double min_sim = 2.0;
    for (size_t a = 0; a < windows.size(); ++a) {
      for (size_t b = a + 1; b < windows.size(); ++b) {
        const double sim = CosineSimilarity(windows[a], windows[b]);
        if (sim < min_sim) {
          min_sim = sim;
          seed_a = a;
          seed_b = b;
        }
      }
    }
    const int new_cluster = static_cast<int>(cluster_models_.size());
    cluster_models_.push_back(cluster_models_[static_cast<size_t>(c)]);
    for (size_t m = 0; m < members.size(); ++m) {
      const double sim_a = CosineSimilarity(windows[m], windows[seed_a]);
      const double sim_b = CosineSimilarity(windows[m], windows[seed_b]);
      if (sim_b > sim_a) {
        cluster_of_[static_cast<size_t>(members[m]->client_id)] = new_cluster;
      }
    }
  }

  // FedAvg within each cluster over this round's participants.
  for (int c = 0; c < static_cast<int>(cluster_models_.size()); ++c) {
    std::vector<LocalResult> members;
    for (const LocalResult& r : results) {
      if (cluster_of_[static_cast<size_t>(r.client_id)] == c) {
        members.push_back(r);
      }
    }
    if (members.empty()) continue;
    WeightedAverage(members, &cluster_models_[static_cast<size_t>(c)]);
  }
}

void GcflPlusStrategy::SaveState(serialize::Writer* writer) const {
  Strategy::SaveState(writer);
  writer->WriteI32Vec(cluster_of_);
  SaveFloatVecs(cluster_models_, writer);
  writer->WriteU32(static_cast<uint32_t>(update_history_.size()));
  for (const std::deque<std::vector<float>>& window : update_history_) {
    writer->WriteU32(static_cast<uint32_t>(window.size()));
    for (const std::vector<float>& update : window) {
      writer->WriteFloatVec(update);
    }
  }
}

Status GcflPlusStrategy::LoadState(serialize::Reader* reader) {
  FEDGTA_RETURN_IF_ERROR(Strategy::LoadState(reader));
  std::vector<int32_t> cluster_of;
  FEDGTA_RETURN_IF_ERROR(reader->ReadI32Vec(&cluster_of));
  std::vector<std::vector<float>> cluster_models;
  FEDGTA_RETURN_IF_ERROR(LoadFloatVecs(reader, &cluster_models));
  uint32_t num_histories = 0;
  FEDGTA_RETURN_IF_ERROR(reader->ReadU32(&num_histories));
  if (cluster_of.size() != static_cast<size_t>(num_clients_) ||
      num_histories != static_cast<uint32_t>(num_clients_) ||
      cluster_models.empty()) {
    return FailedPreconditionError("cluster state shape mismatch");
  }
  for (int32_t c : cluster_of) {
    if (c < 0 || c >= static_cast<int32_t>(cluster_models.size())) {
      return FailedPreconditionError("cluster assignment out of range");
    }
  }
  std::vector<std::deque<std::vector<float>>> histories(num_histories);
  for (std::deque<std::vector<float>>& window : histories) {
    uint32_t window_size = 0;
    FEDGTA_RETURN_IF_ERROR(reader->ReadU32(&window_size));
    for (uint32_t i = 0; i < window_size; ++i) {
      std::vector<float> update;
      FEDGTA_RETURN_IF_ERROR(reader->ReadFloatVec(&update));
      window.push_back(std::move(update));
    }
  }
  cluster_of_ = std::move(cluster_of);
  cluster_models_ = std::move(cluster_models);
  update_history_ = std::move(histories);
  return OkStatus();
}

}  // namespace fedgta
