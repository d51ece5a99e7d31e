#include "fed/moon.h"

#include <cmath>

#include "linalg/ops.h"

namespace fedgta {
namespace {

// d/dz of cos(z, a) for one row pair.
void AddCosineGrad(std::span<const float> z, std::span<const float> a,
                   float coeff, std::span<float> out) {
  const double nz = L2Norm(z);
  const double na = L2Norm(a);
  if (nz < 1e-12 || na < 1e-12) return;
  const double dot = Dot(z, a);
  const double cos = dot / (nz * na);
  for (size_t j = 0; j < z.size(); ++j) {
    out[j] += coeff * static_cast<float>(a[j] / (nz * na) -
                                         cos * z[j] / (nz * nz));
  }
}

}  // namespace

void MoonStrategy::Initialize(int num_clients,
                              const std::vector<int64_t>& train_sizes,
                              const std::vector<float>& init_params) {
  Strategy::Initialize(num_clients, train_sizes, init_params);
  previous_local_.assign(static_cast<size_t>(num_clients), init_params);
}

LocalResult MoonStrategy::TrainClient(Client& client, int epochs,
                                      const TrainHooks& extra_hooks) {
  const int id = client.id();
  client.SetParams(ParamsFor(id));

  // Reference representations from the global model and the client's
  // previous local model on the same (full-batch) input. They are fixed
  // during this round's local steps.
  const Matrix z_global = client.HiddenWithParams(global_model_);
  const Matrix z_prev =
      client.HiddenWithParams(previous_local_[static_cast<size_t>(id)]);

  TrainHooks hooks;
  hooks.hidden_grad_hook = [this, &z_global, &z_prev](const Matrix& z) {
    Matrix dz(z.rows(), z.cols());
    if (z.rows() != z_global.rows() || z.cols() != z_global.cols()) return dz;
    const float inv_rows = 1.0f / static_cast<float>(z.rows());
    for (int64_t i = 0; i < z.rows(); ++i) {
      const auto zi = z.Row(i);
      const auto gi = z_global.Row(i);
      const auto pi = z_prev.Row(i);
      const double sg = CosineSimilarity(zi, gi);
      const double sp = CosineSimilarity(zi, pi);
      // l = log(1 + exp((sp - sg)/τ)); dl/dsp = σ((sp-sg)/τ)/τ = -dl/dsg.
      const double sigma = 1.0 / (1.0 + std::exp(-(sp - sg) / tau_));
      const float coeff =
          mu_ * static_cast<float>(sigma / tau_) * inv_rows;
      AddCosineGrad(zi, pi, coeff, dz.Row(i));
      AddCosineGrad(zi, gi, -coeff, dz.Row(i));
    }
    return dz;
  };

  LocalResult result;
  result.client_id = id;
  result.loss = client.TrainLocal(epochs, MergeHooks(hooks, extra_hooks));
  result.params = client.GetParams();
  result.num_samples = client.num_train();
  previous_local_[static_cast<size_t>(id)] = result.params;
  return result;
}

void MoonStrategy::Aggregate(const std::vector<int>& /*participants*/,
                             const std::vector<LocalResult>& results) {
  if (results.empty()) return;
  WeightedAverage(results, &global_model_);
}

void MoonStrategy::SaveState(serialize::Writer* writer) const {
  Strategy::SaveState(writer);
  SaveFloatVecs(previous_local_, writer);
}

Status MoonStrategy::LoadState(serialize::Reader* reader) {
  FEDGTA_RETURN_IF_ERROR(Strategy::LoadState(reader));
  std::vector<std::vector<float>> previous;
  FEDGTA_RETURN_IF_ERROR(LoadFloatVecs(reader, &previous));
  if (previous.size() != static_cast<size_t>(num_clients_)) {
    return FailedPreconditionError("previous-local table size mismatch");
  }
  previous_local_ = std::move(previous);
  return OkStatus();
}

}  // namespace fedgta
