#include "fed/client.h"

#include "obs/phase.h"

namespace fedgta {

TrainHooks MergeHooks(TrainHooks a, TrainHooks b) {
  TrainHooks merged;
  if (a.grad_hook && b.grad_hook) {
    merged.grad_hook = [a = a.grad_hook, b = b.grad_hook](
                           std::span<const float> p, std::span<float> g) {
      a(p, g);
      b(p, g);
    };
  } else {
    merged.grad_hook = a.grad_hook ? a.grad_hook : b.grad_hook;
  }
  if (a.hidden_grad_hook && b.hidden_grad_hook) {
    merged.hidden_grad_hook = [a = a.hidden_grad_hook,
                               b = b.hidden_grad_hook](const Matrix& h) {
      Matrix ga = a(h);
      Matrix gb = b(h);
      if (ga.empty()) return gb;
      if (gb.empty()) return ga;
      ga += gb;
      return ga;
    };
  } else {
    merged.hidden_grad_hook =
        a.hidden_grad_hook ? a.hidden_grad_hook : b.hidden_grad_hook;
  }
  if (a.logits_hook && b.logits_hook) {
    merged.logits_hook = [a = a.logits_hook, b = b.logits_hook](
                             const Matrix& logits, Matrix* dlogits) {
      return a(logits, dlogits) + b(logits, dlogits);
    };
  } else {
    merged.logits_hook = a.logits_hook ? a.logits_hook : b.logits_hook;
  }
  return merged;
}

Client::Client(const ClientData* data, const ModelConfig& model_config,
               const OptimizerConfig& opt_config, uint64_t seed)
    : data_(data), opt_config_(opt_config) {
  FEDGTA_CHECK(data != nullptr);
  model_ = MakeModel(model_config);
  Rng rng(seed ^ (static_cast<uint64_t>(data->client_id) * 0x9e3779b9ULL));
  ModelInput input;
  input.graph_full = &data_->sub.graph;
  input.graph_train = &data_->train_graph == &data_->sub.graph ||
                              data_->train_graph.num_edges() ==
                                  data_->sub.graph.num_edges()
                          ? &data_->sub.graph
                          : &data_->train_graph;
  input.features = &data_->features;
  input.num_classes = data_->num_classes;
  model_->Prepare(input, rng);
  optimizer_ = MakeOptimizer(opt_config);
  batch_rng_ = rng.Fork(0x6a7c);
}

int64_t Client::param_count() const {
  return ParamCount(const_cast<GnnModel&>(*model_).Params());
}

std::vector<float> Client::GetParams() { return FlattenParams(model_->Params()); }

void Client::SetParams(std::span<const float> params) {
  UnflattenParams(params, model_->Params());
}

void Client::SetBatchSize(int batch_size) {
  FEDGTA_CHECK_GE(batch_size, 0);
  batch_size_ = batch_size;
}

double Client::TrainLocal(int epochs, const TrainHooks& hooks) {
  FEDGTA_PHASE_SCOPE("local_train");
  if (data_->train_idx.empty()) return 0.0;
  optimizer_->Reset();
  const std::vector<ParamRef> params = model_->Params();
  double total_loss = 0.0;
  Matrix dlogits;
  const int64_t n_train = static_cast<int64_t>(data_->train_idx.size());
  std::vector<int32_t> batch;
  for (int e = 0; e < epochs; ++e) {
    const std::vector<int32_t>* loss_rows = &data_->train_idx;
    if (batch_size_ > 0 && batch_size_ < n_train) {
      const std::vector<int> picks = batch_rng_.SampleWithoutReplacement(
          static_cast<int>(n_train), batch_size_);
      batch.clear();
      for (int p : picks) {
        batch.push_back(data_->train_idx[static_cast<size_t>(p)]);
      }
      loss_rows = &batch;
    }
    Matrix logits = model_->Forward(/*training=*/true);
    double loss =
        SoftmaxCrossEntropy(logits, data_->labels, *loss_rows, &dlogits);
    if (hooks.logits_hook) loss += hooks.logits_hook(logits, &dlogits);

    Matrix dhidden;
    if (hooks.hidden_grad_hook) dhidden = hooks.hidden_grad_hook(model_->Hidden());

    model_->ZeroGrad();
    model_->Backward(dlogits, dhidden.empty() ? nullptr : &dhidden);

    if (hooks.grad_hook) {
      std::vector<float> flat_params = FlattenParams(params);
      std::vector<float> flat_grads = FlattenGrads(params);
      hooks.grad_hook(flat_params, flat_grads);
      UnflattenGrads(flat_grads, params);
    }
    optimizer_->Step(params);
    total_loss += loss;
  }
  return total_loss / static_cast<double>(epochs);
}

std::vector<float> Client::GradientAtCurrentParams() {
  const std::vector<ParamRef> params = model_->Params();
  if (data_->train_idx.empty()) {
    return std::vector<float>(static_cast<size_t>(ParamCount(params)), 0.0f);
  }
  Matrix dlogits;
  const Matrix logits = model_->Forward(/*training=*/true);
  (void)SoftmaxCrossEntropy(logits, data_->labels, data_->train_idx, &dlogits);
  model_->ZeroGrad();
  model_->Backward(dlogits, nullptr);
  return FlattenGrads(params);
}

Matrix Client::Predict() { return model_->Forward(/*training=*/false); }

Client::Accuracies Client::EvalAccuracies() {
  if (data_->test_idx.empty() && data_->val_idx.empty()) return {};
  const Matrix logits = Predict();
  return {Accuracy(logits, data_->labels, data_->test_idx),
          Accuracy(logits, data_->labels, data_->val_idx)};
}

ClientMetrics Client::ComputeFedGtaMetrics(const FedGtaOptions& options) {
  FEDGTA_PHASE_SCOPE("fedgta_metrics");
  return ComputeClientMetrics(data_->sub.graph, Predict(), options,
                              &data_->features, &metrics_cache_);
}

void Client::SaveState(serialize::Writer* writer) {
  FEDGTA_CHECK(writer != nullptr);
  writer->WriteI32(id());
  SaveParams(model_->Params(), writer);
  optimizer_->SaveState(writer);
  writer->WriteString(batch_rng_.SaveState());
  Rng* dropout_rng = model_->MutableDropoutRng();
  writer->WriteBool(dropout_rng != nullptr);
  if (dropout_rng != nullptr) writer->WriteString(dropout_rng->SaveState());
}

Status Client::LoadState(serialize::Reader* reader) {
  FEDGTA_CHECK(reader != nullptr);
  int32_t saved_id = 0;
  FEDGTA_RETURN_IF_ERROR(reader->ReadI32(&saved_id));
  if (saved_id != id()) {
    return FailedPreconditionError(
        "checkpoint client id " + std::to_string(saved_id) +
        " does not match client " + std::to_string(id()));
  }
  FEDGTA_RETURN_IF_ERROR(LoadParams(reader, model_->Params()));
  FEDGTA_RETURN_IF_ERROR(optimizer_->LoadState(reader));
  std::string rng_state;
  FEDGTA_RETURN_IF_ERROR(reader->ReadString(&rng_state));
  FEDGTA_RETURN_IF_ERROR(batch_rng_.LoadState(rng_state));
  bool has_dropout_rng = false;
  FEDGTA_RETURN_IF_ERROR(reader->ReadBool(&has_dropout_rng));
  Rng* dropout_rng = model_->MutableDropoutRng();
  if (has_dropout_rng != (dropout_rng != nullptr)) {
    return FailedPreconditionError(
        "checkpoint dropout-RNG presence does not match the model");
  }
  if (has_dropout_rng) {
    FEDGTA_RETURN_IF_ERROR(reader->ReadString(&rng_state));
    FEDGTA_RETURN_IF_ERROR(dropout_rng->LoadState(rng_state));
  }
  return OkStatus();
}

Matrix Client::HiddenWithParams(std::span<const float> params) {
  const std::vector<float> saved = GetParams();
  SetParams(params);
  (void)model_->Forward(/*training=*/false);
  Matrix hidden = model_->Hidden();
  SetParams(saved);
  return hidden;
}

}  // namespace fedgta
