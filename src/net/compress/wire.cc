#include "net/compress/wire.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace fedgta {
namespace net {
namespace compress {
namespace {

// Per-call registry resolution — same rationale as net/rpc.cc: no
// function-local static pinning a possibly-stale instance.
Histogram& CompressSeconds() {
  return GlobalMetrics().GetHistogram("net.compress.seconds");
}

/// Records wall time of one codec invocation into net.compress.seconds.
class CompressTimer {
 public:
  CompressTimer() : start_(std::chrono::steady_clock::now()) {}
  ~CompressTimer() {
    const auto end = std::chrono::steady_clock::now();
    CompressSeconds().Record(
        std::chrono::duration<double>(end - start_).count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Bytes WriteFloatVec would have spent on this tensor (u64 length prefix
/// plus fp32 elements) — the raw-equivalent cost for savings accounting.
int64_t RawCost(size_t n) {
  return static_cast<int64_t>(sizeof(uint64_t) + sizeof(float) * n);
}

}  // namespace

Link::Link(const Codec* codec, int top_k, const DownloadStash* downloads)
    : codec_(codec), top_k_(top_k), downloads_(downloads) {
  FEDGTA_CHECK(codec != nullptr) << "Link requires a registered codec";
}

void Link::EncodeTensor(std::span<const float> values, const TensorSpec& spec,
                        serialize::Writer* w) {
  CompressTimer timer;
  const size_t before = w->payload().size();
  codec_->Encode(values, spec, w);
  const size_t after = w->payload().size();
  saved_bytes_ += RawCost(values.size()) - static_cast<int64_t>(after - before);
}

Status Link::DecodeTensor(serialize::Reader* r, const TensorSpec& spec,
                          std::vector<float>* out) {
  CompressTimer timer;
  const size_t before = r->remaining();
  FEDGTA_RETURN_IF_ERROR(codec_->Decode(r, spec, out));
  saved_bytes_ +=
      RawCost(out->size()) - static_cast<int64_t>(before - r->remaining());
  return OkStatus();
}

void Link::EncodeDownload(int32_t /*client_id*/,
                          std::span<const float> weights,
                          serialize::Writer* w) {
  if (codec_->id() == CodecId::kDelta) {
    // Raw dense on purpose: both ends then stash identical bytes as the
    // client's base for the upload delta.
    w->WriteFloatVec(weights);
    return;
  }
  EncodeTensor(weights, TensorSpec{}, w);
}

Status Link::DecodeDownload(int32_t /*client_id*/, serialize::Reader* r,
                            std::vector<float>* out) {
  if (codec_->id() == CodecId::kDelta) return r->ReadFloatVec(out);
  return DecodeTensor(r, TensorSpec{}, out);
}

void Link::SetUploadBase(int32_t client_id, TensorSpec* spec) const {
  if (codec_->id() != CodecId::kDelta || downloads_ == nullptr) return;
  if (const DownloadStash::Entry* e = downloads_->Find(client_id)) {
    spec->base = e->weights;
    spec->base_seq = e->seq;
  }
}

void Link::EncodeUploadWeights(int32_t client_id,
                               std::span<const float> weights,
                               serialize::Writer* w) {
  TensorSpec spec;
  SetUploadBase(client_id, &spec);
  if (codec_->id() == CodecId::kDelta) {
    spec.top_k = top_k_;
    spec.residual = &clients_[client_id].upload_residual;
  }
  EncodeTensor(weights, spec, w);
}

Status Link::DecodeUploadWeights(int32_t client_id, serialize::Reader* r,
                                 std::vector<float>* out) {
  TensorSpec spec;
  SetUploadBase(client_id, &spec);
  return DecodeTensor(r, spec, out);
}

void Link::EncodeMoments(int32_t client_id, std::span<const float> moments,
                         serialize::Writer* w) {
  TensorSpec spec;
  ClientState* c = nullptr;
  if (codec_->id() == CodecId::kDelta) {
    c = &clients_[client_id];
    spec.base = c->moments_base;
    spec.base_seq = c->moments_seq;
    // Moments ship exact: they steer the Eq. 6/7 aggregation weights, so
    // truncation is disproportionately harmful, and they are a sliver of
    // the round's bytes that keeps shrinking as the fleet converges.
    spec.exact = true;
    // Commit at encode time: the base becomes what the peer will
    // reconstruct. If the peer never processes this response the seq tag
    // of the next one fails decode and the connection is dropped — the
    // same outcome every other mid-exchange failure already has.
    spec.reconstruction = &c->moments_base;
  }
  EncodeTensor(moments, spec, w);
  if (c != nullptr) ++c->moments_seq;
}

Status Link::DecodeMoments(int32_t client_id, serialize::Reader* r,
                           std::vector<float>* out) {
  TensorSpec spec;
  ClientState* c = nullptr;
  if (codec_->id() == CodecId::kDelta) {
    c = &clients_[client_id];
    spec.base = c->moments_base;
    spec.base_seq = c->moments_seq;
  }
  FEDGTA_RETURN_IF_ERROR(DecodeTensor(r, spec, out));
  if (c != nullptr) {
    // Commit at decode time, mirroring the peer's encode-time commit.
    c->moments_base = *out;
    ++c->moments_seq;
  }
  return OkStatus();
}

int64_t Link::TakeSavedBytes() { return std::exchange(saved_bytes_, 0); }

void Link::Reset(int32_t client_id) { clients_.erase(client_id); }

}  // namespace compress
}  // namespace net
}  // namespace fedgta
