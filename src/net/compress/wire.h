#ifndef FEDGTA_NET_COMPRESS_WIRE_H_
#define FEDGTA_NET_COMPRESS_WIRE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/serialize.h"
#include "net/compress/codec.h"
#include "net/download_stash.h"

namespace fedgta {
namespace net {
namespace compress {

/// Per-connection compression state (DESIGN.md §5j).
///
/// One Link lives on each side of a compressed connection: the coordinator
/// holds one per worker channel, the worker holds one for its socket. The
/// Link maps the three tensor streams of the protocol onto the assigned
/// codec and owns the delta-base state those streams need:
///
///   downloads (TrainRequest/EvalRequest weights, server → worker)
///     int8: quantized, stateless.
///     delta: shipped raw dense. The connection's DownloadStash (which the
///     caller fills: the server with what it sent, the worker with what it
///     decoded) is the client's exchange base; the Link only reads it.
///   upload weights (TrainResponse weights, worker → server)
///     delta: top-k sparse against the stashed download, tagged with its
///     stash seq, with a worker-local error-feedback residual carrying
///     unsent movement into the next round's selection.
///   moments (TrainResponse confidence-weighted moments, worker → server)
///     delta: top-k sparse against the last acked reconstruction; the
///     worker commits its base at encode time, the server at decode time,
///     and a sequence tag in the blob turns any desync (e.g. a response
///     the server never processed) into an error Status — which the
///     coordinator already treats as a dropped worker.
///
/// A Link must be used by one thread at a time; the repo's strict
/// request/response alternation per connection guarantees that.
///
/// A raw connection never constructs a Link at all (callers pass nullptr),
/// so its bytes are exactly the uncompressed wire format.
class Link {
 public:
  /// `codec` must be non-null (from FindCodec). `top_k` = elements per
  /// delta tensor, 0 = auto (n/8 floored at kDeltaAutoFloor). `downloads`
  /// is the connection's stash, read as the delta upload base; it must
  /// outlive the Link. Null leaves delta uploads without a base (dense).
  Link(const Codec* codec, int top_k, const DownloadStash* downloads);

  void EncodeDownload(int32_t client_id, std::span<const float> weights,
                      serialize::Writer* w);
  Status DecodeDownload(int32_t client_id, serialize::Reader* r,
                        std::vector<float>* out);

  void EncodeUploadWeights(int32_t client_id, std::span<const float> weights,
                           serialize::Writer* w);
  Status DecodeUploadWeights(int32_t client_id, serialize::Reader* r,
                             std::vector<float>* out);

  void EncodeMoments(int32_t client_id, std::span<const float> moments,
                     serialize::Writer* w);
  Status DecodeMoments(int32_t client_id, serialize::Reader* r,
                       std::vector<float>* out);

  /// Bytes saved by compression since the last call (raw-equivalent size
  /// minus bytes actually written; negative when a codec expanded a
  /// tensor). The frame layer folds this into `net.bytes_raw`.
  int64_t TakeSavedBytes();

  /// Drops the Link's per-client state for `client_id` (moments base and
  /// upload residual; the download stash is not the Link's). After a reset
  /// the next moments tensor for that client starts a fresh stream.
  void Reset(int32_t client_id);

 private:
  struct ClientState {
    std::vector<float> moments_base;
    int64_t moments_seq = 0;
    std::vector<float> upload_residual;
  };

  void EncodeTensor(std::span<const float> values, const TensorSpec& spec,
                    serialize::Writer* w);
  Status DecodeTensor(serialize::Reader* r, const TensorSpec& spec,
                      std::vector<float>* out);

  /// Fills the delta base of an upload from the stashed download.
  void SetUploadBase(int32_t client_id, TensorSpec* spec) const;

  const Codec* const codec_;
  const int top_k_;
  const DownloadStash* const downloads_;
  int64_t saved_bytes_ = 0;
  std::unordered_map<int32_t, ClientState> clients_;
};

}  // namespace compress
}  // namespace net
}  // namespace fedgta

#endif  // FEDGTA_NET_COMPRESS_WIRE_H_
