#ifndef FEDGTA_NET_DOWNLOAD_STASH_H_
#define FEDGTA_NET_DOWNLOAD_STASH_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

namespace fedgta {
namespace net {

/// The last model download each client received over one connection
/// (DESIGN.md §5e). The server keeps what it sent, the worker what it
/// decoded; a Train/Eval request whose weights equal the server's copy bit
/// for bit ships only a reuse marker and the worker trains or evaluates from
/// its own copy. The delta codec's upload base is this same copy
/// (compress::Link reads it), so each side holds one vector per client.
///
/// Like compress::Link, a stash belongs to one connection and is touched
/// only by the thread currently driving it.
class DownloadStash {
 public:
  struct Entry {
    std::vector<float> weights;
    /// Distinct downloads stored for the client so far: the sequence tag
    /// the delta codec stamps into uploads encoded against `weights`.
    int64_t seq = 0;
  };

  /// The client's last download; null before its first.
  const Entry* Find(int32_t client_id) const {
    auto it = entries_.find(client_id);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// True when `weights` equal the stashed copy bit for bit.
  bool Holds(int32_t client_id, std::span<const float> weights) const {
    const Entry* e = Find(client_id);
    return e != nullptr && e->weights.size() == weights.size() &&
           (weights.empty() ||
            std::memcmp(e->weights.data(), weights.data(),
                        weights.size() * sizeof(float)) == 0);
  }

  /// Keeps `weights` as the client's download. Storing the copy already
  /// held changes nothing, so a resent request cannot advance seq twice.
  void Store(int32_t client_id, std::vector<float> weights) {
    if (Holds(client_id, weights)) return;
    Entry& e = entries_[client_id];
    e.weights = std::move(weights);
    ++e.seq;
  }

 private:
  std::unordered_map<int32_t, Entry> entries_;
};

}  // namespace net
}  // namespace fedgta

#endif  // FEDGTA_NET_DOWNLOAD_STASH_H_
