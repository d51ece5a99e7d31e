#include "net/compress/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace fedgta {
namespace net {
namespace compress {
namespace {

void PutFloat(float v, std::string* out) {
  char raw[sizeof(float)];
  std::memcpy(raw, &v, sizeof(float));
  out->append(raw, sizeof(float));
}

Status GetFloat(std::string_view buf, size_t* pos, float* out) {
  if (buf.size() - *pos < sizeof(float)) {
    return OutOfRangeError("compressed tensor truncated reading float");
  }
  std::memcpy(out, buf.data() + *pos, sizeof(float));
  *pos += sizeof(float);
  return OkStatus();
}

/// Reads the declared element count of a tensor section and validates it
/// against kMaxTensorElems and the bytes actually available, so a corrupt
/// length can never drive an unbounded allocation.
Status GetCount(std::string_view buf, size_t* pos, uint64_t elem_bytes,
                uint64_t* out) {
  FEDGTA_RETURN_IF_ERROR(GetVarint(buf, pos, out));
  if (*out > kMaxTensorElems) {
    return InvalidArgumentError("compressed tensor declares " +
                                std::to_string(*out) +
                                " elements, over the limit (corrupted)");
  }
  if (elem_bytes > 0 && (buf.size() - *pos) / elem_bytes < *out) {
    return OutOfRangeError("compressed tensor truncated: " +
                           std::to_string(*out) + " elements declared, " +
                           std::to_string(buf.size() - *pos) +
                           " bytes remain");
  }
  return OkStatus();
}

float MaxAbs(std::span<const float> values) {
  float m = 0.0f;
  for (float v : values) m = std::max(m, std::fabs(v));
  return m;
}

// ---------------------------------------------------------------------------

class RawCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kRaw; }
  const char* name() const override { return "raw"; }

  void Encode(std::span<const float> values, const TensorSpec& spec,
              serialize::Writer* w) const override {
    // Identity: exactly the WriteFloatVec bytes an uncompressed
    // connection ships.
    w->WriteFloatVec(values);
    if (spec.reconstruction != nullptr) {
      spec.reconstruction->assign(values.begin(), values.end());
    }
  }

  Status Decode(serialize::Reader* r, const TensorSpec&,
                std::vector<float>* out) const override {
    return r->ReadFloatVec(out);
  }
};

// ---------------------------------------------------------------------------

class Int8Codec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kInt8; }
  const char* name() const override { return "int8"; }

  // Blob: varint n | fp32 scale | n int8 of round(value/scale).
  // scale = max|x| / 127, so quantized values fit [-127, 127] and the
  // round-trip error is bounded by max|x| / 253 per element (tested).
  void Encode(std::span<const float> values, const TensorSpec& spec,
              serialize::Writer* w) const override {
    const float max_abs = MaxAbs(values);
    const float scale = max_abs / 127.0f;
    std::string blob;
    blob.reserve(10 + sizeof(float) + values.size());
    PutVarint(values.size(), &blob);
    PutFloat(scale, &blob);
    std::vector<float> recon(values.size(), 0.0f);
    if (scale > 0.0f) {
      for (size_t i = 0; i < values.size(); ++i) {
        const long q = std::lround(values[i] / scale);
        const int8_t b = static_cast<int8_t>(std::clamp<long>(q, -127, 127));
        blob.push_back(static_cast<char>(b));
        recon[i] = static_cast<float>(b) * scale;
      }
    }
    w->WriteString(blob);
    if (spec.reconstruction != nullptr) *spec.reconstruction = std::move(recon);
  }

  Status Decode(serialize::Reader* r, const TensorSpec&,
                std::vector<float>* out) const override {
    std::string blob;
    FEDGTA_RETURN_IF_ERROR(r->ReadString(&blob));
    size_t pos = 0;
    uint64_t n = 0;
    FEDGTA_RETURN_IF_ERROR(GetCount(blob, &pos, 0, &n));
    float scale = 0.0f;
    FEDGTA_RETURN_IF_ERROR(GetFloat(blob, &pos, &scale));
    out->assign(n, 0.0f);
    if (scale != 0.0f) {
      if (blob.size() - pos < n) {
        return OutOfRangeError("int8 tensor truncated");
      }
      for (uint64_t i = 0; i < n; ++i) {
        (*out)[i] =
            static_cast<float>(static_cast<int8_t>(blob[pos + i])) * scale;
      }
      pos += n;
    }
    if (pos != blob.size()) {
      return InvalidArgumentError("trailing bytes in int8 tensor");
    }
    return OkStatus();
  }
};

// ---------------------------------------------------------------------------

constexpr uint8_t kDeltaDense = 0;
constexpr uint8_t kDeltaSparse = 1;

class DeltaCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kDelta; }
  const char* name() const override { return "delta"; }

  // Blob, dense form (no usable base — stream start or resync):
  //   u8 flag=0 | varint n | n fp32 values
  // Blob, sparse form:
  //   u8 flag=1 | zigzag base_seq | varint n | varint nnz
  //   | nnz varint index gaps | nnz fp32 values
  // Sparse entries carry the exact current VALUE at each index, not a
  // float difference: base[i] + (v[i] - base[i]) need not equal v[i] in
  // IEEE arithmetic, whereas overwriting with v[i] reconstructs it
  // bit-exactly. The diff (plus any error-feedback residual) only ranks
  // which indices to ship.
  void Encode(std::span<const float> values, const TensorSpec& spec,
              serialize::Writer* w) const override {
    const size_t n = values.size();
    std::string blob;
    if (spec.base.size() != n || n == 0) {
      blob.reserve(12 + 4 * n);
      blob.push_back(static_cast<char>(kDeltaDense));
      PutVarint(n, &blob);
      for (float v : values) PutFloat(v, &blob);
      if (spec.residual != nullptr) spec.residual->assign(n, 0.0f);
      w->WriteString(blob);
      if (spec.reconstruction != nullptr) {
        spec.reconstruction->assign(values.begin(), values.end());
      }
      return;
    }

    if (spec.residual != nullptr && spec.residual->size() != n) {
      spec.residual->assign(n, 0.0f);
    }
    std::vector<float> priority(n);
    for (size_t i = 0; i < n; ++i) {
      priority[i] = values[i] - spec.base[i];
      if (spec.residual != nullptr) priority[i] += (*spec.residual)[i];
    }

    std::vector<uint32_t> idx;
    if (spec.exact) {
      // Ship exactly the changed coordinates; unchanged ones reconstruct
      // from the (seq-checked) base bit for bit.
      for (size_t i = 0; i < n; ++i) {
        if (priority[i] != 0.0f) idx.push_back(static_cast<uint32_t>(i));
      }
    } else {
      size_t k = spec.top_k > 0
                     ? static_cast<size_t>(spec.top_k)
                     : std::max(static_cast<size_t>(kDeltaAutoFloor), n / 8);
      k = std::min(k, n);
      idx.resize(n);
      std::iota(idx.begin(), idx.end(), 0u);
      std::nth_element(idx.begin(), idx.begin() + (k - 1), idx.end(),
                       [&](uint32_t a, uint32_t b) {
                         const float fa = std::fabs(priority[a]);
                         const float fb = std::fabs(priority[b]);
                         // Ties broken by index for determinism.
                         return fa != fb ? fa > fb : a < b;
                       });
      idx.resize(k);
      std::sort(idx.begin(), idx.end());
    }
    const size_t k = idx.size();

    // Dense when every element ships anyway, and in exact mode whenever
    // the gap+value sparse form (~5 bytes/element) would cost more than
    // just writing the tensor (~4): both forms are exact, and a dense
    // blob is self-contained — it can never desync a base, so skipping
    // the seq tag loses nothing.
    if (k == n || (spec.exact && 5 * k + 2 >= 4 * n)) {
      blob.reserve(12 + 4 * n);
      blob.push_back(static_cast<char>(kDeltaDense));
      PutVarint(n, &blob);
      for (float v : values) PutFloat(v, &blob);
      if (spec.residual != nullptr) spec.residual->assign(n, 0.0f);
      w->WriteString(blob);
      if (spec.reconstruction != nullptr) {
        spec.reconstruction->assign(values.begin(), values.end());
      }
      return;
    }

    blob.reserve(24 + 6 * k);
    blob.push_back(static_cast<char>(kDeltaSparse));
    PutZigzag(spec.base_seq, &blob);
    PutVarint(n, &blob);
    PutVarint(k, &blob);
    uint32_t prev = 0;
    for (size_t j = 0; j < k; ++j) {
      PutVarint(j == 0 ? idx[j] : idx[j] - prev - 1, &blob);
      prev = idx[j];
    }
    for (uint32_t i : idx) PutFloat(values[i], &blob);

    if (spec.residual != nullptr) {
      // Shipped indices reconstruct exactly; unsent movement carries over.
      std::vector<float>& res = *spec.residual;
      for (size_t i = 0; i < n; ++i) res[i] = priority[i];
      for (uint32_t i : idx) res[i] = 0.0f;
    }
    w->WriteString(blob);
    if (spec.reconstruction != nullptr) {
      // Built into a fresh vector first: reconstruction may alias base.
      std::vector<float> recon(spec.base.begin(), spec.base.end());
      for (uint32_t i : idx) recon[i] = values[i];
      *spec.reconstruction = std::move(recon);
    }
  }

  Status Decode(serialize::Reader* r, const TensorSpec& spec,
                std::vector<float>* out) const override {
    std::string blob;
    FEDGTA_RETURN_IF_ERROR(r->ReadString(&blob));
    size_t pos = 0;
    if (blob.empty()) return OutOfRangeError("empty delta tensor");
    const uint8_t flag = static_cast<uint8_t>(blob[pos++]);

    if (flag == kDeltaDense) {
      uint64_t n = 0;
      FEDGTA_RETURN_IF_ERROR(GetCount(blob, &pos, sizeof(float), &n));
      out->resize(n);
      for (uint64_t i = 0; i < n; ++i) {
        FEDGTA_RETURN_IF_ERROR(GetFloat(blob, &pos, &(*out)[i]));
      }
      if (pos != blob.size()) {
        return InvalidArgumentError("trailing bytes in delta tensor");
      }
      return OkStatus();
    }
    if (flag != kDeltaSparse) {
      return InvalidArgumentError("bad delta tensor flag " +
                                  std::to_string(flag) + " (corrupted)");
    }

    int64_t base_seq = 0;
    FEDGTA_RETURN_IF_ERROR(GetZigzag(blob, &pos, &base_seq));
    if (base_seq != spec.base_seq) {
      return FailedPreconditionError(
          "delta base desync: peer encoded against base seq " +
          std::to_string(base_seq) + ", decoder holds seq " +
          std::to_string(spec.base_seq));
    }
    uint64_t n = 0;
    FEDGTA_RETURN_IF_ERROR(GetCount(blob, &pos, 0, &n));
    if (n != spec.base.size()) {
      return FailedPreconditionError(
          "delta base desync: tensor of " + std::to_string(n) +
          " elements vs base of " + std::to_string(spec.base.size()));
    }
    uint64_t nnz = 0;
    FEDGTA_RETURN_IF_ERROR(GetVarint(blob, &pos, &nnz));
    if (nnz > n) {
      return InvalidArgumentError("delta tensor declares " +
                                  std::to_string(nnz) + " nonzeros in " +
                                  std::to_string(n) + " elements");
    }
    std::vector<uint32_t> idx(nnz);
    uint64_t prev = 0;
    for (uint64_t j = 0; j < nnz; ++j) {
      uint64_t gap = 0;
      FEDGTA_RETURN_IF_ERROR(GetVarint(blob, &pos, &gap));
      const uint64_t i = j == 0 ? gap : prev + 1 + gap;
      if (i >= n) {
        return InvalidArgumentError("delta index " + std::to_string(i) +
                                    " out of range (corrupted)");
      }
      idx[j] = static_cast<uint32_t>(i);
      prev = i;
    }
    out->assign(spec.base.begin(), spec.base.end());
    for (uint64_t j = 0; j < nnz; ++j) {
      FEDGTA_RETURN_IF_ERROR(GetFloat(blob, &pos, &(*out)[idx[j]]));
    }
    if (pos != blob.size()) {
      return InvalidArgumentError("trailing bytes in delta tensor");
    }
    return OkStatus();
  }
};

const RawCodec kRawCodec;
const Int8Codec kInt8Codec;
const DeltaCodec kDeltaCodec;

const Codec* const kCodecs[] = {&kRawCodec, &kInt8Codec, &kDeltaCodec};

}  // namespace

const Codec* FindCodec(std::string_view name) {
  for (const Codec* c : kCodecs) {
    if (name == c->name()) return c;
  }
  return nullptr;
}

const Codec* FindCodec(CodecId id) {
  for (const Codec* c : kCodecs) {
    if (id == c->id()) return c;
  }
  return nullptr;
}

std::vector<std::string> ListCodecNames() {
  std::vector<std::string> names;
  for (const Codec* c : kCodecs) names.emplace_back(c->name());
  return names;
}

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutZigzag(int64_t v, std::string* out) {
  PutVarint((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63),
            out);
}

Status GetVarint(std::string_view buf, size_t* pos, uint64_t* out) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= buf.size()) {
      return OutOfRangeError("varint truncated");
    }
    const uint8_t byte = static_cast<uint8_t>(buf[(*pos)++]);
    if (shift == 63 && (byte & 0xFE) != 0) {
      return InvalidArgumentError("varint overflows 64 bits");
    }
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return OkStatus();
    }
  }
  return InvalidArgumentError("varint longer than 10 bytes");
}

Status GetZigzag(std::string_view buf, size_t* pos, int64_t* out) {
  uint64_t raw = 0;
  FEDGTA_RETURN_IF_ERROR(GetVarint(buf, pos, &raw));
  *out = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  return OkStatus();
}

}  // namespace compress
}  // namespace net
}  // namespace fedgta
