// Wire-compression plane tests (DESIGN.md §5j): varint/zigzag primitives,
// int8 quantization against its documented error bound on adversarial
// tensors, delta exact-reconstruction and desync detection, corruption
// fuzzing (malformed blobs are error Statuses, never crashes), the codec
// registry, and the per-connection Link's stream lifecycle.

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "net/compress/codec.h"
#include "net/compress/wire.h"
#include "net/rpc.h"

namespace fedgta {
namespace net {
namespace compress {
namespace {

// Encodes `values` with `codec` through the full serialize stack and
// decodes it back, returning the decode Status; on success `out` holds the
// reconstruction.
Status RoundTrip(const Codec& codec, const std::vector<float>& values,
                 const TensorSpec& encode_spec, const TensorSpec& decode_spec,
                 std::vector<float>* out) {
  serialize::Writer w;
  codec.Encode(values, encode_spec, &w);
  const std::string encoded = w.Encode();
  Result<serialize::Reader> reader = serialize::Reader::FromBuffer(encoded);
  if (!reader.ok()) return reader.status();
  FEDGTA_RETURN_IF_ERROR(codec.Decode(&*reader, decode_spec, out));
  if (!reader->AtEnd()) {
    return InternalError("codec left trailing bytes in the stream");
  }
  return OkStatus();
}

Status RoundTrip(const Codec& codec, const std::vector<float>& values,
                 std::vector<float>* out) {
  return RoundTrip(codec, values, TensorSpec{}, TensorSpec{}, out);
}

// The adversarial tensor menagerie the quantizer bounds are proven on.
std::vector<std::vector<float>> AdversarialTensors() {
  std::vector<std::vector<float>> tensors;
  tensors.push_back({});                            // empty
  tensors.push_back({0.0f, 0.0f, 0.0f, 0.0f});      // all zero
  tensors.push_back({1.0f, 1.0f, 1.0f});            // all equal
  tensors.push_back({-7.25f, -7.25f});              // all equal, negative
  tensors.push_back({1e-40f, -3e-41f, 5e-42f, 0.0f, -1e-40f});  // denormals
  tensors.push_back({1e8f, -1e8f, 1e-8f, -1e-8f, 0.5f});  // huge range
  tensors.push_back({std::numeric_limits<float>::max() / 4,
                     -std::numeric_limits<float>::max() / 4, 1.0f});
  // Deterministic pseudo-random mix, both signs, several magnitudes.
  std::vector<float> mixed(257);
  uint64_t state = 0x5714;
  for (float& v : mixed) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const float unit =
        static_cast<float>(static_cast<int64_t>(state >> 33) - (1ll << 30)) /
        static_cast<float>(1ll << 30);
    v = unit * static_cast<float>(1 + (state & 0xFF));
  }
  tensors.push_back(std::move(mixed));
  return tensors;
}

float MaxAbs(const std::vector<float>& values) {
  float m = 0.0f;
  for (float v : values) m = std::max(m, std::fabs(v));
  return m;
}

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint(v, &buf);
    size_t pos = 0;
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint(buf, &pos, &got).ok()) << v;
    EXPECT_EQ(got, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncationAndOverflowAreErrors) {
  std::string buf;
  PutVarint(1ull << 40, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    uint64_t got = 0;
    EXPECT_FALSE(GetVarint(buf.substr(0, cut), &pos, &got).ok());
  }
  // 10 continuation bytes overflow 64 bits.
  const std::string evil(10, static_cast<char>(0xFF));
  size_t pos = 0;
  uint64_t got = 0;
  EXPECT_FALSE(GetVarint(evil, &pos, &got).ok());
}

TEST(ZigzagTest, RoundTripsSignedBoundaries) {
  const int64_t cases[] = {0,
                           -1,
                           1,
                           -2,
                           63,
                           -64,
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min()};
  for (int64_t v : cases) {
    std::string buf;
    PutZigzag(v, &buf);
    size_t pos = 0;
    int64_t got = 0;
    ASSERT_TRUE(GetZigzag(buf, &pos, &got).ok()) << v;
    EXPECT_EQ(got, v);
  }
  // Small magnitudes (either sign) stay one byte — the property the
  // encoding exists for.
  std::string buf;
  PutZigzag(-1, &buf);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(QuantizerTest, Int8ErrorWithinDocumentedBound) {
  const Codec* int8 = FindCodec("int8");
  ASSERT_NE(int8, nullptr);
  for (const std::vector<float>& tensor : AdversarialTensors()) {
    std::vector<float> out;
    ASSERT_TRUE(RoundTrip(*int8, tensor, &out).ok());
    ASSERT_EQ(out.size(), tensor.size());
    const float bound = MaxAbs(tensor) / 253.0f;
    for (size_t i = 0; i < tensor.size(); ++i) {
      EXPECT_LE(std::fabs(out[i] - tensor[i]), bound) << "elem " << i;
    }
  }
}

TEST(QuantizerTest, AllZeroTensorIsExactAndTiny) {
  // scale == 0 ships no per-element payload at all.
  const std::vector<float> zeros(1000, 0.0f);
  const Codec* int8 = FindCodec("int8");
  ASSERT_NE(int8, nullptr);
  serialize::Writer w;
  int8->Encode(zeros, TensorSpec{}, &w);
  EXPECT_LT(w.payload().size(), 32u);
  std::vector<float> out;
  ASSERT_TRUE(RoundTrip(*int8, zeros, &out).ok());
  EXPECT_EQ(out, zeros);
}

TEST(QuantizerTest, ReconstructionOutputMatchesDecoderExactly) {
  // The encode-side `reconstruction` out-param must be bit-identical to
  // what the decoder produces — the delta Link's base bookkeeping depends
  // on it.
  for (const char* name : {"raw", "int8", "delta"}) {
    const Codec* codec = FindCodec(name);
    ASSERT_NE(codec, nullptr);
    const std::vector<float> tensor = {3.14159f, -2.5f, 0.0f, 1e-6f, 88.0f};
    std::vector<float> predicted;
    TensorSpec spec;
    spec.reconstruction = &predicted;
    std::vector<float> out;
    ASSERT_TRUE(RoundTrip(*codec, tensor, spec, TensorSpec{}, &out).ok());
    ASSERT_EQ(predicted.size(), out.size()) << name;
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(predicted[i], out[i]) << name << " elem " << i;
    }
  }
}

TEST(DeltaTest, NoBaseFallsBackToDenseAndIsBitExact) {
  const Codec* delta = FindCodec("delta");
  ASSERT_NE(delta, nullptr);
  for (const std::vector<float>& tensor : AdversarialTensors()) {
    std::vector<float> out;
    ASSERT_TRUE(RoundTrip(*delta, tensor, &out).ok());
    ASSERT_EQ(out.size(), tensor.size());
    for (size_t i = 0; i < tensor.size(); ++i) {
      EXPECT_EQ(out[i], tensor[i]);  // dense section: bit-exact
    }
  }
}

TEST(DeltaTest, FullTopKAgainstBaseIsBitExact) {
  const Codec* delta = FindCodec("delta");
  std::vector<float> base(64), values(64);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = 0.1f * static_cast<float>(i);
    values[i] = base[i] + (i % 3 == 0 ? 0.731f : -0.002f);
  }
  TensorSpec spec;
  spec.base = base;
  spec.base_seq = 7;
  spec.top_k = static_cast<int>(values.size());  // ship everything
  std::vector<float> out;
  ASSERT_TRUE(RoundTrip(*delta, values, spec, spec, &out).ok());
  EXPECT_EQ(out, values);
}

TEST(DeltaTest, SparseShipsExactValuesAtChangedIndices) {
  const Codec* delta = FindCodec("delta");
  std::vector<float> base(128, 1.0f);
  std::vector<float> values = base;
  values[5] = -3.0f;   // |diff| = 4
  values[77] = 2.5f;   // |diff| = 1.5
  TensorSpec spec;
  spec.base = base;
  spec.top_k = 2;
  std::vector<float> out;
  ASSERT_TRUE(RoundTrip(*delta, values, spec, spec, &out).ok());
  ASSERT_EQ(out.size(), values.size());
  // The two changed coordinates arrive as exact fp32 VALUES (not float
  // diffs, which would not reconstruct bit-exactly); the rest is the base.
  EXPECT_EQ(out[5], -3.0f);
  EXPECT_EQ(out[77], 2.5f);
  EXPECT_EQ(out[0], 1.0f);
}

TEST(DeltaTest, ResidualCarriesUnsentMassToTheNextRound) {
  const Codec* delta = FindCodec("delta");
  std::vector<float> base(8, 0.0f);
  std::vector<float> values = {1.0f, 0.9f, 0.8f, 0.7f,
                               0.6f, 0.5f, 0.4f, 0.3f};
  std::vector<float> residual;
  TensorSpec spec;
  spec.base = base;
  spec.top_k = 2;
  spec.residual = &residual;
  serialize::Writer w;
  delta->Encode(values, spec, &w);
  ASSERT_EQ(residual.size(), values.size());
  // The two largest diffs shipped; their residual is cleared.
  EXPECT_EQ(residual[0], 0.0f);
  EXPECT_EQ(residual[1], 0.0f);
  // Unsent mass is left behind...
  EXPECT_EQ(residual[7], 0.3f);
  EXPECT_EQ(residual[2], 0.8f);
  // ...and biases the next round's selection: index 5's fresh 0.5 plus its
  // carried 0.5 (priority 1.0) and index 2's carried 0.8 outrank everyone,
  // so those two ship and clear while index 7 keeps accumulating.
  std::vector<float> next = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.5f, 0.0f, 0.3f};
  serialize::Writer w2;
  delta->Encode(next, spec, &w2);
  EXPECT_EQ(residual[5], 0.0f);
  EXPECT_EQ(residual[2], 0.0f);
  EXPECT_EQ(residual[7], 0.6f);  // 0.3 carried + 0.3 fresh, still unsent
}

TEST(DeltaTest, BaseSeqMismatchIsFailedPrecondition) {
  const Codec* delta = FindCodec("delta");
  std::vector<float> base(16, 2.0f);
  std::vector<float> values(16, 3.0f);
  TensorSpec encode_spec;
  encode_spec.base = base;
  encode_spec.base_seq = 4;
  encode_spec.top_k = 4;
  TensorSpec decode_spec = encode_spec;
  decode_spec.base_seq = 5;  // decoder advanced past the encoder's base
  std::vector<float> out;
  const Status st = RoundTrip(*delta, values, encode_spec, decode_spec, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;
}

TEST(DeltaTest, BaseSizeMismatchOnDecodeIsError) {
  const Codec* delta = FindCodec("delta");
  std::vector<float> base(16, 2.0f);
  std::vector<float> values(16, 3.0f);
  TensorSpec encode_spec;
  encode_spec.base = base;
  encode_spec.top_k = 4;
  std::vector<float> wrong_base(8, 2.0f);
  TensorSpec decode_spec;
  decode_spec.base = wrong_base;
  std::vector<float> out;
  EXPECT_FALSE(RoundTrip(*delta, values, encode_spec, decode_spec, &out)
                   .ok());
}

TEST(DeltaTest, CompressesLargeTensorByAtLeastFourTimes) {
  // The ISSUE gate, at unit scale: default top-k (n/8) on a model-sized
  // tensor must beat raw fp32 by >= 4x.
  const Codec* delta = FindCodec("delta");
  std::vector<float> base(1 << 16);
  std::vector<float> values(base.size());
  uint64_t state = 99;
  for (size_t i = 0; i < base.size(); ++i) {
    state = state * 6364136223846793005ull + 1;
    base[i] = static_cast<float>(state >> 40) * 1e-6f;
    values[i] = base[i] + static_cast<float>((state >> 20) & 0xFF) * 1e-3f;
  }
  TensorSpec spec;
  spec.base = base;
  spec.top_k = 0;  // auto: n / 8
  serialize::Writer w;
  delta->Encode(values, spec, &w);
  const size_t raw_bytes = sizeof(float) * values.size();
  EXPECT_LE(w.payload().size() * 4, raw_bytes)
      << "delta blob " << w.payload().size() << "B vs raw " << raw_bytes
      << "B";
}

TEST(DeltaTest, AutoTopKShipsSmallTensorsWholeAndStaysExact) {
  // Below kDeltaAutoFloor the auto mode ships the tensor whole (dense
  // form): sparsifying a few-hundred-parameter model saves almost nothing
  // but measurably slows convergence, so the reconstruction must be
  // bit-exact everywhere, base or no base.
  const Codec* delta = FindCodec("delta");
  std::vector<float> base(512), values(512);
  for (size_t i = 0; i < values.size(); ++i) {
    base[i] = static_cast<float>(i) * 0.25f;
    values[i] = base[i] + 1.0f + static_cast<float>(i % 3);
  }
  TensorSpec spec;
  spec.base = base;
  spec.top_k = 0;  // auto; n < kDeltaAutoFloor, so everything ships
  std::vector<float> out;
  ASSERT_TRUE(RoundTrip(*delta, values, spec, spec, &out).ok());
  EXPECT_EQ(out, values);
}

TEST(DeltaTest, ExactModeShipsChangedCoordinatesOnly) {
  // Exact mode (the moments path): every changed coordinate ships, the
  // unchanged ones reconstruct from the base, and the blob shrinks to
  // nothing as the tensor stabilizes.
  const Codec* delta = FindCodec("delta");
  std::vector<float> base(1000, 2.5f);
  std::vector<float> values = base;
  values[17] = -1.0f;
  values[500] = 0.0f;
  values[999] = 3.75f;
  TensorSpec spec;
  spec.base = base;
  spec.exact = true;
  serialize::Writer w;
  delta->Encode(values, spec, &w);
  EXPECT_LT(w.payload().size(), 64u) << "3 changed of 1000 should be tiny";
  std::vector<float> out;
  ASSERT_TRUE(RoundTrip(*delta, values, spec, spec, &out).ok());
  EXPECT_EQ(out, values);

  // All coordinates changed: the encoder must fall back to the (cheaper,
  // equally exact) dense form rather than pay sparse index overhead.
  std::vector<float> all_changed(base.size());
  for (size_t i = 0; i < all_changed.size(); ++i) {
    all_changed[i] = base[i] + 1.0f + static_cast<float>(i % 5);
  }
  serialize::Writer w2;
  delta->Encode(all_changed, spec, &w2);
  EXPECT_LE(w2.payload().size(),
            sizeof(uint64_t) + 8 + sizeof(float) * all_changed.size());
  ASSERT_TRUE(RoundTrip(*delta, all_changed, spec, spec, &out).ok());
  EXPECT_EQ(out, all_changed);
}

TEST(CorruptionTest, FlippedBytesNeverCrashOnlyErrorStatuses) {
  // Full-stack fuzz: flip every byte of the framed+CRC'd encoding in turn.
  // Either the serialize layer's CRC rejects the buffer or the codec's own
  // bounds checks do — a flip must never crash or return garbage lengths.
  const std::vector<float> tensor = {1.5f, -2.25f, 0.0f, 8.0f, -1e-3f};
  for (const char* name : {"raw", "int8", "delta"}) {
    const Codec* codec = FindCodec(name);
    serialize::Writer w;
    codec->Encode(tensor, TensorSpec{}, &w);
    const std::string good = w.Encode();
    for (size_t i = 0; i < good.size(); ++i) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ 0x20);
      Result<serialize::Reader> reader = serialize::Reader::FromBuffer(bad);
      if (!reader.ok()) continue;  // CRC caught it (the common case)
      std::vector<float> out;
      const Status st = codec->Decode(&*reader, TensorSpec{}, &out);
      if (st.ok()) {
        EXPECT_LE(out.size(), tensor.size() + 64) << name << " byte " << i;
      }
    }
  }
}

TEST(CorruptionTest, StructurallyMalformedBlobsAreErrors) {
  const Codec* delta = FindCodec("delta");
  const Codec* int8 = FindCodec("int8");
  const auto decode = [](const Codec* codec, const std::string& blob,
                         const TensorSpec& spec) {
    serialize::Writer w;
    w.WriteString(blob);
    const std::string encoded = w.Encode();
    Result<serialize::Reader> reader = serialize::Reader::FromBuffer(encoded);
    EXPECT_TRUE(reader.ok());
    std::vector<float> out;
    return codec->Decode(&*reader, spec, &out);
  };

  // Absurd element count: rejected before any allocation is attempted.
  {
    std::string blob;
    PutVarint(kMaxTensorElems + 1, &blob);
    blob.append(4, '\0');  // "scale"
    EXPECT_FALSE(decode(int8, blob, TensorSpec{}).ok());
  }
  // Count that doesn't match the bytes that follow.
  {
    std::string blob;
    PutVarint(100, &blob);
    const float scale = 1.0f;
    blob.append(reinterpret_cast<const char*>(&scale), sizeof(scale));
    blob.append(10, '\x7F');  // 10 quantized values, not 100
    EXPECT_FALSE(decode(int8, blob, TensorSpec{}).ok());
  }
  std::vector<float> base(4, 1.0f);
  TensorSpec with_base;
  with_base.base = base;
  // Unknown delta section flag.
  {
    std::string blob(1, '\x02');
    EXPECT_FALSE(decode(delta, blob, with_base).ok());
  }
  // Sparse section with nnz > n.
  {
    std::string blob(1, '\x01');
    PutZigzag(0, &blob);   // base_seq
    PutVarint(4, &blob);   // n
    PutVarint(9, &blob);   // nnz > n
    EXPECT_FALSE(decode(delta, blob, with_base).ok());
  }
  // Sparse section whose index gaps walk past n.
  {
    std::string blob(1, '\x01');
    PutZigzag(0, &blob);
    PutVarint(4, &blob);
    PutVarint(2, &blob);
    PutVarint(3, &blob);   // index 3
    PutVarint(5, &blob);   // next index 3 + 1 + 5 = 9 >= n
    blob.append(8, '\0');  // two fp32 values
    EXPECT_FALSE(decode(delta, blob, with_base).ok());
  }
  // Truncated mid-values.
  {
    std::string blob(1, '\x01');
    PutZigzag(0, &blob);
    PutVarint(4, &blob);
    PutVarint(2, &blob);
    PutVarint(0, &blob);
    PutVarint(0, &blob);
    blob.append(3, '\0');  // 3 bytes where 8 belong
    EXPECT_FALSE(decode(delta, blob, with_base).ok());
  }
}

TEST(RegistryTest, LooksUpEveryCodecByNameAndId) {
  const std::vector<std::string> names = ListCodecNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "raw");
  EXPECT_EQ(names[1], "int8");
  EXPECT_EQ(names[2], "delta");
  for (const std::string& name : names) {
    const Codec* codec = FindCodec(name);
    ASSERT_NE(codec, nullptr) << name;
    EXPECT_EQ(codec->name(), name);
    EXPECT_EQ(FindCodec(codec->id()), codec);
  }
  EXPECT_EQ(FindCodec("gzip"), nullptr);
  EXPECT_EQ(FindCodec(static_cast<CodecId>(250)), nullptr);
  // The retired fp16 codec and the old "off" spelling of raw are gone; so
  // is fp16's wire id.
  EXPECT_EQ(FindCodec("fp16"), nullptr);
  EXPECT_EQ(FindCodec("off"), nullptr);
  EXPECT_EQ(FindCodec(static_cast<CodecId>(1)), nullptr);
  // Wire ids are unchanged, so AssignConfig bytes are too.
  EXPECT_EQ(FindCodec("raw")->id(), static_cast<CodecId>(0));
  EXPECT_EQ(FindCodec("int8")->id(), static_cast<CodecId>(2));
  EXPECT_EQ(FindCodec("delta")->id(), static_cast<CodecId>(3));
}

TEST(LinkTest, TwoRoundExchangeKeepsBasesInLockstep) {
  // A server link and a worker link, driven exactly like one connection's
  // train exchanges: download (dense) -> upload weights (delta vs the
  // download) -> moments (delta vs last-acked) — twice.
  const Codec* delta = FindCodec("delta");
  DownloadStash server_stash;
  DownloadStash worker_stash;
  Link server(delta, 4, &server_stash);
  Link worker(delta, 4, &worker_stash);
  const int32_t client = 3;

  std::vector<float> model(32, 1.0f);
  std::vector<float> moments = {0.5f, 0.25f, 0.125f, 0.0625f};
  for (int round = 0; round < 2; ++round) {
    // Download.
    serialize::Writer down;
    server.EncodeDownload(client, model, &down);
    server_stash.Store(client, model);
    const std::string down_bytes = down.Encode();
    Result<serialize::Reader> down_r =
        serialize::Reader::FromBuffer(down_bytes);
    ASSERT_TRUE(down_r.ok());
    std::vector<float> worker_model;
    ASSERT_TRUE(worker.DecodeDownload(client, &*down_r, &worker_model).ok());
    EXPECT_EQ(worker_model, model);  // downloads are dense: bit-exact
    worker_stash.Store(client, worker_model);

    // Local training moves a few coordinates; upload the delta.
    worker_model[0] += 0.75f;
    worker_model[9] -= 0.5f;
    serialize::Writer up;
    worker.EncodeUploadWeights(client, worker_model, &up);
    worker.EncodeMoments(client, moments, &up);
    const std::string up_bytes = up.Encode();
    Result<serialize::Reader> up_r = serialize::Reader::FromBuffer(up_bytes);
    ASSERT_TRUE(up_r.ok());
    std::vector<float> got_weights, got_moments;
    ASSERT_TRUE(
        server.DecodeUploadWeights(client, &*up_r, &got_weights).ok());
    ASSERT_TRUE(server.DecodeMoments(client, &*up_r, &got_moments).ok());
    EXPECT_EQ(got_weights[0], worker_model[0]);
    EXPECT_EQ(got_weights[9], worker_model[9]);
    ASSERT_EQ(got_moments.size(), moments.size());

    // Next round's global model derives from the upload.
    model = got_weights;
    for (float& m : moments) m *= 0.5f;
  }
  // Compression did save bytes somewhere along the way.
  EXPECT_GT(worker.TakeSavedBytes() + server.TakeSavedBytes(), 0);
}

TEST(LinkTest, DesyncedMomentsBaseSurfacesAsError) {
  const Codec* delta = FindCodec("delta");
  Link worker(delta, 2, nullptr);
  Link server(delta, 2, nullptr);
  const int32_t client = 0;
  const std::vector<float> moments = {1.0f, 2.0f, 3.0f, 4.0f};

  // Round 1 establishes both bases.
  serialize::Writer w1;
  worker.EncodeMoments(client, moments, &w1);
  const std::string b1 = w1.Encode();
  Result<serialize::Reader> r1 = serialize::Reader::FromBuffer(b1);
  ASSERT_TRUE(r1.ok());
  std::vector<float> out;
  ASSERT_TRUE(server.DecodeMoments(client, &*r1, &out).ok());

  // The worker encodes round 2 (committing its base forward), but the
  // server never sees it — the response is lost. Round 3's blob then
  // carries a seq the server does not have.
  serialize::Writer w2;
  worker.EncodeMoments(client, moments, &w2);
  serialize::Writer w3;
  worker.EncodeMoments(client, moments, &w3);
  const std::string b3 = w3.Encode();
  Result<serialize::Reader> r3 = serialize::Reader::FromBuffer(b3);
  ASSERT_TRUE(r3.ok());
  const Status st = server.DecodeMoments(client, &*r3, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;

  // Reset clears the state: a fresh stream works again.
  server.Reset(client);
  worker.Reset(client);
  serialize::Writer w4;
  worker.EncodeMoments(client, moments, &w4);
  const std::string b4 = w4.Encode();
  Result<serialize::Reader> r4 = serialize::Reader::FromBuffer(b4);
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(server.DecodeMoments(client, &*r4, &out).ok());
  EXPECT_EQ(out, moments);
}

/// One side of a delta connection: its download stash and the Link that
/// reads it as the upload base.
struct DeltaEnd {
  DownloadStash stash;
  Link link{FindCodec("delta"), 4, &stash};
};

/// Ships `weights` as a full TrainRequest download from `server` to
/// `worker`, each side stashing its copy the way WorkerFleet and the
/// worker runner do.
void ResendDownload(int32_t client, const std::vector<float>& weights,
                    DeltaEnd* server, DeltaEnd* worker) {
  TrainRequestMsg req;
  req.client_id = client;
  req.weights = weights;
  server->stash.Store(client, weights);
  serialize::Writer w;
  req.Encode(&w, &server->link);
  const std::string bytes = w.Encode();
  Result<serialize::Reader> r = serialize::Reader::FromBuffer(bytes);
  ASSERT_TRUE(r.ok());
  TrainRequestMsg got;
  ASSERT_TRUE(got.Decode(&*r, &worker->link).ok());
  ASSERT_FALSE(got.reuse);
  worker->stash.Store(client, std::move(got.weights));
}

TEST(LinkTest, UploadAgainstAReusedStashMatchesOneAfterAResend) {
  // The eval download of round t is the train download of round t+1. Once
  // the worker holds it, pointing at the stash instead of sending it again
  // must leave the upload delta byte-identical, and neither path may move
  // the stash seq that the delta blob is tagged with.
  const int32_t client = 5;
  std::vector<float> round1(64), eval1(64);
  for (size_t i = 0; i < round1.size(); ++i) {
    round1[i] = 0.01f * static_cast<float>(i);
    eval1[i] = round1[i] + (i % 5 == 0 ? 0.5f : 0.0f);
  }
  std::string uploads[2];
  for (int resend = 0; resend < 2; ++resend) {
    DeltaEnd server, worker;
    ResendDownload(client, round1, &server, &worker);  // round 1 train
    ResendDownload(client, eval1, &server, &worker);   // round 1 eval
    ASSERT_EQ(server.stash.Find(client)->seq, 2);
    ASSERT_EQ(worker.stash.Find(client)->seq, 2);
    // Round 2 train: the server holds exactly these weights, so WorkerFleet
    // would send only the marker; the alternative sends them again.
    ASSERT_TRUE(server.stash.Holds(client, eval1));
    if (resend == 1) ResendDownload(client, eval1, &server, &worker);
    EXPECT_EQ(server.stash.Find(client)->seq, 2);
    EXPECT_EQ(worker.stash.Find(client)->seq, 2);

    std::vector<float> trained = worker.stash.Find(client)->weights;
    trained[3] += 1.0f;
    trained[40] -= 0.25f;
    serialize::Writer up;
    worker.link.EncodeUploadWeights(client, trained, &up);
    uploads[resend] = up.Encode();
    Result<serialize::Reader> r = serialize::Reader::FromBuffer(uploads[resend]);
    ASSERT_TRUE(r.ok());
    std::vector<float> got;
    ASSERT_TRUE(server.link.DecodeUploadWeights(client, &*r, &got).ok());
    EXPECT_EQ(got[3], trained[3]);
    EXPECT_EQ(got[40], trained[40]);
  }
  EXPECT_EQ(uploads[0], uploads[1]);
}

}  // namespace
}  // namespace compress
}  // namespace net
}  // namespace fedgta
