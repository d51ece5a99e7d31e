#include "net/frame.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/phase.h"

namespace fedgta {
namespace net {
namespace {

// Per-call registry resolution — same rationale as net/rpc.cc: no
// function-local static pinning a possibly-stale instance.
Counter& BytesSent() { return GlobalMetrics().GetCounter("net.bytes_sent"); }
Counter& BytesRecv() { return GlobalMetrics().GetCounter("net.bytes_recv"); }
Counter& BytesWire() { return GlobalMetrics().GetCounter("net.bytes_wire"); }
Counter& BytesRaw() { return GlobalMetrics().GetCounter("net.bytes_raw"); }
Counter& Messages() { return GlobalMetrics().GetCounter("net.messages"); }

std::atomic<int64_t> g_send_throttle_bytes_per_sec{0};

void PutLe32(uint32_t v, uint8_t* out) {
  out[0] = static_cast<uint8_t>(v);
  out[1] = static_cast<uint8_t>(v >> 8);
  out[2] = static_cast<uint8_t>(v >> 16);
  out[3] = static_cast<uint8_t>(v >> 24);
}

void PutLe64(uint64_t v, uint8_t* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t GetLe32(const uint8_t* in) {
  return static_cast<uint32_t>(in[0]) | (static_cast<uint32_t>(in[1]) << 8) |
         (static_cast<uint32_t>(in[2]) << 16) |
         (static_cast<uint32_t>(in[3]) << 24);
}

uint64_t GetLe64(const uint8_t* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(in[i]) << (8 * i);
  return v;
}

/// Sleeps long enough that `bytes` at the configured throttle rate have
/// "drained" before returning. No-op when the throttle is off.
void ThrottleSend(uint64_t bytes) {
  const int64_t rate = g_send_throttle_bytes_per_sec.load();
  if (rate <= 0) return;
  const double seconds = static_cast<double>(bytes) / static_cast<double>(rate);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

void SetSendThrottleBytesPerSec(int64_t bytes_per_sec) {
  g_send_throttle_bytes_per_sec.store(bytes_per_sec);
}

Status SendFrame(Socket& sock, const serialize::Writer& writer,
                 int64_t saved_bytes, int64_t* wire_bytes) {
  std::string encoded;
  {
    FEDGTA_PHASE_SCOPE("net_serialize");
    encoded = writer.Encode();
  }
  if (encoded.size() > kMaxFramePayload) {
    return InvalidArgumentError("frame payload of " +
                                std::to_string(encoded.size()) +
                                " bytes exceeds the 2 GiB frame limit");
  }
  // Explicit little-endian encode, byte by byte: a raw struct write would
  // ship 4 uninitialized padding bytes and break on a big-endian peer.
  uint8_t header[kFrameHeaderBytes];
  PutLe32(kFrameMagic, header);
  PutLe64(encoded.size(), header + 4);

  FEDGTA_PHASE_SCOPE("net_send");
  const int64_t wire = static_cast<int64_t>(sizeof(header) + encoded.size());
  // Sleep before the write: the peer must not see the bytes until the
  // simulated link has had time to carry them, otherwise a loopback
  // benchmark pipelines both directions and the throttle measures nothing.
  ThrottleSend(static_cast<uint64_t>(wire));
  FEDGTA_RETURN_IF_ERROR(sock.WriteFull(header, sizeof(header)));
  FEDGTA_RETURN_IF_ERROR(sock.WriteFull(encoded.data(), encoded.size()));
  BytesSent().Increment(wire);
  BytesWire().Increment(wire);
  BytesRaw().Increment(wire + saved_bytes);
  Messages().Increment();
  if (wire_bytes != nullptr) *wire_bytes = wire;
  return OkStatus();
}

Result<serialize::Reader> RecvFrame(Socket& sock) {
  uint8_t header[kFrameHeaderBytes];
  std::string encoded;
  {
    FEDGTA_PHASE_SCOPE("net_recv");
    FEDGTA_RETURN_IF_ERROR(sock.ReadFull(header, sizeof(header)));
    if (GetLe32(header) != kFrameMagic) {
      return InvalidArgumentError("bad frame magic (stream corrupted)");
    }
    const uint64_t payload_size = GetLe64(header + 4);
    if (payload_size > kMaxFramePayload) {
      return InvalidArgumentError("frame declares " +
                                  std::to_string(payload_size) +
                                  " payload bytes, over the 2 GiB limit");
    }
    encoded.resize(payload_size);
    FEDGTA_RETURN_IF_ERROR(sock.ReadFull(encoded.data(), encoded.size()));
  }
  const int64_t wire = static_cast<int64_t>(sizeof(header) + encoded.size());
  BytesRecv().Increment(wire);
  BytesWire().Increment(wire);
  // Provisional: the rpc layer adds the codec's saved bytes after decode,
  // when a compression Link is attached to this connection.
  BytesRaw().Increment(wire);
  Messages().Increment();
  // Integrity (magic/version/CRC) is the serialize layer's job; a flipped
  // bit anywhere in the payload surfaces here as an error Status.
  FEDGTA_PHASE_SCOPE("net_serialize");
  return serialize::Reader::FromBuffer(std::move(encoded));
}

}  // namespace net
}  // namespace fedgta
