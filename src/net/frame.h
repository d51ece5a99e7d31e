#ifndef FEDGTA_NET_FRAME_H_
#define FEDGTA_NET_FRAME_H_

#include <cstdint>

#include "common/serialize.h"
#include "net/socket.h"

namespace fedgta {
namespace net {

/// Message framing over a TCP stream.
///
/// Wire layout of one frame — an explicit 12-byte little-endian header,
/// encoded byte by byte (never a raw struct copy, which would ship
/// compiler padding and assume same-endian peers):
///   [0..3]  u32 frame magic, "FGNF"
///   [4..11] u64 payload size
///   [12..]  payload bytes
/// The payload is a serialize::Writer::Encode() buffer — i.e. it carries
/// its own magic/version/CRC header. The frame layer only delimits
/// messages; integrity is validated by serialize::Reader, so a corrupt,
/// truncated, or foreign frame always yields an error Status and never a
/// crash or a silent partial decode.
///
/// Compressed and uncompressed payloads share the one magic: which codec a
/// connection runs is fixed by its AssignConfig, not by each frame.
/// Counters: `net.bytes_sent`/`net.bytes_recv`/`net.messages`, plus
/// `net.bytes_wire` (frame bytes actually moved) and
/// `net.bytes_raw` (what those frames would have cost uncompressed — the
/// send path folds in the codec's saved bytes; the receive path adds its
/// share after decode via the rpc layer).

inline constexpr uint32_t kFrameMagic = 0x464E4746u;  // "FGNF"
/// Exact encoded header size on the wire.
inline constexpr size_t kFrameHeaderBytes = 12;
/// Upper bound on a frame payload; anything larger is treated as stream
/// corruption instead of an allocation attempt.
inline constexpr uint64_t kMaxFramePayload = 1ull << 31;  // 2 GiB

/// Serializes `writer`'s buffer and ships it as one frame. Accumulates
/// `net.bytes_sent` / `net.messages` / `net.bytes_wire`, and
/// `net.bytes_raw` as wire bytes plus `saved_bytes` (what a compression
/// Link trimmed from this payload; 0 for uncompressed frames). If
/// `wire_bytes` is non-null it receives the total bytes put on the wire,
/// so callers can keep per-message-type counters.
Status SendFrame(Socket& sock, const serialize::Writer& writer,
                 int64_t saved_bytes = 0, int64_t* wire_bytes = nullptr);

/// Receives one frame and returns a validated Reader over its payload.
/// The socket's recv timeout bounds the wait (kDeadlineExceeded).
/// Accumulates `net.bytes_recv` / `net.messages` / `net.bytes_wire` /
/// `net.bytes_raw`.
Result<serialize::Reader> RecvFrame(Socket& sock);

/// Global outbound throttle for bandwidth-constrained experiments: when
/// set to a positive rate, SendFrame sleeps so this process's sends
/// average at most `bytes_per_sec`. 0 (the default) disables the
/// throttle. Used by the bench tier's time-to-accuracy arm; not meant
/// for production paths.
void SetSendThrottleBytesPerSec(int64_t bytes_per_sec);

}  // namespace net
}  // namespace fedgta

#endif  // FEDGTA_NET_FRAME_H_
