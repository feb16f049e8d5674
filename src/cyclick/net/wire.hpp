// Wire protocol for the socket transport: length-prefixed frames with a
// fixed 32-byte header carrying magic, version, frame type, the channel
// (from rank -> to rank), the payload length, and an FNV-1a 64 checksum of
// the payload.
//
// Layout (all fields little-endian on the wire):
//
//   offset  size  field
//        0     4  magic     "CYK1" (0x314B5943)
//        4     2  version   kWireVersion
//        6     2  type      FrameType (hello / data)
//        8     4  from      sending rank
//       12     4  to        receiving rank
//       16     8  payload_bytes
//       24     8  checksum  FNV-1a 64 over the payload bytes
//
// Hello frames carry no payload; each side of a freshly accepted
// connection identifies itself with one so the mesh can map fds to ranks.
// Every header is validated on receipt (magic, version, type, rank range,
// payload bound) and every payload is re-checksummed; a mismatch is a
// protocol error the transport surfaces as a TransportError naming the
// channel — corrupt frames are rejected, never delivered.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "cyclick/support/types.hpp"

namespace cyclick::net {

inline constexpr u64 kWireMagic = 0x314B5943;  // "CYK1"
inline constexpr u64 kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 32;

/// Frames larger than this are rejected as protocol errors (a corrupt
/// length prefix would otherwise turn into an absurd allocation).
inline constexpr u64 kMaxPayloadBytes = u64{1} << 40;

enum class FrameType : u64 {
  kHello = 0,  ///< connection handshake: identifies the sending rank
  kData = 1,   ///< one Transport message
};

struct FrameHeader {
  u64 magic = kWireMagic;
  u64 version = kWireVersion;
  FrameType type = FrameType::kData;
  i64 from = 0;
  i64 to = 0;
  u64 payload_bytes = 0;
  u64 checksum = 0;
};

/// FNV-1a 64-bit checksum (dependency-free, byte-order independent).
[[nodiscard]] u64 fnv1a64(const std::byte* data, std::size_t n) noexcept;

/// Serialize `h` into exactly kHeaderBytes at `out`.
void encode_header(const FrameHeader& h, std::byte* out) noexcept;

/// Parse kHeaderBytes at `in`. Returns the header, or an error description
/// in `error` (magic / version / type / payload-bound violations) with
/// nullopt. Rank-range and checksum validation are the caller's job (they
/// need the world size and the payload).
[[nodiscard]] std::optional<FrameHeader> decode_header(const std::byte* in,
                                                       std::string& error);

}  // namespace cyclick::net
