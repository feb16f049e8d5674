#include "cyclick/net/wire.hpp"

namespace cyclick::net {

namespace {

void put_u16(std::byte* out, u64 v) noexcept {
  out[0] = static_cast<std::byte>(v & 0xff);
  out[1] = static_cast<std::byte>((v >> 8) & 0xff);
}

void put_u32(std::byte* out, u64 v) noexcept {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

void put_u64(std::byte* out, u64 v) noexcept {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

[[nodiscard]] u64 get_n(const std::byte* in, int n) noexcept {
  u64 v = 0;
  for (int i = 0; i < n; ++i) v |= static_cast<u64>(in[i]) << (8 * i);
  return v;
}

}  // namespace

u64 fnv1a64(const std::byte* data, std::size_t n) noexcept {
  u64 h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<u64>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void encode_header(const FrameHeader& h, std::byte* out) noexcept {
  put_u32(out + 0, h.magic);
  put_u16(out + 4, h.version);
  put_u16(out + 6, static_cast<u64>(h.type));
  put_u32(out + 8, static_cast<u64>(static_cast<u64>(h.from) & 0xffffffffULL));
  put_u32(out + 12, static_cast<u64>(static_cast<u64>(h.to) & 0xffffffffULL));
  put_u64(out + 16, h.payload_bytes);
  put_u64(out + 24, h.checksum);
}

std::optional<FrameHeader> decode_header(const std::byte* in, std::string& error) {
  FrameHeader h;
  h.magic = get_n(in + 0, 4);
  h.version = get_n(in + 4, 2);
  const u64 type = get_n(in + 6, 2);
  h.from = static_cast<i64>(get_n(in + 8, 4));
  h.to = static_cast<i64>(get_n(in + 12, 4));
  h.payload_bytes = get_n(in + 16, 8);
  h.checksum = get_n(in + 24, 8);
  if (h.magic != kWireMagic) {
    error = "bad frame magic 0x" + std::to_string(h.magic) + " (stream desynchronized?)";
    return std::nullopt;
  }
  if (h.version != kWireVersion) {
    error = "unsupported wire version " + std::to_string(h.version) + " (expected " +
            std::to_string(kWireVersion) + ")";
    return std::nullopt;
  }
  if (type > static_cast<u64>(FrameType::kData)) {
    error = "unknown frame type " + std::to_string(type);
    return std::nullopt;
  }
  h.type = static_cast<FrameType>(type);
  if (h.payload_bytes > kMaxPayloadBytes) {
    error = "frame payload length " + std::to_string(h.payload_bytes) +
            " exceeds the protocol maximum";
    return std::nullopt;
  }
  return h;
}

}  // namespace cyclick::net
