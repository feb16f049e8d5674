// Wire-protocol tests: header encode/decode round trips, rejection of
// malformed headers, FNV-1a checksum properties, fault injection against a
// live connect_mesh endpoint over a raw socket, and a seeded mutation soak
// of both — corrupt or misrouted frames must surface as a named error (a
// TransportError naming the channel on the receive path), never as
// delivered data, a crash or a hang.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cyclick/net/socket.hpp"
#include "cyclick/net/socket_transport.hpp"
#include "cyclick/net/wire.hpp"

namespace cyclick::net {
namespace {

TEST(Wire, HeaderRoundTripsAllFields) {
  FrameHeader h;
  h.type = FrameType::kData;
  h.from = 7;
  h.to = 12345;
  h.payload_bytes = 0x1234567890ULL;
  h.checksum = 0xdeadbeefcafef00dULL;
  std::array<std::byte, kHeaderBytes> buf{};
  encode_header(h, buf.data());
  std::string err;
  const auto back = decode_header(buf.data(), err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->magic, kWireMagic);
  EXPECT_EQ(back->version, kWireVersion);
  EXPECT_EQ(back->type, FrameType::kData);
  EXPECT_EQ(back->from, 7);
  EXPECT_EQ(back->to, 12345);
  EXPECT_EQ(back->payload_bytes, 0x1234567890ULL);
  EXPECT_EQ(back->checksum, 0xdeadbeefcafef00dULL);
}

TEST(Wire, HelloRoundTrips) {
  FrameHeader h;
  h.type = FrameType::kHello;
  h.from = 3;
  h.to = 0;
  std::array<std::byte, kHeaderBytes> buf{};
  encode_header(h, buf.data());
  std::string err;
  const auto back = decode_header(buf.data(), err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->type, FrameType::kHello);
  EXPECT_EQ(back->payload_bytes, 0u);
}

TEST(Wire, MalformedHeadersRejectedWithReason) {
  FrameHeader good;
  std::array<std::byte, kHeaderBytes> buf{};
  std::string err;

  encode_header(good, buf.data());
  buf[0] = std::byte{0x00};  // clobber the magic
  EXPECT_FALSE(decode_header(buf.data(), err).has_value());
  EXPECT_NE(err.find("magic"), std::string::npos) << err;

  encode_header(good, buf.data());
  buf[4] = std::byte{0x7f};  // clobber the version
  EXPECT_FALSE(decode_header(buf.data(), err).has_value());
  EXPECT_NE(err.find("version"), std::string::npos) << err;

  // Unknown frame types, including the retired raw values 2-4, are
  // rejected by name.
  for (const int type : {2, 3, 4, 9}) {
    encode_header(good, buf.data());
    buf[6] = static_cast<std::byte>(type);
    EXPECT_FALSE(decode_header(buf.data(), err).has_value()) << "type " << type;
    EXPECT_NE(err.find("type"), std::string::npos) << err;
  }

  FrameHeader huge;
  huge.payload_bytes = kMaxPayloadBytes + 1;
  encode_header(huge, buf.data());
  EXPECT_FALSE(decode_header(buf.data(), err).has_value());
  EXPECT_NE(err.find("payload"), std::string::npos) << err;
}

TEST(Wire, Fnv1a64MatchesReferenceVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64(nullptr, 0), 0xcbf29ce484222325ULL);
  const auto hash_str = [](const char* s) {
    return fnv1a64(reinterpret_cast<const std::byte*>(s), std::strlen(s));
  };
  EXPECT_EQ(hash_str("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(hash_str("foobar"), 0x85944171f73967e8ULL);
}

TEST(Wire, ChecksumIsSensitiveToEveryByte) {
  std::vector<std::byte> payload(64, std::byte{0x5a});
  const u64 base = fnv1a64(payload.data(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = std::byte{0x5b};
    EXPECT_NE(fnv1a64(payload.data(), payload.size()), base) << "byte " << i;
    payload[i] = std::byte{0x5a};
  }
}

// --- fault injection against a live endpoint -------------------------------

/// A rank-0 connect_mesh endpoint in a world of 2, plus a raw client socket
/// posing as rank 1, so tests can write arbitrary bytes onto the wire.
struct RawPeerHarness {
  std::string dir;
  std::unique_ptr<SocketTransport> transport;
  Fd raw;

  explicit RawPeerHarness(bool send_valid_hello = true) {
    std::string tmpl = ::testing::TempDir() + "cyclick-wire-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
    dir = buf.data();

    // connect_mesh(0, 2) blocks accepting rank 1, so it runs on a thread
    // while this thread plays rank 1 over a raw socket.
    std::thread server([this] {
      SocketTransport::Options opts;
      opts.recv_timeout_ms = 10000;  // convert any test bug into a failure, not a hang
      transport = SocketTransport::connect_mesh(0, 2, dir, opts);
    });
    try {
      raw = unix_connect_retry(dir + "/rank-0.sock", 10000, 1, 0);
      if (send_valid_hello) {
        FrameHeader hello;
        hello.type = FrameType::kHello;
        hello.from = 1;
        hello.to = 0;
        write_frame(hello);
      }
    } catch (...) {
      server.join();
      throw;
    }
    server.join();
  }

  ~RawPeerHarness() {
    raw.reset();
    transport.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  void write_frame(const FrameHeader& h, const std::vector<std::byte>& payload = {}) {
    std::array<std::byte, kHeaderBytes> hdr{};
    encode_header(h, hdr.data());
    write_fully(raw.get(), hdr.data(), hdr.size());
    if (!payload.empty()) write_fully(raw.get(), payload.data(), payload.size());
  }
};

TEST(WireFaults, ChecksumMismatchRejectsFrameAndNamesChannel) {
  RawPeerHarness h;
  std::vector<std::byte> payload(16, std::byte{0x11});
  FrameHeader frame;
  frame.from = 1;
  frame.to = 0;
  frame.payload_bytes = payload.size();
  frame.checksum = fnv1a64(payload.data(), payload.size()) ^ 1;  // corrupt
  h.write_frame(frame, payload);
  try {
    (void)h.transport->recv(0, 1);
    FAIL() << "corrupt frame must not be delivered";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1->0"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
  }
}

TEST(WireFaults, MisroutedFrameRejected) {
  RawPeerHarness h;
  FrameHeader frame;
  frame.from = 1;
  frame.to = 7;  // not this endpoint
  frame.checksum = fnv1a64(nullptr, 0);
  h.write_frame(frame);
  try {
    (void)h.transport->recv(0, 1);
    FAIL() << "misrouted frame must not be delivered";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("misrouted"), std::string::npos) << e.what();
  }
}

TEST(WireFaults, VersionMismatchedPeerRejectedWithNamedError) {
  // A peer that advertises an unsupported wire version must surface as a
  // named TransportError on the receiving endpoint, never as silent garbage
  // or a hang.
  RawPeerHarness h;
  FrameHeader frame;
  frame.from = 1;
  frame.to = 0;
  frame.checksum = fnv1a64(nullptr, 0);
  std::array<std::byte, kHeaderBytes> hdr{};
  encode_header(frame, hdr.data());
  hdr[4] = std::byte{0x7f};  // advertise version 127
  write_fully(h.raw.get(), hdr.data(), hdr.size());
  try {
    (void)h.transport->recv(0, 1);
    FAIL() << "version-mismatched frame must not be delivered";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    EXPECT_NE(what.find("127"), std::string::npos) << what;
  }
}

TEST(WireFaults, TruncatedPayloadSurfacesAsError) {
  RawPeerHarness h;
  std::vector<std::byte> payload(8, std::byte{0x22});
  FrameHeader frame;
  frame.from = 1;
  frame.to = 0;
  frame.payload_bytes = 1024;  // claims more than will ever arrive
  frame.checksum = 0;
  h.write_frame(frame, payload);
  h.raw.reset();  // close mid-payload
  EXPECT_THROW((void)h.transport->recv(0, 1), TransportError);
}

TEST(WireFaults, CleanCloseReportsPeerExit) {
  RawPeerHarness h;
  h.raw.reset();  // EOF on a frame boundary: "rank exited"
  try {
    (void)h.transport->recv(0, 1);
    FAIL() << "closed channel must not satisfy recv";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1->0"), std::string::npos) << what;
    EXPECT_NE(what.find("exited"), std::string::npos) << what;
  }
}

TEST(WireFaults, DataBeforeCloseIsStillDelivered) {
  // Frames sent before the peer dies must drain before the close error.
  RawPeerHarness h;
  std::vector<std::byte> payload{std::byte{0xab}, std::byte{0xcd}};
  FrameHeader frame;
  frame.from = 1;
  frame.to = 0;
  frame.payload_bytes = payload.size();
  frame.checksum = fnv1a64(payload.data(), payload.size());
  h.write_frame(frame, payload);
  h.raw.reset();
  EXPECT_EQ(h.transport->recv(0, 1), payload);
  EXPECT_THROW((void)h.transport->recv(0, 1), TransportError);
}

// --- seeded mutation soak ----------------------------------------------------

/// Seed of the mutation soak; a failure message names the case to replay.
constexpr u64 kSoakSeed = 0x77697265736f616bULL;  // "wiresoak"

/// Apply one to three seeded mutations to `bytes`: a random byte value, a
/// single bit flip, or a byte set to 0x00 / 0xff.
void mutate(std::vector<std::byte>& bytes, std::mt19937_64& rng) {
  const u64 edits = 1 + rng() % 3;
  for (u64 e = 0; e < edits; ++e) {
    std::byte& b = bytes[rng() % bytes.size()];
    switch (rng() % 3) {
      case 0: b = static_cast<std::byte>(rng() & 0xff); break;
      case 1: b ^= static_cast<std::byte>(1u << (rng() % 8)); break;
      default: b = (rng() & 1) != 0 ? std::byte{0x00} : std::byte{0xff}; break;
    }
  }
}

TEST(WireFaults, SeededHeaderMutationsAreAcceptedIntactOrNamed) {
  std::mt19937_64 rng(kSoakSeed);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    FrameHeader h;
    h.type = (rng() & 1) != 0 ? FrameType::kData : FrameType::kHello;
    h.from = static_cast<i64>(rng() % 64);
    h.to = static_cast<i64>(rng() % 64);
    h.payload_bytes = rng() % 4096;
    h.checksum = rng();
    std::vector<std::byte> buf(kHeaderBytes);
    encode_header(h, buf.data());
    mutate(buf, rng);
    std::string err;
    const auto back = decode_header(buf.data(), err);
    if (back) {
      // Accepted: every field is valid and re-encodes to the same bytes.
      ++accepted;
      EXPECT_EQ(back->magic, kWireMagic) << "case " << i;
      EXPECT_EQ(back->version, kWireVersion) << "case " << i;
      EXPECT_LE(back->payload_bytes, kMaxPayloadBytes) << "case " << i;
      std::vector<std::byte> again(kHeaderBytes);
      encode_header(*back, again.data());
      EXPECT_EQ(again, buf) << "case " << i;
    } else {
      const bool named = err.find("magic") != std::string::npos ||
                         err.find("version") != std::string::npos ||
                         err.find("type") != std::string::npos ||
                         err.find("payload") != std::string::npos;
      EXPECT_TRUE(named) << "case " << i << ": " << err;
    }
    if (HasFailure()) return;
  }
  // Mutations of the routing, length and checksum fields decode; those of
  // the magic, version and type fields do not.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 20000);
}

TEST(WireFaults, SeededFrameMutationsOnTheReceivePathAreNamed) {
  // Each case writes one mutated data frame (header and payload, sometimes
  // cut short) from rank 1 and closes the socket. One frame in four claims
  // a hostile payload length of up to kMaxPayloadBytes, which must cost no
  // allocation beyond the bytes that arrive. The frame is delivered intact
  // only if the mutations left it unchanged; otherwise the receive fails
  // with an error naming the channel.
  std::mt19937_64 rng(kSoakSeed ^ 1);
  int delivered = 0;
  for (int i = 0; i < 100; ++i) {
    RawPeerHarness h;
    std::vector<std::byte> payload(1 + rng() % 32);
    for (std::byte& b : payload) b = static_cast<std::byte>(rng() & 0xff);
    FrameHeader frame;
    frame.from = 1;
    frame.to = 0;
    frame.payload_bytes = rng() % 4 == 0 ? rng() % (kMaxPayloadBytes + 1) : payload.size();
    frame.checksum = fnv1a64(payload.data(), payload.size());
    std::vector<std::byte> wire(kHeaderBytes);
    encode_header(frame, wire.data());
    wire.insert(wire.end(), payload.begin(), payload.end());
    const std::vector<std::byte> original = wire;
    mutate(wire, rng);
    if (rng() % 4 == 0) wire.resize(rng() % wire.size());
    if (!wire.empty()) write_fully(h.raw.get(), wire.data(), wire.size());
    h.raw.reset();
    try {
      const std::vector<std::byte> got = h.transport->recv(0, 1);
      ++delivered;
      EXPECT_EQ(wire, original) << "case " << i << ": a mutated frame was delivered";
      EXPECT_EQ(got, payload) << "case " << i;
    } catch (const TransportError& e) {
      EXPECT_NE(std::string(e.what()).find("1->0"), std::string::npos)
          << "case " << i << ": " << e.what();
      EXPECT_FALSE(wire == original && frame.payload_bytes == payload.size())
          << "case " << i << ": an intact frame was rejected: " << e.what();
    }
    if (HasFailure()) return;
  }
  EXPECT_LT(delivered, 100);
}

}  // namespace
}  // namespace cyclick::net
