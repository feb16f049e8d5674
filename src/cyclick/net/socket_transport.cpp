#include "cyclick/net/socket_transport.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/socket.h>

#include "cyclick/net/wire.hpp"
#include "cyclick/obs/metrics.hpp"
#include "cyclick/obs/trace.hpp"

namespace cyclick::net {

namespace {

[[nodiscard]] std::string channel_name(i64 from, i64 to) {
  return std::to_string(from) + "->" + std::to_string(to);
}

/// How often the reader re-checks its stop flag while polling.
constexpr int kReaderPollMs = 50;

/// First read size of a payload. Later reads at most double the buffer, so
/// a corrupt length prefix costs about twice the bytes that actually
/// arrive, not the length it claims.
constexpr u64 kPayloadChunk = u64{1} << 20;

/// Read a `bytes`-byte payload, growing the buffer as the data arrives.
/// Throws TransportError if the peer closes first.
std::vector<std::byte> read_payload(int fd, u64 bytes) {
  std::vector<std::byte> payload;
  for (u64 got = 0; got < bytes;) {
    const u64 n = std::min(bytes - got, std::max(got, kPayloadChunk));
    payload.resize(static_cast<std::size_t>(got + n));
    if (!read_fully(fd, payload.data() + got, static_cast<std::size_t>(n)))
      throw TransportError("peer closed mid-payload");
    got += n;
  }
  return payload;
}

}  // namespace

/// Per-sender receive queue. `closed` flips on clean EOF from the peer;
/// `error` records the first protocol/checksum failure (sticky — the
/// stream is desynchronized beyond repair once framing is violated).
/// `posted` holds pre-posted receives in FIFO match order; arrivals are
/// routed to them before the queue, and a failed/closed channel fails
/// them all (cancellation on rank failure).
struct SocketTransport::Inbox {
  struct PostedRecv {
    CompletionQueue* cq = nullptr;
    u64 op = 0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::vector<std::byte>> queue;
  std::deque<PostedRecv> posted;
  bool closed = false;
  std::string error;
  ChannelStats stats;
};

struct SocketTransport::Endpoint {
  explicit Endpoint(i64 r, i64 world) : rank(r), peer_fds(static_cast<std::size_t>(world)) {
    inboxes.reserve(static_cast<std::size_t>(world));
    for (i64 q = 0; q < world; ++q) inboxes.push_back(std::make_unique<Inbox>());
    send_broken.assign(static_cast<std::size_t>(world), false);
    send_error.resize(static_cast<std::size_t>(world));
  }

  i64 rank;
  std::vector<Fd> peer_fds;  ///< [world]; invalid for self and non-peers
  std::vector<std::unique_ptr<Inbox>> inboxes;
  Fd listener;  ///< connect_mesh only; held so the rendezvous path stays bound

  struct OutMsg {
    i64 to = -1;
    std::array<std::byte, kHeaderBytes> header{};
    std::vector<std::byte> payload;
    CompletionQueue* cq = nullptr;  ///< isend completion target (may be null)
    u64 op = 0;
  };
  std::mutex out_mu;
  std::condition_variable out_cv;
  std::deque<OutMsg> outbox;
  bool out_stop = false;
  std::vector<char> send_broken;        ///< guarded by out_mu
  std::vector<std::string> send_error;  ///< guarded by out_mu

  std::atomic<bool> reader_stop{false};
  std::thread writer, reader;
};

SocketTransport::SocketTransport(i64 world, Options opts) : world_(world), opts_(opts) {
  CYCLICK_REQUIRE(world >= 1, "transport needs at least one rank");
  endpoints_.resize(static_cast<std::size_t>(world));
}

std::unique_ptr<SocketTransport> SocketTransport::loopback_mesh(i64 world, Options opts) {
  std::unique_ptr<SocketTransport> tr(new SocketTransport(world, opts));
  for (i64 r = 0; r < world; ++r)
    tr->endpoints_[static_cast<std::size_t>(r)] = std::make_unique<Endpoint>(r, world);
  for (i64 a = 0; a < world; ++a)
    for (i64 b = a + 1; b < world; ++b) {
      auto [fa, fb] = socket_pair();
      tr->endpoints_[static_cast<std::size_t>(a)]->peer_fds[static_cast<std::size_t>(b)] =
          std::move(fa);
      tr->endpoints_[static_cast<std::size_t>(b)]->peer_fds[static_cast<std::size_t>(a)] =
          std::move(fb);
    }
  tr->start_endpoint_threads();
  return tr;
}

std::unique_ptr<SocketTransport> SocketTransport::connect_mesh(i64 rank, i64 world,
                                                               const std::string& dir,
                                                               Options opts) {
  CYCLICK_REQUIRE(rank >= 0 && rank < world, "rank out of range for world");
  std::unique_ptr<SocketTransport> tr(new SocketTransport(world, opts));
  auto ep = std::make_unique<Endpoint>(rank, world);
  CYCLICK_SPAN("net.connect", rank);

  const auto sock_path = [&dir](i64 r) {
    return dir + "/rank-" + std::to_string(r) + ".sock";
  };
  ep->listener = unix_listen(sock_path(rank), static_cast<int>(world));

  // Connect to every lower rank (its listener may not exist yet — the
  // retry/backoff loop absorbs the startup race) and identify ourselves
  // with a hello frame.
  for (i64 q = 0; q < rank; ++q) {
    Fd fd = unix_connect_retry(sock_path(q), opts.connect_timeout_ms,
                               opts.connect_backoff_ms, rank);
    FrameHeader hello;
    hello.type = FrameType::kHello;
    hello.from = rank;
    hello.to = q;
    hello.checksum = fnv1a64(nullptr, 0);
    std::array<std::byte, kHeaderBytes> buf{};
    encode_header(hello, buf.data());
    write_fully(fd.get(), buf.data(), buf.size());
    ep->peer_fds[static_cast<std::size_t>(q)] = std::move(fd);
  }

  // Accept every higher rank; its hello frame says who connected.
  for (i64 n = rank + 1; n < world; ++n) {
    Fd fd = unix_accept(ep->listener, opts.connect_timeout_ms);
    std::array<std::byte, kHeaderBytes> buf{};
    if (!read_fully(fd.get(), buf.data(), buf.size()))
      throw TransportError("rendezvous: peer closed before sending hello to rank " +
                           std::to_string(rank));
    std::string err;
    const auto hello = decode_header(buf.data(), err);
    if (!hello) throw TransportError("rendezvous: " + err);
    if (hello->type != FrameType::kHello || hello->to != rank || hello->from <= rank ||
        hello->from >= world)
      throw TransportError("rendezvous: malformed hello (from " +
                           std::to_string(hello->from) + ", to " +
                           std::to_string(hello->to) + ") at rank " + std::to_string(rank));
    Fd& slot = ep->peer_fds[static_cast<std::size_t>(hello->from)];
    if (slot.valid())
      throw TransportError("rendezvous: rank " + std::to_string(hello->from) +
                           " connected twice");
    slot = std::move(fd);
  }

  tr->endpoints_[static_cast<std::size_t>(rank)] = std::move(ep);
  tr->start_endpoint_threads();
  return tr;
}

SocketTransport::~SocketTransport() {
  // Stop writers after their outboxes drain, so everything already sent
  // reaches the wire before we signal EOF.
  for (auto& ep : endpoints_) {
    if (!ep) continue;
    {
      const std::lock_guard<std::mutex> lock(ep->out_mu);
      ep->out_stop = true;
    }
    ep->out_cv.notify_all();
  }
  for (auto& ep : endpoints_)
    if (ep && ep->writer.joinable()) ep->writer.join();
  // Half-close every connection: peers observe EOF (clean channel close)
  // while their in-flight frames can still drain to our readers.
  for (auto& ep : endpoints_) {
    if (!ep) continue;
    for (Fd& fd : ep->peer_fds)
      if (fd.valid()) ::shutdown(fd.get(), SHUT_WR);
  }
  for (auto& ep : endpoints_) {
    if (!ep) continue;
    ep->reader_stop.store(true, std::memory_order_relaxed);
    if (ep->reader.joinable()) ep->reader.join();
  }
}

void SocketTransport::start_endpoint_threads() {
  for (auto& ep : endpoints_) {
    if (!ep) continue;
    Endpoint* p = ep.get();
    p->writer = std::thread([this, p] { writer_loop(*p); });
    p->reader = std::thread([this, p] { reader_loop(*p); });
  }
}

SocketTransport::Endpoint& SocketTransport::endpoint_for(i64 rank, const char* role) {
  CYCLICK_REQUIRE(rank >= 0 && rank < world_, "rank out of range");
  Endpoint* ep = endpoints_[static_cast<std::size_t>(rank)].get();
  CYCLICK_REQUIRE(ep != nullptr, role);
  return *ep;
}

bool SocketTransport::is_local(i64 rank) const {
  return rank >= 0 && rank < world_ && endpoints_[static_cast<std::size_t>(rank)] != nullptr;
}

void SocketTransport::send(i64 from, i64 to, std::vector<std::byte> payload) {
  Endpoint& ep = endpoint_for(from, "send requires a rank local to this process");
  CYCLICK_REQUIRE(to >= 0 && to < world_, "rank out of range");
  const i64 bytes = static_cast<i64>(payload.size());
  if (to == from) {
    deliver(ep, from, std::move(payload));
  } else {
    Endpoint::OutMsg msg;
    msg.to = to;
    FrameHeader h;
    h.from = from;
    h.to = to;
    h.payload_bytes = payload.size();
    h.checksum = fnv1a64(payload.data(), payload.size());
    encode_header(h, msg.header.data());
    msg.payload = std::move(payload);
    {
      const std::lock_guard<std::mutex> lock(ep.out_mu);
      if (ep.send_broken[static_cast<std::size_t>(to)])
        throw TransportError(ep.send_error[static_cast<std::size_t>(to)]);
      ep.outbox.push_back(std::move(msg));
    }
    ep.out_cv.notify_all();
  }
  CYCLICK_COUNT("net.messages", from, 1);
  CYCLICK_COUNT("net.bytes", from, bytes);
}

void SocketTransport::isend(i64 from, i64 to, std::vector<std::byte> payload,
                            CompletionQueue* cq, i64 tag) {
  if (cq == nullptr) {
    send(from, to, std::move(payload));
    return;
  }
  Endpoint& ep = endpoint_for(from, "isend requires a rank local to this process");
  CYCLICK_REQUIRE(to >= 0 && to < world_, "rank out of range");
  const i64 bytes = static_cast<i64>(payload.size());
  const u64 op = cq->post(Completion::Kind::kSend, from, to, tag);
  if (to == from) {
    deliver(ep, from, std::move(payload));
    cq->complete(op);
  } else {
    Endpoint::OutMsg msg;
    msg.to = to;
    msg.cq = cq;
    msg.op = op;
    FrameHeader h;
    h.from = from;
    h.to = to;
    h.payload_bytes = payload.size();
    h.checksum = fnv1a64(payload.data(), payload.size());
    encode_header(h, msg.header.data());
    msg.payload = std::move(payload);
    {
      const std::lock_guard<std::mutex> lock(ep.out_mu);
      if (ep.send_broken[static_cast<std::size_t>(to)]) {
        cq->cancel(op);
        throw TransportError(ep.send_error[static_cast<std::size_t>(to)]);
      }
      ep.outbox.push_back(std::move(msg));
    }
    ep.out_cv.notify_all();
  }
  CYCLICK_COUNT("net.messages", from, 1);
  CYCLICK_COUNT("net.bytes", from, bytes);
}

void SocketTransport::irecv(i64 to, i64 from, CompletionQueue& cq, i64 tag) {
  Endpoint& ep = endpoint_for(to, "irecv requires a rank local to this process");
  CYCLICK_REQUIRE(from >= 0 && from < world_, "rank out of range");
  // Claim the credit before touching the inbox: post() may block at the
  // credit limit, and the reader thread must stay free to deliver (and so
  // unblock the consumer that frees a credit).
  const u64 op = cq.post(Completion::Kind::kRecv, from, to, tag);
  Inbox& ib = *ep.inboxes[static_cast<std::size_t>(from)];
  std::vector<std::byte> payload;
  enum class State { kPosted, kImmediate, kError, kClosed } state = State::kPosted;
  std::string error;
  i64 delivered = 0;
  {
    const std::lock_guard<std::mutex> lock(ib.mu);
    if (!ib.queue.empty()) {
      payload = std::move(ib.queue.front());
      ib.queue.pop_front();
      state = State::kImmediate;
    } else if (!ib.error.empty()) {
      error = ib.error;
      state = State::kError;
    } else if (ib.closed) {
      delivered = ib.stats.messages;
      state = State::kClosed;
    } else {
      ib.posted.push_back(Inbox::PostedRecv{&cq, op});
    }
  }
  switch (state) {
    case State::kPosted:
      break;
    case State::kImmediate:
      cq.complete(op, std::move(payload));
      break;
    case State::kError:
      cq.fail(op, error);
      break;
    case State::kClosed:
      cq.fail(op, "channel " + channel_name(from, to) + " closed: rank " +
                      std::to_string(from) + " exited before sending (" +
                      std::to_string(delivered) + " messages delivered)");
      break;
  }
}

bool SocketTransport::try_recv(i64 to, i64 from, std::vector<std::byte>& out) {
  Endpoint& ep = endpoint_for(to, "try_recv requires a rank local to this process");
  CYCLICK_REQUIRE(from >= 0 && from < world_, "rank out of range");
  Inbox& ib = *ep.inboxes[static_cast<std::size_t>(from)];
  const std::lock_guard<std::mutex> lock(ib.mu);
  if (ib.queue.empty()) return false;
  out = std::move(ib.queue.front());
  ib.queue.pop_front();
  return true;
}

void SocketTransport::cancel_posted(CompletionQueue& cq) {
  for (auto& ep : endpoints_) {
    if (!ep) continue;
    for (auto& ibp : ep->inboxes) {
      Inbox& ib = *ibp;
      std::vector<u64> ops;
      {
        const std::lock_guard<std::mutex> lock(ib.mu);
        for (auto it = ib.posted.begin(); it != ib.posted.end();) {
          if (it->cq == &cq) {
            ops.push_back(it->op);
            it = ib.posted.erase(it);
          } else {
            ++it;
          }
        }
      }
      for (const u64 op : ops) cq.cancel(op);
    }
    // Queued isends still reach the wire (cancellation does not un-send);
    // only their completions are withdrawn.
    std::vector<u64> ops;
    {
      const std::lock_guard<std::mutex> lock(ep->out_mu);
      for (auto& msg : ep->outbox) {
        if (msg.cq == &cq) {
          ops.push_back(msg.op);
          msg.cq = nullptr;
        }
      }
    }
    for (const u64 op : ops) cq.cancel(op);
  }
}

std::vector<std::byte> SocketTransport::recv(i64 to, i64 from) {
  Endpoint& ep = endpoint_for(to, "recv requires a rank local to this process");
  CYCLICK_REQUIRE(from >= 0 && from < world_, "rank out of range");
  Inbox& ib = *ep.inboxes[static_cast<std::size_t>(from)];
  std::unique_lock<std::mutex> lock(ib.mu);
  const auto have = [&] { return !ib.queue.empty() || ib.closed || !ib.error.empty(); };
  if (!have()) {
    CYCLICK_SPAN("net.recv_wait", to);
    if (opts_.recv_timeout_ms > 0) {
      if (!ib.cv.wait_for(lock, std::chrono::milliseconds(opts_.recv_timeout_ms), have))
        throw_recv_timeout(from, to, opts_.recv_timeout_ms);
    } else {
      ib.cv.wait(lock, have);
    }
  }
  if (!ib.queue.empty()) {
    std::vector<std::byte> payload = std::move(ib.queue.front());
    ib.queue.pop_front();
    return payload;
  }
  if (!ib.error.empty()) throw TransportError(ib.error);
  throw TransportError("channel " + channel_name(from, to) + " closed: rank " +
                       std::to_string(from) + " exited before sending (" +
                       std::to_string(ib.stats.messages) + " messages delivered)");
}

bool SocketTransport::ready(i64 to, i64 from) {
  Endpoint& ep = endpoint_for(to, "ready requires a rank local to this process");
  CYCLICK_REQUIRE(from >= 0 && from < world_, "rank out of range");
  Inbox& ib = *ep.inboxes[static_cast<std::size_t>(from)];
  const std::lock_guard<std::mutex> lock(ib.mu);
  return !ib.queue.empty();
}

ChannelStats SocketTransport::channel_stats(i64 from, i64 to) {
  Endpoint& ep = endpoint_for(to, "channel_stats requires the receiving rank local");
  CYCLICK_REQUIRE(from >= 0 && from < world_, "rank out of range");
  Inbox& ib = *ep.inboxes[static_cast<std::size_t>(from)];
  const std::lock_guard<std::mutex> lock(ib.mu);
  return ib.stats;
}

void SocketTransport::deliver(Endpoint& ep, i64 from, std::vector<std::byte> payload) {
  Inbox& ib = *ep.inboxes[static_cast<std::size_t>(from)];
  const i64 bytes = static_cast<i64>(payload.size());
  Inbox::PostedRecv matched{};
  {
    const std::lock_guard<std::mutex> lock(ib.mu);
    if (obs::enabled()) {
      ++ib.stats.messages;
      ib.stats.bytes += bytes;
    }
    if (!ib.posted.empty()) {
      // A pre-posted receive claims the message directly (FIFO match
      // order); it never touches the queue.
      matched = ib.posted.front();
      ib.posted.pop_front();
    } else {
      ib.queue.push_back(std::move(payload));
    }
  }
  if (matched.cq != nullptr)
    matched.cq->complete(matched.op, std::move(payload));
  else
    ib.cv.notify_all();
}

void SocketTransport::fail_channel(Endpoint& ep, i64 from, const std::string& error) {
  Inbox& ib = *ep.inboxes[static_cast<std::size_t>(from)];
  std::deque<Inbox::PostedRecv> orphans;
  std::string full;
  {
    const std::lock_guard<std::mutex> lock(ib.mu);
    if (ib.error.empty())
      ib.error = "channel " + channel_name(from, ep.rank) + ": " + error;
    full = ib.error;
    orphans.swap(ib.posted);
  }
  ib.cv.notify_all();
  // Pipelines waiting on this channel learn of the failure through their
  // completions instead of hanging until a deadline.
  for (const Inbox::PostedRecv& pr : orphans) pr.cq->fail(pr.op, full);
}

void SocketTransport::writer_loop(Endpoint& ep) {
  for (;;) {
    Endpoint::OutMsg msg;
    bool broken = false;
    std::string broken_error;
    {
      std::unique_lock<std::mutex> lock(ep.out_mu);
      ep.out_cv.wait(lock, [&] { return ep.out_stop || !ep.outbox.empty(); });
      if (ep.outbox.empty()) return;  // stopped and fully drained
      msg = std::move(ep.outbox.front());
      ep.outbox.pop_front();
      if (ep.send_broken[static_cast<std::size_t>(msg.to)]) {  // peer already dead
        broken = true;
        broken_error = ep.send_error[static_cast<std::size_t>(msg.to)];
      }
    }
    if (broken) {
      if (msg.cq != nullptr) msg.cq->fail(msg.op, broken_error);
      continue;
    }
    try {
      const int fd = ep.peer_fds[static_cast<std::size_t>(msg.to)].get();
      write_fully(fd, msg.header.data(), msg.header.size());
      if (!msg.payload.empty()) write_fully(fd, msg.payload.data(), msg.payload.size());
      // The isend completes only once its bytes are genuinely accepted by
      // the kernel socket — the writer thread surfaced as completions.
      if (msg.cq != nullptr) msg.cq->complete(msg.op);
    } catch (const TransportError& e) {
      // Record and keep serving other peers; the failure surfaces on the
      // next send() to this peer (and as EOF on its recv side).
      {
        const std::lock_guard<std::mutex> lock(ep.out_mu);
        ep.send_broken[static_cast<std::size_t>(msg.to)] = true;
        ep.send_error[static_cast<std::size_t>(msg.to)] =
            "channel " + channel_name(ep.rank, msg.to) + " broken: " + e.what();
      }
      if (msg.cq != nullptr)
        msg.cq->fail(msg.op, "channel " + channel_name(ep.rank, msg.to) +
                                 " broken: " + e.what());
    }
  }
}

void SocketTransport::reader_loop(Endpoint& ep) {
  // Peers whose stream is still live (not EOF, not poisoned).
  std::vector<i64> live;
  for (i64 q = 0; q < world_; ++q)
    if (ep.peer_fds[static_cast<std::size_t>(q)].valid()) live.push_back(q);

  std::vector<std::byte> header(kHeaderBytes);
  while (!live.empty() && !ep.reader_stop.load(std::memory_order_relaxed)) {
    std::vector<pollfd> pfds;
    pfds.reserve(live.size());
    for (const i64 q : live)
      pfds.push_back(pollfd{ep.peer_fds[static_cast<std::size_t>(q)].get(), POLLIN, 0});
    const int r = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), kReaderPollMs);
    if (r <= 0) continue;  // timeout (or EINTR): re-check the stop flag

    std::vector<i64> still_live;
    still_live.reserve(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      const i64 q = live[i];
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        still_live.push_back(q);
        continue;
      }
      const int fd = ep.peer_fds[static_cast<std::size_t>(q)].get();
      bool keep = false;
      try {
        if (!read_fully(fd, header.data(), kHeaderBytes)) {
          // Clean EOF on a frame boundary: the peer is done sending.
          // Receives posted past the peer's last message fail with the
          // same channel-naming error blocking recv() would throw.
          Inbox& ib = *ep.inboxes[static_cast<std::size_t>(q)];
          std::deque<Inbox::PostedRecv> orphans;
          i64 delivered = 0;
          {
            const std::lock_guard<std::mutex> lock(ib.mu);
            ib.closed = true;
            delivered = ib.stats.messages;
            orphans.swap(ib.posted);
          }
          ib.cv.notify_all();
          for (const Inbox::PostedRecv& pr : orphans)
            pr.cq->fail(pr.op, "channel " + channel_name(q, ep.rank) + " closed: rank " +
                                   std::to_string(q) + " exited before sending (" +
                                   std::to_string(delivered) + " messages delivered)");
        } else {
          std::string err;
          const auto h = decode_header(header.data(), err);
          if (!h) {
            fail_channel(ep, q, err);
          } else if (h->type != FrameType::kData || h->from != q || h->to != ep.rank) {
            fail_channel(ep, q,
                         "misrouted frame (claims " + channel_name(h->from, h->to) + ")");
          } else {
            std::vector<std::byte> payload = read_payload(fd, h->payload_bytes);
            const u64 sum = fnv1a64(payload.data(), payload.size());
            if (sum != h->checksum) {
              CYCLICK_COUNT("net.checksum_errors", ep.rank, 1);
              fail_channel(ep, q,
                           "checksum mismatch (header says " + std::to_string(h->checksum) +
                               ", payload hashes to " + std::to_string(sum) +
                               "); frame rejected");
            } else {
              deliver(ep, q, std::move(payload));
              keep = true;
            }
          }
        }
      } catch (const TransportError& e) {
        fail_channel(ep, q, e.what());
      }
      if (keep) still_live.push_back(q);
    }
    live = std::move(still_live);
  }
}

}  // namespace cyclick::net
