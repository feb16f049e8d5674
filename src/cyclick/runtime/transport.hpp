// Message transport for the simulated distributed-memory machine.
//
// The section-copy engines can route their pack/unpack phases through this
// interface instead of reading remote memory directly, making the runtime's
// data movement explicit and message-shaped (what an MPI port would swap
// in). The in-process implementation keeps one FIFO channel per (from, to)
// pair, with blocking receives under the threaded executor.
//
// Discipline: with the *sequential* executor, exchanges must be
// phase-structured (all sends complete before any receive — the engines'
// barrier phases guarantee this); a blocking receive with no matching send
// would otherwise never complete. The threaded executor supports
// single-phase protocols (send then receive inside one SPMD region).
#pragma once

#include <condition_variable>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cyclick/obs/metrics.hpp"
#include "cyclick/support/types.hpp"

namespace cyclick {

/// Cumulative per-channel traffic (telemetry; zeros when telemetry is
/// disabled or compiled out).
struct ChannelStats {
  i64 messages = 0;
  i64 bytes = 0;
};

/// Error thrown when message delivery fails or cannot complete: a recv
/// deadline expired, a peer closed its end mid-protocol, a frame failed
/// checksum or protocol validation, or a connection could not be
/// established. The message always names the channel (from->to) involved
/// so a stuck exchange is diagnosable instead of a silent hang.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deadline for blocking receives, in milliseconds; <= 0 means block
/// forever. The default for every transport comes from the environment
/// (CYCLICK_RECV_TIMEOUT_MS), so a deadlocked run can be re-run with a
/// deadline and fail fast with the stuck channel named.
[[nodiscard]] inline i64 recv_timeout_ms_from_env() {
  const char* env = std::getenv("CYCLICK_RECV_TIMEOUT_MS");
  if (env == nullptr || *env == '\0') return 0;
  return static_cast<i64>(std::atoll(env));
}

[[noreturn]] inline void throw_recv_timeout(i64 from, i64 to, i64 timeout_ms) {
  throw TransportError("recv timeout on channel " + std::to_string(from) + "->" +
                       std::to_string(to) + " after " + std::to_string(timeout_ms) +
                       " ms (no matching send; set CYCLICK_RECV_TIMEOUT_MS=0 to block)");
}

/// Default in-flight credit for completion queues (how many posted
/// operations a queue admits before `post` blocks), overridable with
/// CYCLICK_TRANSPORT_CREDITS. This is the backstop that keeps the
/// pipelined executors' pre-posted receive windows bounded no matter what
/// window the adaptive policy asks for.
[[nodiscard]] inline i64 transport_credits_from_env() {
  const char* env = std::getenv("CYCLICK_TRANSPORT_CREDITS");
  if (env == nullptr || *env == '\0') return 16;
  const i64 v = static_cast<i64>(std::atoll(env));
  return v >= 1 ? v : 16;
}

/// The result of one nonblocking transport operation, reaped from a
/// CompletionQueue. Receives carry the delivered payload; sends carry none.
/// `ok == false` means the operation failed (peer died, frame rejected);
/// the queue rethrows `error` as a TransportError when the completion is
/// reaped, so failures cannot be silently dropped.
struct Completion {
  enum class Kind : unsigned char { kSend, kRecv };
  Kind kind = Kind::kRecv;
  bool ok = true;
  i64 from = -1;  ///< sending rank of the channel
  i64 to = -1;    ///< receiving rank of the channel
  i64 tag = 0;    ///< caller-chosen label (the executors use the phase index)
  std::vector<std::byte> payload;  ///< kRecv only
  std::string error;               ///< set when !ok
};

/// Bounded completion queue for nonblocking transport operations — the
/// per-rank rendezvous point between a pipelined executor and a transport
/// backend. The caller posts operations through Transport::isend/irecv
/// (which call `post` and later `complete`/`fail`); the consumer reaps
/// them with `wait`/`try_wait` in completion order.
///
/// Credit discipline: at most `credits` operations may be outstanding
/// (posted but not yet reaped); `post` blocks until a slot frees, so a
/// runaway window degrades to backpressure instead of unbounded buffering
/// ("window exhaustion blocks instead of dropping"). Credits are released
/// when a completion is *reaped*, not when it arrives — the payload of a
/// completed-but-unreaped receive still occupies its slot.
///
/// Deadline semantics: `wait(timeout_ms)` counts its deadline from the
/// moment the consumer starts waiting — NOT from when the operation was
/// posted — so a receive pre-posted W phases early does not burn its
/// deadline while the pipeline is busy packing. On expiry the error names
/// the oldest pending operation's (from, to, tag) channel.
///
/// Thread safety: all members are safe to call concurrently. Lock order:
/// transports call `post`/`complete`/`fail` while holding their own
/// channel locks, so the queue never calls back into the transport while
/// holding `mu_` (the progress hook runs unlocked).
class CompletionQueue {
 public:
  explicit CompletionQueue(i64 credits = transport_credits_from_env()) : credits_(credits) {
    CYCLICK_REQUIRE(credits >= 1, "completion queue needs at least one credit");
  }

  [[nodiscard]] i64 credits() const noexcept { return credits_; }

  /// Operations posted and not yet reaped.
  [[nodiscard]] i64 in_flight() {
    const std::lock_guard<std::mutex> lock(mu_);
    return static_cast<i64>(pending_.size() + done_.size());
  }

  /// Single-consumer backends that only make progress when *driven* (the
  /// sim's virtual clock) install a hook that `wait`/`try_wait` invoke —
  /// outside the queue lock — whenever no completion is ready.
  void set_progress(std::function<void()> progress) {
    const std::lock_guard<std::mutex> lock(mu_);
    progress_ = std::move(progress);
  }

  /// Transport side: claim a credit and register an in-flight operation.
  /// Blocks while the queue is at its credit limit. Returns the operation
  /// id to later complete/fail/cancel.
  [[nodiscard]] u64 post(Completion::Kind kind, i64 from, i64 to, i64 tag) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return static_cast<i64>(pending_.size() + done_.size()) < credits_;
    });
    const u64 op = next_op_++;
    pending_.emplace(op, Pending{kind, from, to, tag});
    return op;
  }

  /// Transport side: deliver a successful completion for `op`. A no-op if
  /// the operation was cancelled in the meantime. Notifies while still
  /// holding the lock: once it is released the consumer may reap this
  /// completion and destroy the queue, condition variable included.
  void complete(u64 op, std::vector<std::byte> payload = {}) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = pending_.find(op);
    if (it == pending_.end()) return;
    Completion c;
    c.kind = it->second.kind;
    c.from = it->second.from;
    c.to = it->second.to;
    c.tag = it->second.tag;
    c.payload = std::move(payload);
    pending_.erase(it);
    done_.push_back(std::move(c));
    cv_.notify_all();
  }

  /// Transport side: deliver a failed completion for `op`; `wait` rethrows
  /// `error` as a TransportError when it is reaped.
  /// Notifies under the lock, like `complete`.
  void fail(u64 op, std::string error) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = pending_.find(op);
    if (it == pending_.end()) return;
    Completion c;
    c.kind = it->second.kind;
    c.ok = false;
    c.from = it->second.from;
    c.to = it->second.to;
    c.tag = it->second.tag;
    c.error = std::move(error);
    pending_.erase(it);
    done_.push_back(std::move(c));
    cv_.notify_all();
  }

  /// Drop a pending operation without producing a completion (releases its
  /// credit). Used by Transport::cancel_posted.
  void cancel(u64 op) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(op);
    }
    cv_.notify_all();
  }

  /// Reap the next completion in arrival order; blocks until one is ready.
  /// `timeout_ms <= 0` blocks forever. The deadline counts from this call,
  /// not from the post (satellite: pre-posted receives must not expire
  /// while the pipeline is busy elsewhere); on expiry the TransportError
  /// names the oldest still-pending operation's channel and tag. A reaped
  /// failure rethrows its recorded error.
  Completion wait(i64 timeout_ms = 0) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (!done_.empty()) return reap_locked();
      CYCLICK_REQUIRE(!pending_.empty(),
                      "wait on a completion queue with no operations posted");
      if (progress_) {
        // Drive the backend outside the lock (sim: drain the event heap),
        // then re-check; poll in slices so externally produced completions
        // are still picked up promptly.
        const auto hook = progress_;
        lock.unlock();
        hook();
        lock.lock();
        if (!done_.empty()) return reap_locked();
        auto slice = std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
        if (timeout_ms > 0 && deadline < slice) slice = deadline;
        cv_.wait_until(lock, slice);
      } else if (timeout_ms > 0) {
        cv_.wait_until(lock, deadline);
      } else {
        cv_.wait(lock);
      }
      if (timeout_ms > 0 && done_.empty() &&
          std::chrono::steady_clock::now() >= deadline)
        throw_wait_timeout_locked(timeout_ms);
    }
  }

  /// Reap the next completion if one is already available (drives the
  /// progress hook once when none is); never blocks.
  std::optional<Completion> try_wait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (done_.empty() && progress_) {
      const auto hook = progress_;
      lock.unlock();
      hook();
      lock.lock();
    }
    if (done_.empty()) return std::nullopt;
    return reap_locked();
  }

 private:
  struct Pending {
    Completion::Kind kind;
    i64 from, to, tag;
  };

  /// Pop the oldest completion; releases its credit. Caller holds mu_.
  Completion reap_locked() {
    Completion c = std::move(done_.front());
    done_.pop_front();
    cv_.notify_all();  // a credit was released
    if (!c.ok)
      throw TransportError(c.error.empty()
                               ? "transport operation failed on channel " +
                                     std::to_string(c.from) + "->" + std::to_string(c.to)
                               : c.error);
    return c;
  }

  [[noreturn]] void throw_wait_timeout_locked(i64 timeout_ms) {
    // pending_ is keyed by post order, so begin() is the oldest operation —
    // the one the pipeline has waited on longest.
    const Pending& p = pending_.begin()->second;
    throw TransportError(
        std::string(p.kind == Completion::Kind::kRecv ? "recv" : "send") +
        " completion timeout on channel " + std::to_string(p.from) + "->" +
        std::to_string(p.to) + " (phase " + std::to_string(p.tag) + ") after " +
        std::to_string(timeout_ms) +
        " ms waiting (posted operation unmatched; set CYCLICK_RECV_TIMEOUT_MS=0 to block)");
  }

  std::mutex mu_;
  std::condition_variable cv_;
  i64 credits_;
  u64 next_op_ = 0;
  std::map<u64, Pending> pending_;  ///< ordered: begin() is the oldest post
  std::deque<Completion> done_;
  std::function<void()> progress_;
};

/// Abstract point-to-point byte transport with per-channel FIFO order.
///
/// Nonblocking primitives: `isend`/`irecv` register operations on a
/// caller-owned CompletionQueue and return immediately; the backend
/// completes them when the payload is genuinely accepted/delivered (the
/// socket backend's writer/reader threads, the sim's virtual clock, the
/// in-process FIFO at enqueue time). A posted irecv *claims* the next
/// message on its channel: do not mix blocking recv() and posted irecvs on
/// the same channel concurrently (per-channel single consumer, as
/// everywhere else in the runtime). Posted operations hold references into
/// the transport — reap or `cancel_posted` them before destroying either
/// the queue or the transport.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual i64 ranks() const = 0;

  /// Post a message on channel (from -> to). Never blocks.
  virtual void send(i64 from, i64 to, std::vector<std::byte> payload) = 0;

  /// Pop the next message on channel (from -> to); blocks until one arrives.
  virtual std::vector<std::byte> recv(i64 to, i64 from) = 0;

  /// True when a message is waiting on channel (from -> to).
  [[nodiscard]] virtual bool ready(i64 to, i64 from) = 0;

  /// Nonblocking send on channel (from -> to). When `cq` is non-null a
  /// kSend completion (tagged `tag`) is delivered once the payload is
  /// accepted for delivery — after the actual socket write on the wire
  /// backend, at virtual departure time on the sim. Null `cq` is
  /// fire-and-forget (exactly `send`). Base default: send + immediate
  /// completion, correct for any backend whose send() already queues
  /// reliably.
  virtual void isend(i64 from, i64 to, std::vector<std::byte> payload, CompletionQueue* cq,
                     i64 tag) {
    send(from, to, std::move(payload));
    if (cq != nullptr) cq->complete(cq->post(Completion::Kind::kSend, from, to, tag));
  }

  /// Post a receive on channel (from -> to): a kRecv completion carrying
  /// the payload is delivered to `cq` (tagged `tag`) when the matching
  /// send arrives. Completes immediately if a message is already queued.
  /// Posted receives on one channel match senders in FIFO post order.
  virtual void irecv(i64 to, i64 from, CompletionQueue& cq, i64 tag) = 0;

  /// Nonblocking receive: pop the next message on (from -> to) into `out`
  /// if one is waiting. Returns false (out untouched) otherwise.
  [[nodiscard]] virtual bool try_recv(i64 to, i64 from, std::vector<std::byte>& out) {
    if (!ready(to, from)) return false;
    out = recv(to, from);
    return true;
  }

  /// Withdraw every not-yet-completed operation this transport holds for
  /// `cq` (releasing their credits, delivering nothing). The exception-path
  /// cleanup that keeps a dying pipeline from leaving dangling queue
  /// pointers inside the transport.
  virtual void cancel_posted(CompletionQueue& cq) = 0;

  /// The backend's configured blocking-receive deadline in ms (<= 0 blocks
  /// forever) — what pipelined consumers should pass to
  /// CompletionQueue::wait so posted receives observe the same
  /// CYCLICK_RECV_TIMEOUT_MS policy as blocking recv().
  [[nodiscard]] virtual i64 recv_timeout_ms() const { return 0; }
};

/// In-process transport: a mutex-protected deque per channel. An optional
/// recv deadline (default: CYCLICK_RECV_TIMEOUT_MS, off when unset)
/// converts a deadlocked blocking receive into a TransportError naming the
/// stuck channel.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(i64 ranks, i64 recv_timeout_ms = recv_timeout_ms_from_env())
      : ranks_(ranks), recv_timeout_ms_(recv_timeout_ms) {
    CYCLICK_REQUIRE(ranks >= 1, "transport needs at least one rank");
    channels_ = std::vector<Channel>(static_cast<std::size_t>(ranks * ranks));
  }

  [[nodiscard]] i64 ranks() const override { return ranks_; }

  void send(i64 from, i64 to, std::vector<std::byte> payload) override {
    const i64 bytes = static_cast<i64>(payload.size());
    Channel& ch = channel(from, to);
    PostedRecv matched{};
    {
      const std::lock_guard<std::mutex> lock(ch.mu);
      if (obs::enabled()) {
        // Plain i64s guarded by the channel mutex we already hold; the
        // registry counters attribute traffic to the sending rank.
        ++ch.stats.messages;
        ch.stats.bytes += bytes;
      }
      if (!ch.posted.empty()) {
        // A pre-posted receive claims the message directly; it never
        // touches the FIFO (completion order = send order per channel).
        matched = ch.posted.front();
        ch.posted.pop_front();
      } else {
        ch.queue.push_back(std::move(payload));
      }
    }
    CYCLICK_COUNT("transport.messages", from, 1);
    CYCLICK_COUNT("transport.bytes", from, bytes);
    if (matched.cq != nullptr)
      matched.cq->complete(matched.op, std::move(payload));
    else
      ch.cv.notify_all();
  }

  std::vector<std::byte> recv(i64 to, i64 from) override {
    Channel& ch = channel(from, to);
    std::unique_lock<std::mutex> lock(ch.mu);
    if (recv_timeout_ms_ > 0) {
      if (!ch.cv.wait_for(lock, std::chrono::milliseconds(recv_timeout_ms_),
                          [&] { return !ch.queue.empty(); }))
        throw_recv_timeout(from, to, recv_timeout_ms_);
    } else {
      ch.cv.wait(lock, [&] { return !ch.queue.empty(); });
    }
    std::vector<std::byte> payload = std::move(ch.queue.front());
    ch.queue.pop_front();
    return payload;
  }

  [[nodiscard]] bool ready(i64 to, i64 from) override {
    Channel& ch = channel(from, to);
    const std::lock_guard<std::mutex> lock(ch.mu);
    return !ch.queue.empty();
  }

  void irecv(i64 to, i64 from, CompletionQueue& cq, i64 tag) override {
    // Claim the credit before touching the channel: post() may block on
    // the credit limit, and blocking while holding ch.mu would wedge the
    // sender that should free it.
    const u64 op = cq.post(Completion::Kind::kRecv, from, to, tag);
    Channel& ch = channel(from, to);
    std::vector<std::byte> payload;
    bool immediate = false;
    {
      const std::lock_guard<std::mutex> lock(ch.mu);
      if (!ch.queue.empty()) {
        payload = std::move(ch.queue.front());
        ch.queue.pop_front();
        immediate = true;
      } else {
        ch.posted.push_back(PostedRecv{&cq, op});
      }
    }
    if (immediate) cq.complete(op, std::move(payload));
  }

  [[nodiscard]] bool try_recv(i64 to, i64 from, std::vector<std::byte>& out) override {
    Channel& ch = channel(from, to);
    const std::lock_guard<std::mutex> lock(ch.mu);
    if (ch.queue.empty()) return false;
    out = std::move(ch.queue.front());
    ch.queue.pop_front();
    return true;
  }

  void cancel_posted(CompletionQueue& cq) override {
    for (auto& ch : channels_) {
      std::vector<u64> ops;
      {
        const std::lock_guard<std::mutex> lock(ch.mu);
        for (auto it = ch.posted.begin(); it != ch.posted.end();) {
          if (it->cq == &cq) {
            ops.push_back(it->op);
            it = ch.posted.erase(it);
          } else {
            ++it;
          }
        }
      }
      for (const u64 op : ops) cq.cancel(op);
    }
  }

  [[nodiscard]] i64 recv_timeout_ms() const override { return recv_timeout_ms_; }

  /// Total messages currently in flight (diagnostics).
  [[nodiscard]] i64 in_flight() {
    i64 n = 0;
    for (auto& ch : channels_) {
      const std::lock_guard<std::mutex> lock(ch.mu);
      n += static_cast<i64>(ch.queue.size());
    }
    return n;
  }

  /// Cumulative traffic on channel (from -> to) since construction.
  /// Counts accrue only while telemetry is enabled.
  [[nodiscard]] ChannelStats channel_stats(i64 from, i64 to) {
    Channel& ch = channel(from, to);
    const std::lock_guard<std::mutex> lock(ch.mu);
    return ch.stats;
  }

 private:
  struct PostedRecv {
    CompletionQueue* cq = nullptr;
    u64 op = 0;
  };
  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::vector<std::byte>> queue;
    std::deque<PostedRecv> posted;  ///< pre-posted receives, FIFO match order
    ChannelStats stats;
  };

  Channel& channel(i64 from, i64 to) {
    CYCLICK_REQUIRE(from >= 0 && from < ranks_ && to >= 0 && to < ranks_,
                    "rank out of range");
    return channels_[static_cast<std::size_t>(from * ranks_ + to)];
  }

  i64 ranks_;
  i64 recv_timeout_ms_;
  std::vector<Channel> channels_;
};

/// Identity of the calling OS process within a multi-process SPMD machine,
/// plus the transport its rank owns. Inactive (no transport) in ordinary
/// single-process runs. The rank launcher (net/launcher) installs one in
/// every spawned rank process; the comm-plan executor consults it to route
/// this rank's share of each copy over the wire (see execute_copy_plan in
/// runtime/redistribute.hpp). Not thread-safe to mutate concurrently
/// with SPMD phases — set it once at process startup.
struct ProcessContext {
  i64 rank = -1;                  ///< this process's rank id
  i64 world = 0;                  ///< total rank processes in the machine
  Transport* transport = nullptr; ///< this rank's endpoint (owned elsewhere)
  [[nodiscard]] bool active() const noexcept { return transport != nullptr; }
};

/// The process-wide context (mutable; default-inactive).
[[nodiscard]] inline ProcessContext& process_context() {
  static ProcessContext ctx;
  return ctx;
}

/// Source of whole-machine transports for single-process backends that
/// want every plan execution routed through a Transport — the simulation
/// backend (sim::SimMachine) installs one so `execute_copy_plan` replays
/// every CommPlan over the modelled interconnect while producing results
/// byte-identical to the transport-free path. Unlike ProcessContext (one
/// real rank per OS process), a provider serves *all* ranks of any machine
/// size the program creates.
class TransportProvider {
 public:
  virtual ~TransportProvider() = default;
  /// The transport to route a `ranks`-rank plan execution through.
  virtual Transport& transport_for(i64 ranks) = 0;
};

/// The process-wide provider slot (null when inactive). Set it once at
/// process startup, like process_context(); a live ProcessContext takes
/// precedence in execute_copy_plan.
[[nodiscard]] inline TransportProvider*& transport_provider() {
  static TransportProvider* provider = nullptr;
  return provider;
}

/// Typed convenience: send a span of trivially copyable values.
template <typename T>
void send_values(Transport& transport, i64 from, i64 to, std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>, "transport carries raw bytes");
  std::vector<std::byte> payload(values.size_bytes());
  if (!values.empty()) std::memcpy(payload.data(), values.data(), values.size_bytes());
  transport.send(from, to, std::move(payload));
}

/// Typed convenience: receive a vector of trivially copyable values.
template <typename T>
std::vector<T> recv_values(Transport& transport, i64 to, i64 from) {
  static_assert(std::is_trivially_copyable_v<T>, "transport carries raw bytes");
  const std::vector<std::byte> payload = transport.recv(to, from);
  CYCLICK_REQUIRE(payload.size() % sizeof(T) == 0, "payload size not a multiple of T");
  std::vector<T> values(payload.size() / sizeof(T));
  if (!values.empty()) std::memcpy(values.data(), payload.data(), payload.size());
  return values;
}

}  // namespace cyclick
