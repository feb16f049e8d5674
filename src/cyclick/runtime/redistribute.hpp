// The redistribution layer: every byte the runtime moves between ranks
// flows through here, on every backend.
//
// comm_plan.hpp *describes* data movement (compressed per-channel run
// descriptors built from the paper's access sequences); this layer
// *schedules and executes* it. A CommPlan's channels form an all-to-all
// exchange; executing them in the naive order (every sender walks
// receivers 0, 1, 2, ...) serializes the network into p incast bursts:
// every sender's j-th message targets receiver j, so receiver j takes up
// to p-1 simultaneous arrivals. The schedule here applies round-robin
// phase rotation instead:
//
//   phase f in [0, p):  rank r sends to (r + f) mod p
//                       rank r receives from (r - f + p) mod p
//
// Phase 0 is the self channel; each later phase is a perfect matching of
// senders to receivers (a fixed-point-free rotation), so no destination
// ever takes p simultaneous senders — each phase delivers at most one
// message per receiver. The rule is pure arithmetic on (rank, phase, p),
// identical on every backend, which is what makes the three transports
// (in-process, socket mesh, simulated mesh) execute *the same schedule*
// and produce byte-identical results.
//
// One executor (detail::Exchange) runs every plan as three per-rank
// stages, each walking the rotation schedule in phase order:
//
//   post     pre-post up to W receives for the rank's incoming wire
//            channels on its CompletionQueue, tagged by schedule phase
//   produce  walk redist_peer_to: pack each outgoing wire channel into
//            its payload and isend it; stage local channels in the plan
//            arena when src and dst alias
//   consume  copy (or unstage) every incoming local channel, then unpack
//            wire completions as they arrive — in any phase order, since
//            each destination element is written by exactly one channel
//            — posting the next receive as each one lands
//
// detail::Endpoints is the per-channel rule for where the bytes go:
// copied locally (copy_channel straight across, or through the arena when
// src and dst alias), over a Transport, or — on the replicated proc
// machine — over the wire only when the channel touches this process's
// rank. The entry points are policy choices over that rule:
//
//   execute_copy_plan       whole machine: replicated over the process
//                           mesh when a ProcessContext is active, over the
//                           provider transport when one is installed
//                           (sim), else in-process
//   execute_copy_plan_over  whole machine over one given Transport
//   execute_copy_plan_rank  exactly one rank's share (the calling process
//                           is that rank); opportunistic drains between
//                           sends
//   execute_redistribution  execute_copy_plan plus schedule telemetry
//
// Whole-machine entry points run each stage as one exec.run phase, so the
// barriers order every pack before any unpack; the in-process fused copy
// needs only the consume phase. W is resolve_redist_window for all of
// them: CYCLICK_REDIST_WINDOW fixes the depth, unset lets the sim cost
// model size it, and CYCLICK_TRANSPORT_CREDITS caps it. W = 1 is simply
// the shallowest window.
//
// The executor is generic over the array type: anything with local(rank)
// spans of a trivially copyable element works (DistributedArray,
// MultiDimArray), so 1-D section copies and N-D region remaps execute
// through the same entry points.
//
// RedistributionPlan wraps a CommPlan with its schedule metadata (phase
// count, dimensionality); build_redistribution_plan composes the
// per-dimension access sequences the AddressEngine produces into one
// all-to-all schedule. replay_plan_traffic replays just the wire traffic
// of a plan (no arrays) in naive or rotated order — the incast-study
// primitive behind the simulation gate.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cyclick/obs/trace.hpp"
#include "cyclick/runtime/comm_plan.hpp"
#include "cyclick/runtime/transport.hpp"

namespace cyclick {

/// Peer that `rank` sends to in schedule phase `phase` of a `ranks`-rank
/// exchange. Phase 0 is the self channel.
[[nodiscard]] constexpr i64 redist_peer_to(i64 rank, i64 phase, i64 ranks) noexcept {
  return (rank + phase) % ranks;
}

/// Peer that `rank` receives from in schedule phase `phase` (the inverse
/// matching of redist_peer_to: redist_peer_to(q, f, p) == r iff
/// redist_peer_from(r, f, p) == q).
[[nodiscard]] constexpr i64 redist_peer_from(i64 rank, i64 phase, i64 ranks) noexcept {
  return (rank - phase % ranks + ranks) % ranks;
}

/// Number of schedule phases with at least one nonempty channel (the self
/// phase counts when any rank keeps data). At most `plan.ranks`.
[[nodiscard]] i64 schedule_phase_count(const CommPlan& plan);

/// A CommPlan plus its all-to-all schedule metadata. The channels are the
/// movement description; `phases` is how many rotation phases the schedule
/// actually occupies (sparse exchanges — e.g. a halo shift — touch only a
/// few phases even on a large machine).
struct RedistributionPlan {
  CommPlan comm;
  i64 dims = 1;    ///< dimensionality of the sections it was built from
  i64 phases = 0;  ///< nonempty schedule phases, including the self phase

  [[nodiscard]] i64 ranks() const noexcept { return comm.ranks; }
  [[nodiscard]] i64 message_count() const noexcept { return comm.message_count(); }
  [[nodiscard]] i64 remote_elements() const noexcept { return comm.remote_elements(); }
  [[nodiscard]] i64 total_elements() const noexcept { return comm.total_elements(); }
};

/// Wrap a built CommPlan into a RedistributionPlan (computes the phase
/// count once; O(p^2) over the channel grid).
[[nodiscard]] RedistributionPlan finish_redistribution_plan(CommPlan&& comm, i64 dims);

/// Pipeline depth predicted from the sim cost model for this plan's
/// dominant per-phase payload: 1 + ceil(wire_time / pack_time), clamped to
/// [2, 8]. Reads the same CYCLICK_SIM_* knobs the simulated mesh uses.
[[nodiscard]] i64 adaptive_redist_window(const CommPlan& plan, i64 elem_bytes);

/// The receive window one plan execution runs with: CYCLICK_REDIST_WINDOW
/// when set (0 counts as 1), else the adaptive prediction, clamped to
/// [1, CYCLICK_TRANSPORT_CREDITS] — no rank ever posts more receives than
/// its completion queue has credits.
[[nodiscard]] i64 resolve_redist_window(const CommPlan& plan, i64 elem_bytes);

/// Build the scheduled plan for the 1-D copy dst(dsec) = src(ssec).
template <typename T>
[[nodiscard]] RedistributionPlan build_redistribution_plan(const DistributedArray<T>& src,
                                                           const RegularSection& ssec,
                                                           DistributedArray<T>& dst,
                                                           const RegularSection& dsec,
                                                           const SpmdExecutor& exec) {
  return finish_redistribution_plan(build_copy_plan(src, ssec, dst, dsec, exec), 1);
}

namespace detail {

/// Element type of an array's local spans.
template <typename Arr>
using local_element_t = std::remove_cvref_t<decltype(std::declval<Arr&>().local(i64{0})[0])>;

/// True when src's and dst's local spans for `rank` share any bytes. A
/// direct copy would write destinations while sources are still live, so
/// aliased copies (same array, shifted sections) stage their local
/// channels through the plan arena instead.
template <typename SrcArr, typename DstArr>
[[nodiscard]] bool rank_locals_alias(const SrcArr& src, DstArr& dst, i64 rank) {
  const auto s = src.local(rank);
  const auto d = dst.local(rank);
  if (s.empty() || d.empty()) return false;
  const void* s0 = s.data();
  const void* s1 = s.data() + s.size();
  const void* d0 = d.data();
  const void* d1 = d.data() + d.size();
  const std::less<const void*> lt;  // total order even for unrelated objects
  return lt(s0, d1) && lt(d0, s1);
}

template <typename SrcArr, typename DstArr>
[[nodiscard]] bool arrays_alias(const SrcArr& src, DstArr& dst, i64 ranks) {
  for (i64 r = 0; r < ranks; ++r)
    if (rank_locals_alias(src, dst, r)) return true;
  return false;
}

/// Copy one channel straight from the sender's local span to the
/// receiver's — the fused form of pack_channel + unpack_channel with the
/// arena round trip removed. Pack's gather and unpack's scatter share one
/// joint period, so their composition is a single gather/scatter (or
/// memcpy) per channel: one read and one write per element where the
/// staged path does two of each.
template <typename T>
void copy_channel(const CommPlan::Channel& ch, const i64* soff, const i64* doff,
                  const T* src_local, T* dst_local) {
  if (ch.count == 1) {
    dst_local[ch.dst_start] = src_local[ch.src_start];
    return;
  }
  if (ch.src_contig) {
    // The wire stream in channel order IS the contiguous source span:
    // scatter it into the destination directly.
    unpack_channel<T>(ch.count, ch.dst_start, doff, ch.period, ch.dst_advance,
                      ch.dst_contig, src_local + ch.src_start, dst_local);
    return;
  }
  if (ch.dst_contig) {
    // Dual case: gather the source straight into the contiguous
    // destination span.
    pack_channel<T>(ch.count, ch.src_start, soff, ch.period, ch.src_advance,
                    ch.src_contig, src_local, dst_local + ch.dst_start);
    return;
  }
  if (ch.period == 1) {
    // Strided-to-strided: the whole channel is one dual-stride loop.
    const T* s = src_local + ch.src_start;
    T* d = dst_local + ch.dst_start;
    for (i64 j = 0; j < ch.count; ++j) d[j * ch.dst_advance] = s[j * ch.src_advance];
    return;
  }
  // Both sides periodic-noncontiguous: replay the joint offset tables
  // blockwise. Same addressing work as one pack *or* one unpack leg, but
  // it replaces both.
  const T* s = src_local + ch.src_start;
  T* d = dst_local + ch.dst_start;
  const i64 full = ch.count / ch.period;
  for (i64 i = 0; i < full; ++i) {
    for (i64 r = 0; r < ch.period; ++r) d[doff[r]] = s[soff[r]];
    s += ch.src_advance;
    d += ch.dst_advance;
  }
  for (i64 r = 0; r < ch.count % ch.period; ++r) d[doff[r]] = s[soff[r]];
}

/// Where each channel's bytes go. Channel (m <- q) with m != q crosses
/// `wire` when one is set — except on a replicated machine (`replica` is
/// this process's rank), where only the channels touching that rank do:
/// its outgoing channels are sent *and* applied to the local replica, its
/// incoming ones are filled from the received bytes alone. Every other
/// channel is local: copied straight across, or through the plan arena
/// when `staged` (src and dst alias, so every read must precede any
/// write).
struct Endpoints {
  Transport* wire = nullptr;  ///< null: every channel is local
  i64 replica = -1;           ///< >= 0: replicated machine, this process's rank
  bool staged = false;        ///< local channels stage through the arena

  /// Channel (m <- q) leaves this process on the wire.
  [[nodiscard]] bool sends(i64 m, i64 q) const noexcept {
    return wire != nullptr && m != q && (replica < 0 || q == replica);
  }
  /// Channel (m <- q) is filled from received wire bytes, never locally.
  [[nodiscard]] bool receives(i64 m, i64 q) const noexcept {
    return wire != nullptr && m != q && (replica < 0 || m == replica);
  }
};

/// One receiving rank's sliding window over its incoming wire channels.
struct RecvWindow {
  std::unique_ptr<CompletionQueue> cq;  ///< null when nothing arrives by wire
  std::vector<i64> phases;              ///< incoming wire phases, in order
  std::vector<i64> posted_ns;           ///< [phase] -> post time (-1 untracked)
  std::size_t posted = 0;               ///< phases[0, posted) are posted
  std::size_t reaped = 0;               ///< completions unpacked so far

  [[nodiscard]] bool open() const noexcept { return reaped < phases.size(); }
};

/// Exception-path cleanup: withdraw whatever a dying exchange still has
/// posted so the transport holds no dangling CompletionQueue pointers.
class CancelPosted {
 public:
  CancelPosted(Transport* wire, std::span<RecvWindow> windows)
      : wire_(wire), windows_(windows) {}
  ~CancelPosted() {
    for (RecvWindow& w : windows_)
      if (w.cq && w.open()) wire_->cancel_posted(*w.cq);
  }
  CancelPosted(const CancelPosted&) = delete;
  CancelPosted& operator=(const CancelPosted&) = delete;

 private:
  Transport* wire_;
  std::span<RecvWindow> windows_;
};

/// The one payload-size check every wire receive goes through: throws a
/// precondition_error naming the channel (from->to) and schedule phase.
[[noreturn]] void throw_payload_size_mismatch(i64 from, i64 to, i64 phase, std::size_t got,
                                              std::size_t want);

/// The executor core: the post / produce / consume stages over one plan,
/// with the channel endpoints fixed for the whole execution.
template <typename SrcArr, typename DstArr>
class Exchange {
 public:
  using T = local_element_t<DstArr>;
  static_assert(std::is_trivially_copyable_v<T>, "plans move raw bytes");

  Exchange(const CommPlan& plan, const SrcArr& src, DstArr& dst, Endpoints ends,
           i64 counter_rank)
      : plan_(plan), src_(src), dst_(dst), ends_(ends), p_(plan.ranks) {
    CYCLICK_COUNT("commplan.execs", counter_rank, 1);
    CYCLICK_COUNT("redist.execs", counter_rank, 1);
    if (ends.wire != nullptr) {
      CYCLICK_REQUIRE(ends.wire->ranks() == plan.ranks, "transport/plan rank mismatch");
      window_ = resolve_redist_window(plan, static_cast<i64>(sizeof(T)));
      CYCLICK_COUNT("redist.pipelined_execs", counter_rank, 1);
    } else if (!ends.staged) {
      CYCLICK_COUNT("redist.fused_execs", counter_rank, 1);
    }
  }

  /// Post: list receiver m's incoming wire phases in schedule order and
  /// pre-post the first W of them.
  void post(i64 m, RecvWindow& w) const {
    for (i64 f = 1; f < p_; ++f) {
      const i64 q = redist_peer_from(m, f, p_);
      if (ends_.receives(m, q) && plan_.channel(m, q).count > 0) w.phases.push_back(f);
    }
    if (w.phases.empty()) return;
    w.cq = std::make_unique<CompletionQueue>(window_);
    w.posted_ns.assign(static_cast<std::size_t>(p_), -1);
    for (i64 i = 0; i < window_; ++i) post_next(m, w);
  }

  /// Produce: walk sender q's channels in schedule order, packing each
  /// outgoing wire channel into its payload (isend, tagged by phase) and
  /// staging local channels in the arena when they must be. Non-null
  /// `drain` unpacks completions that already arrived between sends.
  void produce(i64 q, RecvWindow* drain) const {
    CYCLICK_SPAN("plan_exec.pack", q);
    const T* local = src_.local(q).data();
    for (i64 f = 0; f < p_; ++f) {
      const i64 m = redist_peer_to(q, f, p_);
      const CommPlan::Channel& ch = plan_.channel(m, q);
      const bool wire = ends_.sends(m, q);
      const bool stage = ends_.staged && !ends_.receives(m, q);
      if (ch.count == 0 || (!wire && !stage)) continue;
      {
        CYCLICK_SPAN(ends_.wire != nullptr ? "redist.pipe.pack" : nullptr, q);
        // Pack straight into the wire payload (or arena) bytes: a
        // vector<std::byte> heap buffer is max-aligned, so a T view is valid.
        std::vector<std::byte> payload;
        std::vector<std::byte>& buf = stage ? plan_.scratch(m, q) : payload;
        buf.resize(bytes(ch));
        pack_channel<T>(ch.count, ch.src_start, plan_.src_off.data() + ch.gap_begin, ch.period,
                        ch.src_advance, ch.src_contig, local, reinterpret_cast<T*>(buf.data()));
        if (wire)
          ends_.wire->isend(q, m, stage ? std::vector<std::byte>(buf) : std::move(payload),
                            nullptr, f);
      }
      if (drain != nullptr && drain->cq)
        while (std::optional<Completion> c = drain->cq->try_wait()) land(q, *drain, *c);
    }
  }

  /// Consume: fill receiver m's local channels in schedule order, then
  /// unpack its wire completions in arrival order until the window drains.
  void consume(i64 m, RecvWindow* w) const {
    const bool fused = ends_.wire == nullptr && !ends_.staged;
    CYCLICK_SPAN(fused ? "plan_exec.fused" : "plan_exec.unpack", m);
    T* local = dst_.local(m).data();
    for (i64 f = 0; f < p_; ++f) {
      const i64 q = redist_peer_from(m, f, p_);
      const CommPlan::Channel& ch = plan_.channel(m, q);
      if (ch.count == 0 || ends_.receives(m, q)) continue;
      CYCLICK_COUNT("commplan.bytes", m, ch.count * static_cast<i64>(sizeof(T)));
      if (ends_.staged)
        unpack(ch, reinterpret_cast<const T*>(plan_.scratch(m, q).data()), local);
      else
        copy_channel<T>(ch, plan_.src_off.data() + ch.gap_begin,
                        plan_.dst_off.data() + ch.gap_begin, src_.local(q).data(), local);
    }
    if (w == nullptr || !w->cq) return;
    const i64 timeout = ends_.wire->recv_timeout_ms();
    while (w->open()) land(m, *w, w->cq->wait(timeout));
  }

 private:
  [[nodiscard]] static std::size_t bytes(const CommPlan::Channel& ch) noexcept {
    return static_cast<std::size_t>(ch.count) * sizeof(T);
  }

  void unpack(const CommPlan::Channel& ch, const T* in, T* local) const {
    unpack_channel<T>(ch.count, ch.dst_start, plan_.dst_off.data() + ch.gap_begin, ch.period,
                      ch.dst_advance, ch.dst_contig, in, local);
  }

  void post_next(i64 m, RecvWindow& w) const {
    if (w.posted == w.phases.size()) return;
    const i64 f = w.phases[w.posted++];
    if (obs::enabled()) w.posted_ns[static_cast<std::size_t>(f)] = obs::now_ns();
    ends_.wire->irecv(m, redist_peer_from(m, f, p_), *w.cq, f);
  }

  /// Unpack one wire completion into receiver m and slide its window.
  void land(i64 m, RecvWindow& w, const Completion& c) const {
    const i64 f = c.tag;
    const i64 q = redist_peer_from(m, f, p_);
    const CommPlan::Channel& ch = plan_.channel(m, q);
    if (c.payload.size() != bytes(ch))
      throw_payload_size_mismatch(q, m, f, c.payload.size(), bytes(ch));
    CYCLICK_COUNT("commplan.bytes", m, ch.count * static_cast<i64>(sizeof(T)));
    const i64 post_ns = w.posted_ns[static_cast<std::size_t>(f)];
    if (post_ns >= 0)
      obs::TraceSink::global().complete("redist.pipe.inflight", m, post_ns, obs::now_ns());
    {
      CYCLICK_SPAN("redist.pipe.unpack", m);
      unpack(ch, reinterpret_cast<const T*>(c.payload.data()), dst_.local(m).data());
    }
    ++w.reaped;
    post_next(m, w);
  }

  const CommPlan& plan_;
  const SrcArr& src_;
  DstArr& dst_;
  Endpoints ends_;
  i64 p_;
  i64 window_ = 1;
};

/// Run the exchange for the whole machine, one exec.run phase per stage.
/// Aliased arrays force the arena-staged local copy; `ends.staged` forces
/// it too, which is how the redistribution bench and tests compare the
/// staged and fused shapes of the same plan.
template <typename SrcArr, typename DstArr>
void run_machine(const CommPlan& plan, const SrcArr& src, DstArr& dst,
                 const SpmdExecutor& exec, Endpoints ends) {
  CYCLICK_REQUIRE(plan.ranks == exec.ranks(), "plan built for a different machine");
  ends.staged = ends.staged || arrays_alias(src, dst, plan.ranks);
  const Exchange<SrcArr, DstArr> x(plan, src, dst, ends, std::max<i64>(ends.replica, 0));
  std::vector<RecvWindow> windows(ends.wire != nullptr ? static_cast<std::size_t>(plan.ranks)
                                                       : 0);
  const CancelPosted guard(ends.wire, windows);
  // One captured reference keeps each std::function in its small buffer,
  // so the in-process steady state allocates nothing.
  struct Stages {
    const Exchange<SrcArr, DstArr>& x;
    RecvWindow* w;  ///< [rank], null without a wire
  };
  const Stages st{x, ends.wire != nullptr ? windows.data() : nullptr};
  if (st.w != nullptr) exec.run([&st](i64 m) { st.x.post(m, st.w[m]); });
  if (st.w != nullptr || ends.staged) exec.run([&st](i64 q) { st.x.produce(q, nullptr); });
  exec.run([&st](i64 m) { st.x.consume(m, st.w != nullptr ? &st.w[m] : nullptr); });
}

}  // namespace detail

/// Execute a compressed plan on the whole machine, routed to whichever
/// backend is present: a live ProcessContext whose world matches the plan
/// (the replicated proc machine: every process runs the full replica, and
/// the channels touching its own rank cross the real wire, so transport
/// corruption shows up as a checksum error or a divergent replica), then
/// an installed TransportProvider (the simulated mesh), else in-process —
/// where the fused copy needs no arena and no allocation in steady state.
template <typename SrcArr, typename DstArr>
void execute_copy_plan(const CommPlan& plan, const SrcArr& src, DstArr& dst,
                       const SpmdExecutor& exec) {
  detail::Endpoints ends;
  const ProcessContext& pc = process_context();
  if (pc.active() && plan.ranks == pc.world) {
    CYCLICK_REQUIRE(pc.rank >= 0 && pc.rank < plan.ranks, "rank out of range");
    ends.wire = pc.transport;
    ends.replica = pc.rank;
  } else if (TransportProvider* provider = transport_provider(); provider != nullptr) {
    ends.wire = &provider->transport_for(plan.ranks);
  }
  detail::run_machine(plan, src, dst, exec, ends);
}

/// Execute a compressed plan on the whole machine with every remote
/// channel carried as one message over `transport` — the entry point an
/// MPI port would rebind. Identical results to execute_copy_plan.
template <typename SrcArr, typename DstArr>
void execute_copy_plan_over(const CommPlan& plan, const SrcArr& src, DstArr& dst,
                            const SpmdExecutor& exec, Transport& transport) {
  detail::run_machine(plan, src, dst, exec, {.wire = &transport});
}

/// Execute exactly one rank's share of a plan — the genuinely distributed
/// entry point, where the calling process *is* rank `rank` and
/// `transport` is its endpoint. Only src.local(rank) is read and
/// dst.local(rank) written; every remote destination element comes from
/// received wire bytes. The stages run back to back: sends never block,
/// so the protocol is deadlock-free regardless of peer pacing, and
/// completions that land while this rank is still sending are unpacked
/// between sends unless the locals alias.
template <typename SrcArr, typename DstArr>
void execute_copy_plan_rank(const CommPlan& plan, const SrcArr& src, DstArr& dst, i64 rank,
                            Transport& transport) {
  CYCLICK_REQUIRE(rank >= 0 && rank < plan.ranks, "rank out of range");
  const bool aliased = detail::rank_locals_alias(src, dst, rank);
  const detail::Exchange<SrcArr, DstArr> x(plan, src, dst,
                                           {.wire = &transport, .staged = aliased}, rank);
  detail::RecvWindow w;
  const detail::CancelPosted guard(&transport, {&w, 1});
  x.post(rank, w);
  x.produce(rank, aliased ? nullptr : &w);
  x.consume(rank, &w);
}

/// Execute a scheduled plan (records redist.* schedule telemetry on top of
/// the channel-level counters, then dispatches like execute_copy_plan).
template <typename SrcArr, typename DstArr>
void execute_redistribution(const RedistributionPlan& plan, const SrcArr& src, DstArr& dst,
                            const SpmdExecutor& exec) {
  CYCLICK_SPAN("redist.exec", 0);
  CYCLICK_COUNT("redist.phases", 0, plan.phases);
  execute_copy_plan(plan.comm, src, dst, exec);
}

/// Which order replay_plan_traffic posts each sender's messages in.
enum class ScheduleOrder {
  kNaive,    ///< every sender walks receivers 0, 1, ..., p-1 (incast shape)
  kRotated,  ///< sender q's f-th message targets (q + f) mod p
};

/// Replay only the *wire traffic* of a plan through a transport: one
/// zero-filled message per nonempty remote channel, sized like the real
/// payload (`elem_bytes` per element), posted in the given order and then
/// drained. No arrays are touched — this is the incast-study primitive:
/// run it twice over a simulated mesh (kNaive vs kRotated) and compare the
/// transport's congestion report.
void replay_plan_traffic(const CommPlan& plan, Transport& transport, ScheduleOrder order,
                         i64 elem_bytes);

}  // namespace cyclick
