// Communication plans for dst(dsec) = src(ssec) over distributed arrays.
//
// The paper's Theorem 3 says a processor's access sequence is periodic with
// at most k distinct gaps; the same holds for the per-channel streams of a
// cyclic(k) redistribution (Chatterjee et al., PPoPP'93). The plan
// representation exploits that: instead of one {src_global, dst_local} item
// per element (O(|section|) space, a modular solve per element at execution
// time), each sender->receiver channel stores one run descriptor
//
//   (src_local_start, dst_local_start, count, periodic offset tables)
//
// where the offset tables hold the prefix sums of the shortest period of
// the local-address delta streams on both sides. Plan size is O(p^2 + sum
// of channel periods) — O(p^2 + k)-shaped in practice — and pack/unpack
// replay the offsets through the kernel layer's gather/scatter loops
// (core/kernels.hpp): no owner_of / local_address calls, and no serially
// dependent address chain either.
//
// Construction is one serial pass over the section positions in ascending
// destination-cell order, with an OwnerCursor on each side stepping its
// block coordinates without dividing. A counting pass sizes every channel,
// a fill pass writes both address streams into one flat, channel-grouped
// array pair, and CommPlan::from_streams compresses each channel to its
// shortest period — the one finalizer of every builder (1-D copies, N-D
// regions, compiled halos).
//
// Execution lives in redistribute.hpp (the scheduling layer): this header
// owns the *description* of the movement — representation, builders, the
// pack/unpack kernels — while the redistribution layer owns the all-to-all
// schedule the channels execute under and the backend dispatch. Execution
// is zero-copy: values are packed directly into per-channel byte buffers
// (the Transport wire format) owned by the plan's scratch arena and reused
// across executions, so steady-state execution performs no heap
// allocations. The pre-existing per-item representation survives only as
// the test and bench oracle in tests/support/legacy_comm_plan.hpp.
//
// Concurrency: a built plan is immutable except for the scratch arena.
// Within one execution the arena is touched per-channel (each channel by
// exactly one sender in phase 1 and one receiver in phase 2, with a
// barrier between), so the threaded executor is safe; two *concurrent
// executions of the same plan object* would race on the arena.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "cyclick/core/engine.hpp"
#include "cyclick/core/kernels.hpp"
#include "cyclick/obs/metrics.hpp"
#include "cyclick/obs/trace.hpp"
#include "cyclick/runtime/distributed_array.hpp"
#include "cyclick/runtime/spmd.hpp"

namespace cyclick {

/// The engine plan for `rank`'s share of `sec` over `arr`'s template cells
/// (ascending cell order). Plan globals are template cells; plan locals are
/// local addresses only under identity alignment (use index_of_cell /
/// PackedLayout otherwise, as the owned walk in distributed_array.hpp does).
template <typename T>
[[nodiscard]] SectionPlan owned_plan(const DistributedArray<T>& arr, const RegularSection& sec,
                                     i64 rank) {
  return AddressEngine::global().plan(arr.dist(), arr.alignment().image(sec).ascending(),
                                      rank);
}

/// True when every element of `sec` is an index of `arr`.
template <typename T>
[[nodiscard]] bool section_within(const DistributedArray<T>& arr, const RegularSection& sec) {
  return sec.empty() || (sec.lower >= 0 && sec.lower < arr.size() && sec.last() >= 0 &&
                         sec.last() < arr.size());
}

/// Owner cursor over a section of `arr`: the owning rank and packed local
/// address of element sec.element(t) as t steps by a fixed dt. The template
/// cell is affine in t, so advance() carries the cell's (row, owner, block
/// offset) coordinates forward with adds and compares; only seek() divides.
class OwnerCursor {
 public:
  template <typename T>
  OwnerCursor(const DistributedArray<T>& arr, const RegularSection& sec, i64 dt = 1)
      : p_(arr.dist().procs()),
        k_(arr.dist().block_size()),
        slope_(arr.alignment().a * sec.stride),
        base_(arr.alignment().a * sec.lower + arr.alignment().b),
        step_(split(slope_ * dt)) {
    if (!arr.alignment().is_identity())
      for (i64 m = 0; m < p_; ++m) layouts_.push_back(arr.packed_layout_or_null(m));
  }

  /// Position the cursor at t.
  void seek(i64 t) { at_ = split(base_ + slope_ * t); }

  /// Move `len` positions, the first len - 1 of them inside the block
  /// (len <= run()).
  void advance(i64 len) noexcept {
    at_.cell += len * step_.cell;
    at_.off += step_.off + (len - 1) * step_.cell;
    const bool next_block = at_.off >= k_;
    at_.off -= next_block ? k_ : 0;
    at_.owner += step_.owner + (next_block ? 1 : 0);
    const bool next_row = at_.owner >= p_;
    at_.owner -= next_row ? p_ : 0;
    at_.row += step_.row + (next_row ? 1 : 0);
  }

  /// True when packed addresses follow the cell within a block (a unit
  /// cell step under identity alignment), so runs can be longer than 1.
  [[nodiscard]] bool unit() const noexcept {
    return layouts_.empty() && (step_.cell == 1 || step_.cell == -1);
  }
  /// Positions from this one to the end of its block along the walk
  /// (unit() cursors only).
  [[nodiscard]] i64 run() const noexcept {
    return step_.cell == 1 ? k_ - at_.off : at_.off + 1;
  }
  /// Packed-address step between the positions of one run.
  [[nodiscard]] i64 step() const noexcept { return step_.cell; }
  [[nodiscard]] i64 owner() const noexcept { return at_.owner; }
  [[nodiscard]] i64 local() const {
    return layouts_.empty() ? at_.row * k_ + at_.off
                            : layouts_[static_cast<std::size_t>(at_.owner)]->rank(at_.cell);
  }

 private:
  struct Coord {
    i64 cell, row, owner, off;
  };
  [[nodiscard]] Coord split(i64 c) const {
    const i64 row = floor_div(c, p_ * k_);
    const i64 x = c - row * p_ * k_;
    return {c, row, x / k_, x % k_};
  }

  i64 p_, k_;
  i64 slope_, base_;
  Coord step_;  ///< one step of dt positions, split like a cell
  Coord at_{};
  std::vector<const PackedLayout*> layouts_;  // empty for identity alignment
};

namespace detail {

/// Per-channel address streams, flat and grouped by channel: the form every
/// plan builder hands CommPlan::from_streams. Channel c (= receiver * ranks
/// + sender) holds elements [begin[c], begin[c + 1]) of `src` and `dst`
/// (packed local addresses on sender and receiver) in stream order. Filled
/// in two passes: count() every element, layout(), then put_run() each.
struct ChannelStreams {
  std::vector<i64> begin;
  std::vector<i64> next;  ///< fill cursor per channel
  std::vector<i64> src, dst;

  void reset(i64 channels) { begin.assign(static_cast<std::size_t>(channels + 1), 0); }
  void count(i64 c, i64 len = 1) { begin[static_cast<std::size_t>(c + 1)] += len; }
  void layout() {
    for (std::size_t c = 1; c < begin.size(); ++c) begin[c] += begin[c - 1];
    next.assign(begin.begin(), begin.end() - 1);
    src.resize(static_cast<std::size_t>(begin.back()));
    dst.resize(static_cast<std::size_t>(begin.back()));
  }
  /// `len` elements at s, s + ds, ... and d, d + dd, ...
  void put_run(i64 c, i64 s, i64 ds, i64 d, i64 dd, i64 len) {
    i64& at = next[static_cast<std::size_t>(c)];
    for (i64 j = 0; j < len; ++j) {
      src[static_cast<std::size_t>(at + j)] = s + j * ds;
      dst[static_cast<std::size_t>(at + j)] = d + j * dd;
    }
    at += len;
  }
};

/// Pack `count` values from `local` into `out`. The channel's address
/// stream is start + j*advance + off[r] (off = prefix sums of the gap
/// period), so packing is exactly the kernel layer's periodic gather:
/// contiguous channels memcpy, period-1 channels take the strided
/// loop, everything else replays the offset vector — the same primitives
/// section_ops runs on.
template <typename T>
void pack_channel(i64 count, i64 start, const i64* off, i64 period, i64 advance,
                  bool contig, const T* local, T* out) {
  const T* base = local + start;
  if (contig) {
    std::memcpy(out, base, static_cast<std::size_t>(count) * sizeof(T));
    return;
  }
  if (period == 1) {
    kernel_gather_strided(base, advance, count, out);
    return;
  }
  kernel_gather_offsets(base, off, period, advance, count, out);
}

/// Unpack `count` values from `in` into `local` (scatter mirror of
/// pack_channel, same kernel primitives).
template <typename T>
void unpack_channel(i64 count, i64 start, const i64* off, i64 period, i64 advance,
                    bool contig, const T* in, T* local) {
  T* base = local + start;
  if (contig) {
    std::memcpy(base, in, static_cast<std::size_t>(count) * sizeof(T));
    return;
  }
  if (period == 1) {
    kernel_scatter_strided(base, advance, count, in);
    return;
  }
  kernel_scatter_offsets(base, off, period, advance, count, in);
}

}  // namespace detail

/// Compressed periodic communication plan. One Channel per (receiver m,
/// sender q) pair; the periodic address tables for all channels are pooled
/// in two flat arrays (src side used by pack, dst side by unpack), stored
/// as per-period *offset vectors* (prefix sums of the gap period) so
/// pack/unpack replay them with the kernel layer's offset-indexed
/// gather/scatter instead of a serially dependent gap chain. Message and
/// element statistics are computed once at build time.
struct CommPlan {
  struct Channel {
    i64 count = 0;        ///< elements on this channel
    i64 src_start = 0;    ///< first packed local address on the sender
    i64 dst_start = 0;    ///< first packed local address on the receiver
    i64 period = 0;       ///< offset-table length (0 iff count <= 1)
    i64 gap_begin = 0;    ///< slice start in the pooled offset arrays
    i64 src_advance = 0;  ///< sender local-address advance per period
    i64 dst_advance = 0;  ///< receiver local-address advance per period
    bool src_contig = false;  ///< sender stream is one contiguous span
    bool dst_contig = false;  ///< receiver stream is one contiguous span
  };

  i64 ranks = 0;
  std::vector<Channel> channels;  ///< [receiver * ranks + sender]
  std::vector<i64> src_off;       ///< pooled sender-side offset tables
  std::vector<i64> dst_off;       ///< pooled receiver-side offset tables

  [[nodiscard]] const Channel& channel(i64 receiver, i64 sender) const {
    return channels[static_cast<std::size_t>(receiver * ranks + sender)];
  }
  /// Elements on channel (receiver, sender).
  [[nodiscard]] i64 channel_size(i64 receiver, i64 sender) const {
    return channel(receiver, sender).count;
  }
  /// Number of nonempty sender->receiver channels with sender != receiver.
  [[nodiscard]] i64 message_count() const noexcept { return message_count_; }
  /// Total elements crossing rank boundaries.
  [[nodiscard]] i64 remote_elements() const noexcept { return remote_elements_; }
  /// Total elements moved (equals the section size).
  [[nodiscard]] i64 total_elements() const noexcept { return total_elements_; }

  /// Heap bytes held by the plan's descriptors and gap tables (the scratch
  /// arena, an execution buffer equivalent to the wire payloads any
  /// executor must materialize, is reported separately).
  [[nodiscard]] std::size_t plan_bytes() const noexcept;
  /// Heap bytes currently held by the scratch arena.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept;

  /// The one finalizer: compress each channel's address streams to their
  /// shortest gap period, pooled as offset tables, and precompute the
  /// statistics. Consumes the streams: their addresses become gaps in place.
  static CommPlan from_streams(i64 ranks, detail::ChannelStreams& streams);

  /// Reusable per-channel pack buffer (execution arena). Mutable so that
  /// executing a shared immutable plan can reuse buffers across calls.
  [[nodiscard]] std::vector<std::byte>& scratch(i64 receiver, i64 sender) const {
    return scratch_[static_cast<std::size_t>(receiver * ranks + sender)];
  }

 private:
  i64 message_count_ = 0;
  i64 remote_elements_ = 0;
  i64 total_elements_ = 0;
  mutable std::vector<std::vector<std::byte>> scratch_;  ///< [m * ranks + q]
};

/// Build the compressed plan for dst(dsec) = src(ssec) (sizes must match).
/// One serial walk in ascending destination-cell order, so each channel's
/// stream is its receiver's owned cells in ascending order; the owner
/// cursors give both sides' owner and address without per-element
/// divisions.
template <typename T>
CommPlan build_copy_plan(const DistributedArray<T>& src, const RegularSection& ssec,
                         DistributedArray<T>& dst, const RegularSection& dsec,
                         const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(ssec.size() == dsec.size(), "section size mismatch in copy");
  CYCLICK_REQUIRE(exec.ranks() == dst.dist().procs(), "executor/destination rank mismatch");
  CYCLICK_REQUIRE(exec.ranks() == src.dist().procs(), "executor/source rank mismatch");
  CYCLICK_REQUIRE(section_within(dst, dsec), "section must lie within the array");
  CYCLICK_REQUIRE(section_within(src, ssec),
                  "source section must lie within the source array");
  const i64 p = exec.ranks();
  CYCLICK_COUNT("commplan.builds", 0, 1);
  CYCLICK_TIME_SCOPE("commplan.build_us", 0);
  CYCLICK_SPAN("plan_build", 0);
  const i64 n = dsec.size();
  const bool up = dst.alignment().a * dsec.stride > 0;
  const i64 t0 = up ? 0 : n - 1;
  const i64 dt = up ? 1 : -1;
  OwnerCursor dcur(dst, dsec, dt);
  OwnerCursor scur(src, ssec, dt);
  // This thread's streams, reused across builds: they are O(|section|), and
  // fresh arrays per build pay page faults on 2^16-element remaps.
  thread_local detail::ChannelStreams s;
  // Both passes step run by run: a run stays in one block on each side, so
  // it is one channel with consecutive addresses.
  const bool runs = dcur.unit() && scur.unit();
  const auto walk = [&](auto&& emit) {
    dcur.seek(t0);
    scur.seek(t0);
    for (i64 i = 0; i < n;) {
      const i64 len = runs ? std::min({n - i, dcur.run(), scur.run()}) : 1;
      emit(dcur.owner() * p + scur.owner(), len);
      dcur.advance(len);
      scur.advance(len);
      i += len;
    }
  };
  s.reset(p * p);
  walk([](i64 c, i64 len) { s.count(c, len); });
  s.layout();
  walk([&](i64 c, i64 len) {
    s.put_run(c, scur.local(), scur.step(), dcur.local(), dcur.step(), len);
  });
  return CommPlan::from_streams(p, s);
}

}  // namespace cyclick
