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
// Construction walks each receiver's owned destination elements once with
// an AddressEngine plan (dense unit-stride sections enumerate whole block
// runs; everything else walks the classified lattice path) and resolves the
// matching source owner with an *owner-run* cursor: the source cell moves
// linearly in the section position t, so divisions happen once per
// source-block crossing, not once per element.
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
/// packed addresses only under identity alignment (use index_of_cell /
/// PackedLayout otherwise, as for_each_owned does).
template <typename T>
[[nodiscard]] SectionPlan owned_plan(const DistributedArray<T>& arr, const RegularSection& sec,
                                     i64 rank) {
  return AddressEngine::global().plan(arr.dist(), arr.alignment().image(sec).ascending(),
                                      rank);
}

/// Visit every element of `sec` (array index space) owned by `rank`,
/// passing (t, local_addr) where t is the position within the section and
/// local_addr the element's packed local address. Enumeration is in
/// ascending template-cell order (ownership enumeration; statement-order
/// semantics are the caller's concern). Returns the visit count.
template <typename T, typename Body>
i64 for_each_owned(const DistributedArray<T>& arr, const RegularSection& sec, i64 rank,
                   Body&& body) {
  if (sec.empty()) return 0;
  CYCLICK_REQUIRE(sec.lower >= 0 && sec.lower < arr.size() && sec.last() >= 0 &&
                      sec.last() < arr.size(),
                  "section must lie within the array");
  const AffineAlignment& al = arr.alignment();
  // Hoist the per-rank layout lookup out of the loop: rank() queries are
  // per-element, but the layout object itself is loop-invariant.
  const PackedLayout* layout = arr.packed_layout_or_null(rank);
  const SectionPlan plan = owned_plan(arr, sec, rank);
  if (layout == nullptr && plan.contiguous()) {
    // Identity alignment + unit stride: t and the local address both move
    // by a fixed step within each owned block run — no per-element
    // index_of_cell inversions.
    const i64 dt = sec.stride > 0 ? 1 : -1;
    return plan.for_each_run([&](i64 g0, i64 l0, i64 len) {
      i64 t = (g0 - sec.lower) / sec.stride;
      for (i64 i = 0; i < len; ++i, t += dt) body(t, l0 + i);
    });
  }
  return plan.for_each([&](i64 cell, i64 la) {
    const auto idx = al.index_of_cell(cell);
    CYCLICK_ASSERT(idx.has_value());
    const i64 t = (*idx - sec.lower) / sec.stride;
    body(t, layout ? layout->rank(cell) : la);
  });
}

/// Owner-run cursor: maps a section position t to the owning rank (and
/// packed local address) of `arr`'s element `sec.element(t)`. The template
/// cell is linear in t, so consecutive positions resolve against a cached
/// owner block; the floor-division re-seek runs once per block crossing,
/// not once per element (the "owner-run enumeration" of the plan builder).
class OwnerCursor {
 public:
  template <typename T>
  OwnerCursor(const DistributedArray<T>& arr, const RegularSection& sec)
      : dist_(arr.dist()),
        slope_(arr.alignment().a * sec.stride),
        base_(arr.alignment().a * sec.lower + arr.alignment().b) {
    if (!arr.alignment().is_identity()) {
      layouts_.reserve(static_cast<std::size_t>(dist_.procs()));
      for (i64 m = 0; m < dist_.procs(); ++m)
        layouts_.push_back(arr.packed_layout_or_null(m));
    }
  }

  struct Hit {
    i64 owner;
    i64 local;
  };

  /// Owning rank of position t (no local-address work).
  i64 owner_at(i64 t) {
    seek(base_ + slope_ * t);
    return owner_;
  }

  /// Owning rank and packed local address of position t.
  Hit at(i64 t) {
    const i64 c = base_ + slope_ * t;
    seek(c);
    const i64 local = layouts_.empty()
                          ? row_base_ + (c - blk_lo_)
                          : layouts_[static_cast<std::size_t>(owner_)]->rank(c);
    return {owner_, local};
  }

 private:
  void seek(i64 c) {
    if (c >= blk_lo_ && c < blk_hi_) return;
    const i64 row = floor_div(c, dist_.row_length());
    const i64 x = c - row * dist_.row_length();
    owner_ = x / dist_.block_size();
    blk_lo_ = row * dist_.row_length() + owner_ * dist_.block_size();
    blk_hi_ = blk_lo_ + dist_.block_size();
    row_base_ = row * dist_.block_size();
  }

  BlockCyclic dist_;
  i64 slope_;
  i64 base_;
  i64 owner_ = 0;
  i64 blk_lo_ = 1, blk_hi_ = 0;  // empty range: the first query always seeks
  i64 row_base_ = 0;
  std::vector<const PackedLayout*> layouts_;  // empty for identity alignment
};

namespace detail {

/// Per-channel accumulator used during plan construction: records the two
/// start addresses and the local-address delta streams, which finalization
/// compresses to their shortest period.
struct ChannelAccum {
  i64 count = 0;
  i64 src_start = 0, dst_start = 0;
  i64 prev_src = 0, prev_dst = 0;
  std::vector<i64> src_deltas, dst_deltas;

  void append(i64 sla, i64 la) {
    if (count == 0) {
      src_start = sla;
      dst_start = la;
    } else {
      src_deltas.push_back(sla - prev_src);
      dst_deltas.push_back(la - prev_dst);
    }
    prev_src = sla;
    prev_dst = la;
    ++count;
  }

  /// Append n elements whose source and destination addresses are both
  /// contiguous from (sla, la) — the dense-run build path's bulk insert.
  void append_run(i64 sla, i64 la, i64 n) {
    append(sla, la);
    if (n > 1) {
      src_deltas.insert(src_deltas.end(), static_cast<std::size_t>(n - 1), 1);
      dst_deltas.insert(dst_deltas.end(), static_cast<std::size_t>(n - 1), 1);
      prev_src = sla + n - 1;
      prev_dst = la + n - 1;
      count += n - 1;
    }
  }
};

/// Smallest pi >= 1 such that (a[i], b[i]) == (a[i-pi], b[i-pi]) for all
/// i >= pi (KMP border period over the paired delta stream); 0 for empty
/// streams. The streams need not be a whole number of periods long.
i64 smallest_gap_period(std::span<const i64> a, std::span<const i64> b);

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

  /// Build-time finalization: compress the accumulated delta streams into
  /// pooled periodic offset tables and precompute the statistics.
  void adopt_channels(std::vector<detail::ChannelAccum>&& accum);

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
/// Each receiver enumerates its destination elements with the table-free
/// iterator; the matching source owner and address come from the owner-run
/// cursor — no per-element owner_of / local_address calls anywhere.
template <typename T>
CommPlan build_copy_plan(const DistributedArray<T>& src, const RegularSection& ssec,
                         DistributedArray<T>& dst, const RegularSection& dsec,
                         const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(ssec.size() == dsec.size(), "section size mismatch in copy");
  CYCLICK_REQUIRE(exec.ranks() == dst.dist().procs(), "executor/destination rank mismatch");
  CYCLICK_REQUIRE(exec.ranks() == src.dist().procs(), "executor/source rank mismatch");
  const i64 p = exec.ranks();
  CYCLICK_COUNT("commplan.builds", 0, 1);
  CYCLICK_TIME_SCOPE("commplan.build_us", 0);
  std::vector<detail::ChannelAccum> accum(static_cast<std::size_t>(p * p));
  const bool dense_pair = ssec.stride == 1 && dsec.stride == 1 &&
                          src.alignment().is_identity() && dst.alignment().is_identity();
  if (!dsec.empty() && dense_pair) {
    // Both sides are unit-stride and identity-aligned: every destination
    // block run maps to a contiguous source span, so channels fill in bulk
    // run inserts split only at source block crossings — no owner cursor,
    // no per-element appends.
    CYCLICK_REQUIRE(dsec.lower >= 0 && dsec.last() < dst.size(),
                    "section must lie within the array");
    const BlockCyclic& sd = src.dist();
    const i64 sk = sd.block_size();
    exec.run([&](i64 m) {
      CYCLICK_SPAN("plan_build", m);
      detail::ChannelAccum* row = accum.data() + m * p;
      owned_plan(dst, dsec, m).for_each_run([&](i64 g0, i64 l0, i64 len) {
        i64 emitted = 0;
        while (emitted < len) {
          const i64 c = ssec.lower + (g0 - dsec.lower) + emitted;  // source cell
          const i64 n = std::min(len - emitted, sk - sd.block_offset(c));
          row[sd.owner(c)].append_run(sd.local_index(c), l0 + emitted, n);
          emitted += n;
        }
      });
    });
  } else if (!dsec.empty()) {
    exec.run([&](i64 m) {
      CYCLICK_SPAN("plan_build", m);
      OwnerCursor cur(src, ssec);
      detail::ChannelAccum* row = accum.data() + m * p;
      for_each_owned(dst, dsec, m, [&](i64 t, i64 la) {
        const auto hit = cur.at(t);
        row[hit.owner].append(hit.local, la);
      });
    });
  }
  CommPlan plan;
  plan.ranks = p;
  plan.adopt_channels(std::move(accum));
  return plan;
}

}  // namespace cyclick
