// Unified address-dispatch layer: one facade that classifies every
// (BlockCyclic, section, processor) access problem and hands back the
// enumerator for its class.
//
// Theorem 3 says each processor's access sequence is periodic, with at most
// k gaps, each R, -L or R-L. The paper's Section 6.2 observes that the
// period depends only on (p, k, |s|) — not on the processor number or the
// section's lower bound — so one construction serves every rank and every
// phase of an SPMD loop. AddressEngine builds it once per (p, k, |s|), keeps
// it in a keyed LRU cache, and sorts every problem into one of three
// classes before any table is consulted:
//
//   condition                      class        enumerator
//   |s| == 1                       runs         (start, len) block runs
//   p == 1 or gcd(|s|, pk) >= k    fixed-step   one constant global/local step
//   otherwise                      periodic     the Theorem-3 period
//
// Consumers receive a SectionPlan: the class plus a uniform for_each /
// for_each_run API, so runtime layers branch on the classification
// (memcpy/std::fill on runs) without re-deriving it.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "cyclick/core/access_pattern.hpp"
#include "cyclick/core/lattice_addresser.hpp"
#include "cyclick/hpf/distribution.hpp"
#include "cyclick/hpf/section.hpp"
#include "cyclick/support/lru_cache.hpp"

namespace cyclick {

/// The three access classes, in classification order.
enum class AccessClass {
  kRuns,       ///< |s| == 1: owned elements form contiguous local runs
  kFixedStep,  ///< p == 1 or gcd(|s|, pk) >= k: one constant local step
  kPeriodic,   ///< the Theorem-3 period of R / -L / R-L steps
};

/// "runs", "fixed-step" or "periodic".
[[nodiscard]] const char* access_class_name(AccessClass c) noexcept;

/// Processor- and phase-independent access sequence for one (p, k, |s|)
/// problem. Built once, eagerly, and immutable; shared via the engine's
/// table cache.
///
/// The periodic class lays out each cycle of Theorem 3's offset
/// permutation on [0, k) as one run of slots: the slot of each block offset,
/// and per slot its local-address and global-index offset along the cycle
/// (prefix sums of the R / -L / R-L gaps; the local ones shifted so the
/// offset at block offset q is at most q). Each cycle is followed by a copy
/// of itself one period on, so the period that starts at any offset q is
/// the contiguous window [slot[q], slot[q] + period[q]]: the walks and the
/// kernel replay for any start are a rotation of its cycle read in place,
/// and a descending walk steps back from the window's end.
struct EngineTables {
  AccessClass cls = AccessClass::kPeriodic;
  i64 step_global = 0;  ///< fixed-step class: global-index step
  i64 step_local = 0;   ///< fixed-step class: local-address step
  std::vector<i64> slot;        ///< k entries: first slot of block offset q
  std::vector<i64> period;      ///< k entries: length of the cycle through q
  std::vector<i64> local_off;   ///< per slot: local-address offset along the cycle
  std::vector<i64> global_off;  ///< per slot: global-index offset along the cycle
};

/// The engine's answer for one bounded section on one processor: the class,
/// the shared tables, and the traversal endpoints. Enumeration respects the
/// section's direction (descending for s < 0); for_each_run always yields
/// ascending runs.
class SectionPlan {
 public:
  SectionPlan() = default;

  [[nodiscard]] AccessClass cls() const noexcept { return cls_; }
  /// True when the processor owns no in-bounds section element.
  [[nodiscard]] bool empty() const noexcept { return empty_; }
  [[nodiscard]] const BlockCyclic& dist() const noexcept { return dist_; }
  [[nodiscard]] i64 proc() const noexcept { return proc_; }
  /// The section's original (signed) stride.
  [[nodiscard]] i64 stride() const noexcept { return stride_; }
  [[nodiscard]] const std::shared_ptr<const EngineTables>& tables() const noexcept {
    return tables_;
  }

  /// Traversal-order endpoints (descending traversal for stride < 0).
  /// Meaningful only for nonempty plans.
  [[nodiscard]] i64 first_global() const noexcept { return stride_ < 0 ? al_global_ : af_global_; }
  [[nodiscard]] i64 first_local() const noexcept { return stride_ < 0 ? al_local_ : af_local_; }
  [[nodiscard]] i64 last_global() const noexcept { return stride_ < 0 ? af_global_ : al_global_; }
  [[nodiscard]] i64 last_local() const noexcept { return stride_ < 0 ? af_local_ : al_local_; }

  /// True when consecutive owned elements occupy consecutive local cells,
  /// so for_each_run yields memcpy/std::fill-able block runs.
  [[nodiscard]] bool contiguous() const noexcept { return !empty_ && cls_ == AccessClass::kRuns; }

  /// Visit every owned in-bounds element as (global index, local address),
  /// in traversal order. Returns the visit count.
  template <typename Body>
  i64 for_each(Body&& body) const {
    if (empty_) return 0;
    switch (cls_) {
      case AccessClass::kRuns: {
        const i64 k = dist_.block_size();
        const i64 row_skip = dist_.row_length() - k;
        i64 count = 0;
        if (stride_ > 0) {
          i64 g = af_global_;
          i64 la = af_local_;
          while (g <= asc_hi_) {
            const i64 block_end = g + (k - 1 - dist_.block_offset(g));
            const i64 run_end = block_end < asc_hi_ ? block_end : asc_hi_;
            for (; g <= run_end; ++g, ++la, ++count) body(g, la);
            g += row_skip;
          }
        } else {
          i64 g = al_global_;
          i64 la = al_local_;
          while (g >= asc_lo_) {
            const i64 block_start = g - dist_.block_offset(g);
            const i64 run_end = block_start > asc_lo_ ? block_start : asc_lo_;
            for (; g >= run_end; --g, --la, ++count) body(g, la);
            g -= row_skip;
          }
        }
        return count;
      }
      case AccessClass::kFixedStep: {
        if (stride_ > 0) return step_ascending(std::forward<Body>(body));
        const i64 dg = tables_->step_global;
        const i64 dl = tables_->step_local;
        i64 count = 0;
        for (i64 g = al_global_, la = al_local_; g >= asc_lo_; g -= dg, la -= dl, ++count)
          body(g, la);
        return count;
      }
      case AccessClass::kPeriodic:
        return stride_ < 0 ? walk_descending(std::forward<Body>(body))
                           : walk_ascending(std::forward<Body>(body));
    }
    return 0;
  }

  /// Enumerate the owned elements as ascending runs (global start, local
  /// start, length) with both addresses contiguous within a run. The runs
  /// class yields whole-block runs (one run when p == 1); the others yield
  /// length-1 runs. Returns the element count (sum of lengths).
  template <typename Body>
  i64 for_each_run(Body&& body) const {
    if (empty_) return 0;
    const auto unit = [&](i64 g, i64 la) { body(g, la, i64{1}); };
    if (cls_ == AccessClass::kFixedStep) return step_ascending(unit);
    if (cls_ == AccessClass::kPeriodic) return walk_ascending(unit);
    const i64 k = dist_.block_size();
    const i64 row_skip = dist_.row_length() - k;
    i64 g = af_global_;
    i64 la = af_local_;
    i64 count = 0;
    while (g <= asc_hi_) {
      const i64 block_end = row_skip == 0 ? asc_hi_ : g + (k - 1 - dist_.block_offset(g));
      const i64 run_end = block_end < asc_hi_ ? block_end : asc_hi_;
      const i64 len = run_end - g + 1;
      body(g, la, len);
      count += len;
      la += len;
      g = run_end + 1 + row_skip;
    }
    return count;
  }

  /// Materialize the classic AccessPattern (start + cyclic AM gap table)
  /// for this plan, from the signed Figure-5 construction.
  [[nodiscard]] AccessPattern make_pattern() const;

  /// The Figure 8(d) offset-indexed tables (delta / next offset for every
  /// block offset), derived from the plan's period and phased to its
  /// ascending start. Built on demand for the node-code shapes. Requires a
  /// nonempty plan.
  [[nodiscard]] OffsetTables offset_tables() const;

 private:
  friend class AddressEngine;

  /// Ascending fixed-step walk over [af_global_, asc_hi_].
  template <typename Body>
  i64 step_ascending(Body&& body) const {
    const i64 dg = tables_->step_global;
    const i64 dl = tables_->step_local;
    i64 count = 0;
    for (i64 g = af_global_, la = af_local_; g <= asc_hi_; g += dg, la += dl, ++count)
      body(g, la);
    return count;
  }

  /// Ascending periodic walk over [af_global_, asc_hi_]: the period window
  /// of the start offset, advanced a period at a time.
  template <typename Body>
  i64 walk_ascending(Body&& body) const {
    const EngineTables& t = *tables_;
    const auto q = static_cast<std::size_t>(dist_.block_offset(af_global_));
    const i64 len = t.period[q];
    const i64* lo = t.local_off.data() + t.slot[q];
    const i64* go = t.global_off.data() + t.slot[q];
    const i64 dl = lo[len] - lo[0];
    const i64 dg = go[len] - go[0];
    i64 count = 0;
    for (i64 lb = af_local_ - lo[0], gb = af_global_ - go[0];; lb += dl, gb += dg) {
      for (i64 r = 0; r < len; ++r) {
        const i64 g = gb + go[r];
        if (g > asc_hi_) return count;
        body(g, lb + lo[r]);
        ++count;
      }
    }
  }

  /// Descending periodic walk from al_global_ down to asc_lo_: Theorem 3 run
  /// backwards, stepping back from the end of the start offset's window.
  template <typename Body>
  i64 walk_descending(Body&& body) const {
    const EngineTables& t = *tables_;
    const auto q = static_cast<std::size_t>(dist_.block_offset(al_global_));
    const i64 len = t.period[q];
    const i64* lo = t.local_off.data() + t.slot[q] + len;
    const i64* go = t.global_off.data() + t.slot[q] + len;
    const i64 dl = lo[0] - lo[-len];
    const i64 dg = go[0] - go[-len];
    i64 count = 0;
    for (i64 lb = al_local_ - lo[0], gb = al_global_ - go[0];; lb -= dl, gb -= dg) {
      for (i64 r = 0; r > -len; --r) {
        const i64 g = gb + go[r];
        if (g < asc_lo_) return count;
        body(g, lb + lo[r]);
        ++count;
      }
    }
  }

  BlockCyclic dist_{1, 1};
  i64 proc_ = 0;
  i64 stride_ = 1;               ///< original signed stride
  i64 asc_lo_ = 0, asc_hi_ = -1; ///< tightened ascending bounds
  AccessClass cls_ = AccessClass::kPeriodic;
  std::shared_ptr<const EngineTables> tables_;
  bool empty_ = true;
  i64 af_global_ = 0, af_local_ = 0;  ///< ascending-first owned access
  i64 al_global_ = 0, al_local_ = 0;  ///< ascending-last owned access
};

/// The dispatch facade. Stateless except for the (p, k, |s|)-keyed LRU
/// table cache; thread-safe. Most callers use the process-wide global().
class AddressEngine {
 public:
  using CacheStats = LruStats;

  explicit AddressEngine(std::size_t table_capacity = 256);

  /// The access class of (dist, signed stride) — the one place the class
  /// is decided; no tables touched.
  [[nodiscard]] static AccessClass classify(const BlockCyclic& dist, i64 stride) noexcept;

  /// Plan a bounded (possibly descending, possibly empty) section on one
  /// processor. Counts the plan's class in the obs registry.
  [[nodiscard]] SectionPlan plan(const BlockCyclic& dist, const RegularSection& sec,
                                 i64 proc) const;

  /// The shared tables for (dist, |stride|), from the cache.
  [[nodiscard]] std::shared_ptr<const EngineTables> tables(const BlockCyclic& dist,
                                                           i64 stride) const;

  [[nodiscard]] CacheStats cache_stats() const;
  /// Drop every cached table and zero the counters.
  void clear_cache() const;
  [[nodiscard]] std::size_t cache_capacity() const noexcept { return cache_.capacity(); }

  /// The process-wide engine every runtime layer dispatches through.
  static AddressEngine& global();

 private:
  struct TableKey {
    i64 procs;
    i64 block;
    i64 stride;  ///< magnitude
    friend bool operator==(const TableKey&, const TableKey&) = default;
  };
  struct TableKeyHash {
    std::size_t operator()(const TableKey& k) const noexcept {
      // FNV-1a over the key's fields (same scheme as PlanKeyHash).
      u64 h = 1469598103934665603ULL;
      for (const i64 v : {k.procs, k.block, k.stride}) {
        h ^= static_cast<u64>(v);
        h *= 1099511628211ULL;
      }
      return static_cast<std::size_t>(h);
    }
  };
  mutable LruCache<TableKey, std::shared_ptr<const EngineTables>, TableKeyHash> cache_;
};

}  // namespace cyclick
