// Unified address-dispatch layer: one facade that classifies every
// (BlockCyclic, section, processor) access problem and hands back the
// cheapest enumerator for it.
//
// The paper's Section 6.2 observes that the delta/next tables of Theorem 3
// depend only on (p, k, s) — not on the processor number or the section's
// lower bound — so one table pair serves every rank and every phase of an
// SPMD loop. AddressEngine exploits that twice over: it keeps a keyed LRU
// cache of compute_full_offset_tables results (p ranks asking for the same
// section pay one table construction), and it classifies each problem into
// the cheapest of six strategies before any table is even consulted:
//
//   condition            class             enumerator
//   p == 1               trivial-local     local == global, closed loop
//   |s| == 1             dense-runs        (start, len) block runs
//   k == 1               pure-cyclic       fixed global/local step
//   gcd(|s|, pk) >= k    fixed-step        fixed global/local step
//   |s| mod pk < k       hiranandani       nav tables (the ICS'94 case)
//   otherwise            general-lattice   nav tables (Figure 5 / Theorem 3)
//
// Consumers receive a SectionPlan: the chosen strategy plus a uniform
// for_each / for_each_run API, so runtime layers branch on the
// classification (memcpy/std::fill on dense runs) without re-deriving it.
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "cyclick/core/access_pattern.hpp"
#include "cyclick/core/iterator.hpp"
#include "cyclick/core/lattice_addresser.hpp"
#include "cyclick/hpf/distribution.hpp"
#include "cyclick/hpf/section.hpp"
#include "cyclick/support/lru_cache.hpp"

namespace cyclick {

/// The six access-structure classes, in classification priority order.
enum class AddressStrategy {
  kTrivialLocal,    ///< p == 1: every global index is its own local address
  kDenseRuns,       ///< |s| == 1: owned elements form k-wide contiguous runs
  kPureCyclic,      ///< k == 1: one offset per row, fixed step
  kFixedStep,       ///< gcd(|s|, pk) >= k: at most one offset per block
  kHiranandani,     ///< |s| mod pk < k: nav tables (the ICS'94 case)
  kGeneralLattice,  ///< the general Figure-5 lattice path
};

[[nodiscard]] const char* address_strategy_name(AddressStrategy s) noexcept;

struct PeriodicPattern;  // kernels.hpp: the compiled per-period offset vector

/// Processor- and phase-independent navigation state for one (p, k, |s|)
/// problem: the full offset tables of Section 6.2 plus the matching
/// global-index gaps, the inverse offset map for descending traversals, and
/// the closed-form step of the degenerate cases. Built once, shared via the
/// engine's table cache.
struct EngineTables {
  i64 procs = 1;
  i64 block = 1;
  i64 stride = 1;  ///< stride magnitude |s| the tables were built for
  AddressStrategy strategy = AddressStrategy::kGeneralLattice;
  OffsetTables offsets;          ///< full delta/next tables (start_offset -1)
  std::vector<i64> dglobal;      ///< k entries: global-index gap leaving offset q
  std::vector<i64> prev_offset;  ///< k entries: inverse of offsets.next_offset
  bool degenerate = false;       ///< gcd(|s|, pk) >= k (includes k == 1)
  i64 fixed_dglobal = 0;         ///< degenerate global step, lcm(|s|, pk)
  i64 fixed_dlocal = 0;          ///< degenerate local step, k * (|s|/d)
  /// Kernel-layer cache: one compiled PeriodicPattern per start offset q0
  /// (kernels.hpp). Lazily sized to `block`; guarded by kernel_mu because
  /// plans sharing the tables compile kernels concurrently.
  mutable std::mutex kernel_mu;
  mutable std::vector<std::shared_ptr<const PeriodicPattern>> kernel_patterns;
};

/// The engine's answer for one bounded section on one processor: the chosen
/// strategy, the shared navigation tables, and the traversal endpoints.
/// Enumeration respects the section's direction (descending for s < 0);
/// for_each_run always yields ascending runs.
class SectionPlan {
 public:
  SectionPlan() = default;

  [[nodiscard]] AddressStrategy strategy() const noexcept { return strategy_; }
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
  [[nodiscard]] bool contiguous() const noexcept {
    return !empty_ &&
           (strategy_ == AddressStrategy::kDenseRuns ||
            (strategy_ == AddressStrategy::kTrivialLocal && (stride_ == 1 || stride_ == -1)));
  }

  /// Visit every owned in-bounds element as (global index, local address),
  /// in traversal order. Returns the visit count.
  template <typename Body>
  i64 for_each(Body&& body) const {
    if (empty_) return 0;
    switch (strategy_) {
      case AddressStrategy::kTrivialLocal: {
        // p == 1: the packed local address equals the global index.
        const i64 step = stride_ > 0 ? stride_ : -stride_;
        i64 count = 0;
        if (stride_ > 0) {
          for (i64 g = af_global_; g <= asc_hi_; g += step, ++count) body(g, g);
        } else {
          for (i64 g = al_global_; g >= asc_lo_; g -= step, ++count) body(g, g);
        }
        return count;
      }
      case AddressStrategy::kDenseRuns: {
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
      default:
        return stride_ < 0 ? walk_descending(std::forward<Body>(body))
                           : walk_ascending(std::forward<Body>(body));
    }
  }

  /// Enumerate the owned elements as ascending runs (global start, local
  /// start, length) with both addresses contiguous within a run. Dense
  /// strategies yield whole-block runs; the others yield length-1 runs.
  /// Returns the element count (sum of lengths).
  template <typename Body>
  i64 for_each_run(Body&& body) const {
    if (empty_) return 0;
    switch (strategy_) {
      case AddressStrategy::kTrivialLocal: {
        if (stride_ == 1 || stride_ == -1) {
          const i64 len = asc_hi_ - asc_lo_ + 1;
          body(asc_lo_, asc_lo_, len);
          return len;
        }
        const i64 step = stride_ > 0 ? stride_ : -stride_;
        i64 count = 0;
        for (i64 g = af_global_; g <= asc_hi_; g += step, ++count) body(g, g, i64{1});
        return count;
      }
      case AddressStrategy::kDenseRuns: {
        const i64 k = dist_.block_size();
        const i64 row_skip = dist_.row_length() - k;
        i64 g = af_global_;
        i64 la = af_local_;
        i64 count = 0;
        while (g <= asc_hi_) {
          const i64 block_end = g + (k - 1 - dist_.block_offset(g));
          const i64 run_end = block_end < asc_hi_ ? block_end : asc_hi_;
          const i64 len = run_end - g + 1;
          body(g, la, len);
          count += len;
          la += len;
          g = run_end + 1 + row_skip;
        }
        return count;
      }
      default:
        return walk_ascending([&](i64 g, i64 la) { body(g, la, i64{1}); });
    }
  }

  /// Materialize the classic AccessPattern (start + cyclic AM gap table)
  /// for this plan, from the signed Figure-5 construction.
  [[nodiscard]] AccessPattern make_pattern() const;

  /// The full offset tables phased to this plan's start element, shaped for
  /// the Figure 8(d) offset-indexed node code. Requires a nonempty plan.
  [[nodiscard]] OffsetTables offset_tables() const;

 private:
  friend class AddressEngine;

  /// Ascending nav-table / fixed-step walk over [asc_lo_, asc_hi_].
  template <typename Body>
  i64 walk_ascending(Body&& body) const {
    i64 count = 0;
    if (tables_->degenerate) {
      const i64 dg = tables_->fixed_dglobal;
      const i64 dl = tables_->fixed_dlocal;
      for (i64 g = af_global_, la = af_local_; g <= asc_hi_; g += dg, la += dl, ++count)
        body(g, la);
      return count;
    }
    const i64* delta = tables_->offsets.delta.data();
    const i64* next = tables_->offsets.next_offset.data();
    const i64* dglobal = tables_->dglobal.data();
    i64 g = af_global_;
    i64 la = af_local_;
    auto q = static_cast<std::size_t>(dist_.block_offset(g));
    while (g <= asc_hi_) {
      body(g, la);
      ++count;
      g += dglobal[q];
      la += delta[q];
      q = static_cast<std::size_t>(next[q]);
    }
    return count;
  }

  /// Descending walk: inverts the offset map (Theorem 3 run backwards).
  template <typename Body>
  i64 walk_descending(Body&& body) const {
    i64 count = 0;
    if (tables_->degenerate) {
      const i64 dg = tables_->fixed_dglobal;
      const i64 dl = tables_->fixed_dlocal;
      for (i64 g = al_global_, la = al_local_; g >= asc_lo_; g -= dg, la -= dl, ++count)
        body(g, la);
      return count;
    }
    const i64* delta = tables_->offsets.delta.data();
    const i64* dglobal = tables_->dglobal.data();
    const i64* prev = tables_->prev_offset.data();
    i64 g = al_global_;
    i64 la = al_local_;
    auto q = static_cast<std::size_t>(dist_.block_offset(g));
    while (g >= asc_lo_) {
      body(g, la);
      ++count;
      q = static_cast<std::size_t>(prev[q]);
      g -= dglobal[q];
      la -= delta[q];
    }
    return count;
  }

  BlockCyclic dist_{1, 1};
  i64 proc_ = 0;
  i64 stride_ = 1;               ///< original signed stride
  i64 asc_lo_ = 0, asc_hi_ = -1; ///< tightened ascending bounds
  AddressStrategy strategy_ = AddressStrategy::kGeneralLattice;
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

  /// Strategy classification from the distribution and (signed) stride
  /// alone — no tables touched.
  [[nodiscard]] static AddressStrategy classify(const BlockCyclic& dist, i64 stride) noexcept;

  /// Plan a bounded (possibly descending, possibly empty) section on one
  /// processor. Counts the chosen strategy in the obs registry.
  [[nodiscard]] SectionPlan plan(const BlockCyclic& dist, const RegularSection& sec,
                                 i64 proc) const;

  /// The shared navigation tables for (dist, |stride|), from the cache.
  [[nodiscard]] std::shared_ptr<const EngineTables> tables(const BlockCyclic& dist,
                                                           i64 stride) const;

  /// Signed-stride AccessPattern for the unbounded progression
  /// lower, lower+stride, ...: the signed Figure-5 construction for every
  /// strategy. (The ICS'94 construction returns the same pattern and stays
  /// in baselines/ as a reference.)
  [[nodiscard]] AccessPattern pattern(const BlockCyclic& dist, i64 lower, i64 stride,
                                      i64 proc) const;

  /// Table-free streaming enumeration (signed): the R/L state machine of
  /// Section 6.2, descending for stride < 0.
  [[nodiscard]] LocalAccessIterator stream(const BlockCyclic& dist, i64 lower, i64 stride,
                                           i64 proc) const;

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
