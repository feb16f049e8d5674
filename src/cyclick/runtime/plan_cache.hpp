// Keyed cache of compressed communication plans.
//
// A plan for dst(dsec) = src(ssec) depends only on the two mappings
// (distribution + alignment + array extent), the two sections, and the
// rank count — not on the array contents or element type (plans hold
// element-granular addresses). Iterative solvers therefore hit the same
// key every sweep; caching turns the per-sweep O(|section|) plan build
// into a hash lookup. copy_section consults the process-wide cache, so
// cshift / eoshift / DSL statement loops replay plans automatically.
//
// Sharing caveat: cached plans are immutable except for their scratch
// arena, which one execution at a time may use (see comm_plan.hpp).
#pragma once

#include <memory>
#include <utility>

#include "cyclick/obs/metrics.hpp"
#include "cyclick/runtime/redistribute.hpp"
#include "cyclick/support/lru_cache.hpp"

namespace cyclick {

/// Everything a copy plan's shape depends on.
struct PlanKey {
  i64 ranks;
  i64 src_procs, src_block, src_align_a, src_align_b, src_size;
  i64 dst_procs, dst_block, dst_align_a, dst_align_b, dst_size;
  i64 ssec_lower, ssec_upper, ssec_stride;
  i64 dsec_lower, dsec_upper, dsec_stride;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept {
    // FNV-1a over the key's fields.
    u64 h = 1469598103934665603ULL;
    const auto mix = [&h](i64 v) {
      h ^= static_cast<u64>(v);
      h *= 1099511628211ULL;
    };
    mix(k.ranks);
    mix(k.src_procs); mix(k.src_block); mix(k.src_align_a); mix(k.src_align_b);
    mix(k.src_size);
    mix(k.dst_procs); mix(k.dst_block); mix(k.dst_align_a); mix(k.dst_align_b);
    mix(k.dst_size);
    mix(k.ssec_lower); mix(k.ssec_upper); mix(k.ssec_stride);
    mix(k.dsec_lower); mix(k.dsec_upper); mix(k.dsec_stride);
    return static_cast<std::size_t>(h);
  }
};

template <typename T>
PlanKey make_plan_key(const DistributedArray<T>& src, const RegularSection& ssec,
                      const DistributedArray<T>& dst, const RegularSection& dsec,
                      const SpmdExecutor& exec) {
  return PlanKey{exec.ranks(),
                 src.dist().procs(), src.dist().block_size(),
                 src.alignment().a, src.alignment().b, src.size(),
                 dst.dist().procs(), dst.dist().block_size(),
                 dst.alignment().a, dst.alignment().b, dst.size(),
                 ssec.lower, ssec.upper, ssec.stride,
                 dsec.lower, dsec.upper, dsec.stride};
}

/// Bounded LRU cache PlanKey -> shared immutable CommPlan, with hit / miss /
/// eviction counters for the bench harness. Thread-safe; evicted plans stay
/// alive for as long as callers hold their shared_ptr.
class PlanCache {
 public:
  using Stats = LruStats;

  explicit PlanCache(std::size_t capacity = 128) : cache_(capacity) {
    CYCLICK_REQUIRE(capacity >= 1, "plan cache needs capacity >= 1");
  }

  /// Look up a plan; counts a hit (and refreshes recency) or a miss.
  /// Instance counters feed stats(); the process-wide telemetry registry
  /// sees the same increments so `--metrics` aggregates across caches.
  [[nodiscard]] std::shared_ptr<const CommPlan> find(const PlanKey& key) {
    auto hit = cache_.find(key);
    if (!hit) {
      CYCLICK_COUNT("plancache.misses", 0, 1);
      return nullptr;
    }
    CYCLICK_COUNT("plancache.hits", 0, 1);
    return std::move(*hit);
  }

  /// Insert a plan, evicting the least recently used entry when over
  /// capacity. Keep-existing: a plan already cached under `key` stays
  /// canonical, so racing builders converge on one object.
  void insert(const PlanKey& key, std::shared_ptr<const CommPlan> plan) {
    bool evicted = false;
    cache_.insert(key, std::move(plan), &evicted);
    if (evicted) CYCLICK_COUNT("plancache.evictions", 0, 1);
  }

  [[nodiscard]] Stats stats() const { return cache_.stats(); }

  /// Drop every plan and zero the counters.
  void clear() { cache_.clear(); }

  [[nodiscard]] std::size_t capacity() const noexcept { return cache_.capacity(); }

  /// The process-wide cache copy_section consults.
  static PlanCache& global() {
    static PlanCache cache;
    return cache;
  }

 private:
  LruCache<PlanKey, std::shared_ptr<const CommPlan>, PlanKeyHash> cache_;
};

/// Key for N-D region plans: arbitrary arity means a flat i64 vector
/// (ranks, spread flag, then per-dimension mapping + grid + section
/// fields) instead of a fixed struct. Built by make_region_plan_key.
using RegionPlanKey = std::vector<i64>;

struct RegionPlanKeyHash {
  std::size_t operator()(const RegionPlanKey& key) const noexcept {
    // FNV-1a over the flattened fields (length included via the seed walk).
    u64 h = 1469598103934665603ULL;
    for (const i64 v : key) {
      h ^= static_cast<u64>(v);
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Bounded LRU cache RegionPlanKey -> shared immutable RedistributionPlan,
/// the N-D sibling of PlanCache: iterative stencils (heat2d's four halo
/// copies per sweep) hit the same keys every iteration. Thread-safe; the
/// same scratch-arena sharing caveat as PlanCache applies.
class RegionPlanCache {
 public:
  using Stats = LruStats;

  explicit RegionPlanCache(std::size_t capacity = 128) : cache_(capacity) {
    CYCLICK_REQUIRE(capacity >= 1, "plan cache needs capacity >= 1");
  }

  [[nodiscard]] std::shared_ptr<const RedistributionPlan> find(const RegionPlanKey& key) {
    auto hit = cache_.find(key);
    if (!hit) {
      CYCLICK_COUNT("regioncache.misses", 0, 1);
      return nullptr;
    }
    CYCLICK_COUNT("regioncache.hits", 0, 1);
    return std::move(*hit);
  }

  void insert(const RegionPlanKey& key, std::shared_ptr<const RedistributionPlan> plan) {
    bool evicted = false;
    cache_.insert(key, std::move(plan), &evicted);
    if (evicted) CYCLICK_COUNT("regioncache.evictions", 0, 1);
  }

  [[nodiscard]] Stats stats() const { return cache_.stats(); }

  /// Drop every plan and zero the counters.
  void clear() { cache_.clear(); }

  /// The process-wide cache N-D copy_region / spread_region consult.
  static RegionPlanCache& global() {
    static RegionPlanCache cache;
    return cache;
  }

 private:
  LruCache<RegionPlanKey, std::shared_ptr<const RedistributionPlan>, RegionPlanKeyHash> cache_;
};

/// Cache-aware plan lookup: returns the shared plan for dst(dsec) =
/// src(ssec), building (and inserting) it on a miss.
template <typename T>
std::shared_ptr<const CommPlan> cached_copy_plan(const DistributedArray<T>& src,
                                                 const RegularSection& ssec,
                                                 DistributedArray<T>& dst,
                                                 const RegularSection& dsec,
                                                 const SpmdExecutor& exec,
                                                 PlanCache& cache = PlanCache::global()) {
  const PlanKey key = make_plan_key(src, ssec, dst, dsec, exec);
  if (auto hit = cache.find(key)) return hit;
  auto plan = std::make_shared<const CommPlan>(build_copy_plan(src, ssec, dst, dsec, exec));
  // Keep-existing insert: if another thread raced this build and cached its
  // plan first, ours is dropped. Safe because PlanKey fully determines the
  // plan's content — returning either copy is equivalent; inserting here is
  // never a refresh. See LruCache::insert for the contract.
  cache.insert(key, plan);
  return plan;
}

namespace detail {

/// Everything an N-D region plan's shape depends on, flattened: rank
/// count, spread flag, arity, then per dimension the source and
/// destination mapping fields (extent, alignment, distribution; the grid
/// axis extent is the distribution's processor count) and both sections.
template <typename T>
RegionPlanKey make_region_plan_key(const DistributedArray<T>& src, const Region& sregion,
                                   const DistributedArray<T>& dst, const Region& dregion,
                                   const SpmdExecutor& exec, bool spread) {
  RegionPlanKey key;
  key.reserve(3 + sregion.size() * 16);
  key.push_back(exec.ranks());
  key.push_back(spread ? 1 : 0);
  key.push_back(static_cast<i64>(sregion.size()));
  const auto mix_dim = [&key](const DimMapping& dm, const RegularSection& sec) {
    key.push_back(dm.extent);
    key.push_back(dm.align.a);
    key.push_back(dm.align.b);
    key.push_back(dm.dist.procs());
    key.push_back(dm.dist.block_size());
    key.push_back(sec.lower);
    key.push_back(sec.upper);
    key.push_back(sec.stride);
  };
  for (std::size_t d = 0; d < sregion.size(); ++d) {
    mix_dim(src.mapping().dim(d), sregion[d]);
    mix_dim(dst.mapping().dim(d), dregion[d]);
  }
  return key;
}

}  // namespace detail

/// Cache-aware region plan lookup (process-wide RegionPlanCache).
template <typename T>
std::shared_ptr<const RedistributionPlan> cached_region_plan(
    const DistributedArray<T>& src, const Region& sregion, const DistributedArray<T>& dst,
    const Region& dregion, const SpmdExecutor& exec, bool spread = false,
    RegionPlanCache& cache = RegionPlanCache::global()) {
  const RegionPlanKey key =
      detail::make_region_plan_key(src, sregion, dst, dregion, exec, spread);
  if (auto hit = cache.find(key)) return hit;
  auto plan = std::make_shared<const RedistributionPlan>(
      build_region_plan(src, sregion, dst, dregion, exec, spread));
  // Keep-existing insert, as in cached_copy_plan: the key fully determines
  // the plan's content, so returning either racing copy is equivalent.
  cache.insert(key, plan);
  return plan;
}

}  // namespace cyclick
