#include "cyclick/core/engine.hpp"

#include "cyclick/obs/metrics.hpp"
#include "cyclick/support/math.hpp"

namespace cyclick {

const char* address_strategy_name(AddressStrategy s) noexcept {
  switch (s) {
    case AddressStrategy::kTrivialLocal: return "trivial-local";
    case AddressStrategy::kDenseRuns: return "dense-runs";
    case AddressStrategy::kPureCyclic: return "pure-cyclic";
    case AddressStrategy::kFixedStep: return "fixed-step";
    case AddressStrategy::kHiranandani: return "hiranandani";
    case AddressStrategy::kGeneralLattice: return "general-lattice";
  }
  return "unknown";
}

namespace {

// One obs counter per strategy class. CYCLICK_COUNT caches its registry
// lookup in a function-local static per call site, so each class needs its
// own textual call — hence the switch rather than a name-composing helper.
void count_strategy(AddressStrategy s, i64 proc) {
  switch (s) {
    case AddressStrategy::kTrivialLocal:
      CYCLICK_COUNT("engine.strategy.trivial_local", proc, 1);
      break;
    case AddressStrategy::kDenseRuns:
      CYCLICK_COUNT("engine.strategy.dense_runs", proc, 1);
      break;
    case AddressStrategy::kPureCyclic:
      CYCLICK_COUNT("engine.strategy.pure_cyclic", proc, 1);
      break;
    case AddressStrategy::kFixedStep:
      CYCLICK_COUNT("engine.strategy.fixed_step", proc, 1);
      break;
    case AddressStrategy::kHiranandani:
      CYCLICK_COUNT("engine.strategy.hiranandani", proc, 1);
      break;
    case AddressStrategy::kGeneralLattice:
      CYCLICK_COUNT("engine.strategy.general_lattice", proc, 1);
      break;
  }
}

// Proc-independent table construction for one (p, k, |s|) problem: the
// full Section-6.2 offset tables plus the matching global-index gaps and
// the inverted offset map for descending walks.
std::shared_ptr<const EngineTables> build_tables(const BlockCyclic& dist, i64 mag) {
  auto t = std::make_shared<EngineTables>();
  const i64 k = dist.block_size();
  const i64 pk = dist.row_length();
  t->procs = dist.procs();
  t->block = k;
  t->stride = mag;
  t->strategy = AddressEngine::classify(dist, mag);
  t->offsets = compute_full_offset_tables(dist, mag);
  t->dglobal.assign(static_cast<std::size_t>(k), 0);
  t->prev_offset.assign(static_cast<std::size_t>(k), -1);

  const i64 d = gcd_i64(mag, pk);
  if (d >= k) {
    // Degenerate lattice: every populated offset repeats in place with a
    // fixed global step of lcm(|s|, pk) and local step of (|s|/d)*k.
    t->degenerate = true;
    t->fixed_dglobal = (pk / d) * mag;
    t->fixed_dlocal = k * (mag / d);
    for (i64 q = 0; q < k; ++q) {
      t->dglobal[static_cast<std::size_t>(q)] = t->fixed_dglobal;
      t->prev_offset[static_cast<std::size_t>(q)] = q;  // next is the identity
    }
    return t;
  }

  const auto basis = select_rl_basis(dist.procs(), k, mag);
  CYCLICK_ASSERT(basis.has_value());  // d < k guarantees the basis exists
  const i64 br = basis->r.v.b;
  const i64 bl = basis->l.v.b;
  const i64 vr = basis->r.index * mag;
  const i64 vl = -basis->l.index * mag;  // l.index < 0, so this is positive
  for (i64 q = 0; q < k; ++q) {
    i64 dg;
    if (q + br < k) {
      dg = vr;            // Equation 1
    } else if (q - bl >= 0) {
      dg = vl;            // Equation 2
    } else {
      dg = vl + vr;       // Equation 3
    }
    t->dglobal[static_cast<std::size_t>(q)] = dg;
  }
  // next_offset is a bijection on [0, k) (each residue class mod d is
  // cyclically permuted), so inverting it slot by slot cannot clobber.
  for (i64 q = 0; q < k; ++q) {
    const i64 nq = t->offsets.next_offset[static_cast<std::size_t>(q)];
    t->prev_offset[static_cast<std::size_t>(nq)] = q;
  }
  return t;
}

}  // namespace

AccessPattern SectionPlan::make_pattern() const {
  // The section's original lower bound is asc_lo_ for ascending traversals
  // and asc_hi_ for descending ones (ascending() swaps the endpoints).
  const i64 anchor = stride_ < 0 ? asc_hi_ : asc_lo_;
  return AddressEngine::global().pattern(dist_, anchor, stride_, proc_);
}

OffsetTables SectionPlan::offset_tables() const {
  CYCLICK_REQUIRE(!empty_, "offset tables need a nonempty plan");
  OffsetTables t = tables_->offsets;
  // Phase the proc-independent tables at this plan's ascending start (the
  // Figure 8(d) node code walks local addresses upward).
  t.start_offset = dist_.block_offset(af_global_);
  return t;
}

AddressEngine::AddressEngine(std::size_t table_capacity) : cache_(table_capacity) {}

AddressStrategy AddressEngine::classify(const BlockCyclic& dist, i64 stride) noexcept {
  const i64 mag = stride > 0 ? stride : -stride;
  if (dist.procs() == 1) return AddressStrategy::kTrivialLocal;
  if (mag == 1) return AddressStrategy::kDenseRuns;
  if (dist.block_size() == 1) return AddressStrategy::kPureCyclic;
  if (gcd_i64(mag, dist.row_length()) >= dist.block_size()) return AddressStrategy::kFixedStep;
  if (floor_mod(mag, dist.row_length()) < dist.block_size()) return AddressStrategy::kHiranandani;
  return AddressStrategy::kGeneralLattice;
}

std::shared_ptr<const EngineTables> AddressEngine::tables(const BlockCyclic& dist,
                                                          i64 stride) const {
  CYCLICK_REQUIRE(stride != 0, "engine tables require a nonzero stride");
  const i64 mag = stride > 0 ? stride : -stride;
  const TableKey key{dist.procs(), dist.block_size(), mag};
  if (auto hit = cache_.find(key)) {
    CYCLICK_COUNT("engine.tables.hits", 0, 1);
    return std::move(*hit);
  }
  CYCLICK_COUNT("engine.tables.misses", 0, 1);
  auto built = build_tables(dist, mag);
  // Keep-existing insert: a racing builder of the same key converges on one
  // canonical table object (SectionPlan identity tests rely on this).
  bool evicted = false;
  auto canonical = cache_.insert(key, std::move(built), &evicted);
  if (evicted) CYCLICK_COUNT("engine.tables.evictions", 0, 1);
  return canonical;
}

SectionPlan AddressEngine::plan(const BlockCyclic& dist, const RegularSection& sec,
                                i64 proc) const {
  CYCLICK_REQUIRE(proc >= 0 && proc < dist.procs(), "processor id out of range");
  SectionPlan pl;
  pl.dist_ = dist;
  pl.proc_ = proc;
  pl.stride_ = sec.stride;
  pl.strategy_ = classify(dist, sec.stride);
  count_strategy(pl.strategy_, proc);
  CYCLICK_COUNT("engine.plans", proc, 1);
  if (sec.empty()) return pl;

  const RegularSection asc = sec.ascending();
  pl.asc_lo_ = asc.lower;
  pl.asc_hi_ = asc.upper;
  pl.tables_ = tables(dist, asc.stride);

  const i64 k = dist.block_size();
  const i64 pk = dist.row_length();
  switch (pl.strategy_) {
    case AddressStrategy::kTrivialLocal:
      // One processor owns everything and packing is the identity, so the
      // endpoints are the section's own (local == global, even below zero).
      pl.af_global_ = pl.af_local_ = asc.lower;
      pl.al_global_ = pl.al_local_ = asc.upper;
      pl.empty_ = false;
      return pl;
    case AddressStrategy::kDenseRuns: {
      // |s| == 1: first owned element at or above asc.lower and last owned
      // element at or below asc.upper, in O(1) block arithmetic.
      const i64 blk_lo = k * proc;
      const i64 lo_off = floor_mod(asc.lower, pk);
      i64 first = asc.lower;
      if (lo_off < blk_lo) {
        first += blk_lo - lo_off;
      } else if (lo_off >= blk_lo + k) {
        first += (pk - lo_off) + blk_lo;
      }
      const i64 hi_off = floor_mod(asc.upper, pk);
      i64 last = asc.upper;
      if (hi_off >= blk_lo + k) {
        last -= hi_off - (blk_lo + k - 1);
      } else if (hi_off < blk_lo) {
        last -= hi_off + pk - (blk_lo + k - 1);
      }
      if (first > last) return pl;  // the section misses this block row
      pl.af_global_ = first;
      pl.af_local_ = dist.local_index(first);
      pl.al_global_ = last;
      pl.al_local_ = dist.local_index(last);
      pl.empty_ = false;
      return pl;
    }
    default: {
      const auto si = find_start(dist, asc.lower, asc.stride, proc);
      if (!si || si->start_global > asc.upper) return pl;
      const auto last = find_last(dist, asc, proc);
      CYCLICK_ASSERT(last.has_value());  // a start inside bounds implies a last
      pl.af_global_ = si->start_global;
      pl.af_local_ = dist.local_index(si->start_global);
      pl.al_global_ = *last;
      pl.al_local_ = dist.local_index(*last);
      pl.empty_ = false;
      return pl;
    }
  }
}

AccessPattern AddressEngine::pattern(const BlockCyclic& dist, i64 lower, i64 stride,
                                     i64 proc) const {
  return compute_access_pattern_signed(dist, lower, stride, proc);
}

LocalAccessIterator AddressEngine::stream(const BlockCyclic& dist, i64 lower, i64 stride,
                                          i64 proc) const {
  return LocalAccessIterator(dist, lower, stride, proc);
}

AddressEngine::CacheStats AddressEngine::cache_stats() const { return cache_.stats(); }

void AddressEngine::clear_cache() const { cache_.clear(); }

AddressEngine& AddressEngine::global() {
  static AddressEngine engine;
  return engine;
}

}  // namespace cyclick
