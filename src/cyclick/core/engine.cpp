#include "cyclick/core/engine.hpp"

#include <algorithm>

#include "cyclick/obs/metrics.hpp"
#include "cyclick/support/math.hpp"

namespace cyclick {

const char* access_class_name(AccessClass c) noexcept {
  switch (c) {
    case AccessClass::kRuns: return "runs";
    case AccessClass::kFixedStep: return "fixed-step";
    case AccessClass::kPeriodic: return "periodic";
  }
  return "unknown";
}

namespace {

// One obs counter per class. CYCLICK_COUNT caches its registry lookup in a
// function-local static per call site, so each class needs its own textual
// call — hence the switch rather than a name-composing helper.
void count_class(AccessClass c, i64 proc) {
  switch (c) {
    case AccessClass::kRuns:
      CYCLICK_COUNT("engine.class.runs", proc, 1);
      break;
    case AccessClass::kFixedStep:
      CYCLICK_COUNT("engine.class.fixed_step", proc, 1);
      break;
    case AccessClass::kPeriodic:
      CYCLICK_COUNT("engine.class.periodic", proc, 1);
      break;
  }
}

// Proc-independent table construction for one (p, k, |s|) problem. The
// periodic class walks each cycle of Theorem 3's offset permutation once,
// straight from the R/L basis, then appends its copy one period on.
std::shared_ptr<const EngineTables> build_tables(const BlockCyclic& dist, i64 mag) {
  auto t = std::make_shared<EngineTables>();
  const i64 k = dist.block_size();
  const i64 pk = dist.row_length();
  t->cls = AddressEngine::classify(dist, mag);
  if (t->cls == AccessClass::kRuns) return t;
  if (t->cls == AccessClass::kFixedStep) {
    if (dist.procs() == 1) {
      // One processor: the packed local address is the global index.
      t->step_global = t->step_local = mag;
    } else {
      // Degenerate lattice: every populated offset repeats in place with a
      // global step of lcm(|s|, pk) and a local step of (|s|/d)*k.
      const i64 d = gcd_i64(mag, pk);
      t->step_global = (pk / d) * mag;
      t->step_local = k * (mag / d);
    }
    return t;
  }

  const auto basis = select_rl_basis(dist.procs(), k, mag);
  CYCLICK_ASSERT(basis.has_value());  // d < k guarantees the basis exists
  const i64 br = basis->r.v.b;
  const i64 bl = basis->l.v.b;
  const i64 lr = basis->gap_r(k);
  const i64 ll = basis->gap_minus_l(k);
  const i64 gr = basis->r.index * mag;
  const i64 gl = -basis->l.index * mag;  // l.index < 0, so this is positive
  const i64 d = basis->d;
  // next(q) is a bijection on [0, k) whose cycles are the residue classes
  // mod d, so cycle q0 (q0 < d) holds q0, q0 + d, ... below k.
  const auto uk = static_cast<std::size_t>(k);
  t->slot.resize(uk);
  t->period.resize(uk);
  t->local_off.resize(2 * uk);
  t->global_off.resize(2 * uk);
  std::size_t at = 0;
  for (i64 q0 = 0; q0 < d; ++q0) {
    const i64 len = (k - 1 - q0) / d + 1;
    for (i64 q = q0; q < k; q += d) t->period[static_cast<std::size_t>(q)] = len;
    const std::size_t begin = at;
    std::size_t copy = begin + static_cast<std::size_t>(len);
    i64 q = q0;
    i64 lo = 0;
    i64 go = 0;
    // Shift the cycle's local offsets so the offset at block offset q is at
    // most q. A kernel's replay base (a first local address, row * k + q,
    // minus its window's first offset) then never lies below the buffer.
    i64 shift = -q0;
    for (i64 i = 0; i < len; ++i, ++at) {
      t->slot[static_cast<std::size_t>(q)] = static_cast<i64>(at);
      t->local_off[at] = lo;
      t->global_off[at] = go;
      shift = std::max(shift, lo - q);
      // Theorem 3: step by R (Equation 1) while q + br stays in the block,
      // else by -L (Equation 2), corrected to R - L (Equation 3) when -L
      // leaves it. Written as selects: the cycle order defeats prediction.
      const bool r = q + br < k;
      const bool rl = !r && q < bl;
      q += r ? br : (rl ? br - bl : -bl);
      lo += r ? lr : (rl ? lr + ll : ll);
      go += r ? gr : (rl ? gr + gl : gl);
    }
    for (std::size_t r = begin; r < at; ++r, ++copy) {
      t->local_off[r] -= shift;
      t->local_off[copy] = t->local_off[r] + lo;
      t->global_off[copy] = t->global_off[r] + go;
    }
    at = copy;
  }
  return t;
}

}  // namespace

AccessPattern SectionPlan::make_pattern() const {
  // The section's original lower bound is asc_lo_ for ascending traversals
  // and asc_hi_ for descending ones (ascending() swaps the endpoints).
  const i64 anchor = stride_ < 0 ? asc_hi_ : asc_lo_;
  return compute_access_pattern_signed(dist_, anchor, stride_, proc_);
}

OffsetTables SectionPlan::offset_tables() const {
  CYCLICK_REQUIRE(!empty_, "offset tables need a nonempty plan");
  const i64 k = dist_.block_size();
  const EngineTables& t = *tables_;
  OffsetTables out;
  // Phased at the ascending start: the Figure 8(d) node code walks local
  // addresses upward.
  out.start_offset = dist_.block_offset(af_global_);
  out.delta.resize(static_cast<std::size_t>(k));
  out.next_offset.resize(static_cast<std::size_t>(k));
  for (i64 q = 0; q < k; ++q) {
    const auto uq = static_cast<std::size_t>(q);
    i64 gap = 1;  // runs: one cell to the next (across the block edge too)
    if (cls_ == AccessClass::kFixedStep) {
      gap = t.step_local;
    } else if (cls_ == AccessClass::kPeriodic) {
      const auto j = static_cast<std::size_t>(t.slot[uq]);
      gap = t.local_off[j + 1] - t.local_off[j];
    }
    out.delta[uq] = gap;
    out.next_offset[uq] = floor_mod(q + gap, k);
  }
  return out;
}

AddressEngine::AddressEngine(std::size_t table_capacity) : cache_(table_capacity) {}

AccessClass AddressEngine::classify(const BlockCyclic& dist, i64 stride) noexcept {
  const i64 mag = stride > 0 ? stride : -stride;
  if (mag == 1) return AccessClass::kRuns;
  if (dist.procs() == 1 || gcd_i64(mag, dist.row_length()) >= dist.block_size())
    return AccessClass::kFixedStep;
  return AccessClass::kPeriodic;
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
  pl.cls_ = classify(dist, sec.stride);
  count_class(pl.cls_, proc);
  CYCLICK_COUNT("engine.plans", proc, 1);
  if (sec.empty()) return pl;

  const RegularSection asc = sec.ascending();
  pl.asc_lo_ = asc.lower;
  pl.asc_hi_ = asc.upper;
  pl.tables_ = tables(dist, asc.stride);

  const i64 k = dist.block_size();
  const i64 pk = dist.row_length();
  if (dist.procs() == 1) {
    // One processor owns everything and packing is the identity, so the
    // endpoints are the section's own (local == global, even below zero).
    pl.af_global_ = pl.af_local_ = asc.lower;
    pl.al_global_ = pl.al_local_ = asc.upper;
    pl.empty_ = false;
    return pl;
  }
  if (pl.cls_ == AccessClass::kRuns) {
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

AddressEngine::CacheStats AddressEngine::cache_stats() const { return cache_.stats(); }

void AddressEngine::clear_cache() const { cache_.clear(); }

AddressEngine& AddressEngine::global() {
  static AddressEngine engine;
  return engine;
}

}  // namespace cyclick
