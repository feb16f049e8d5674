#include "cyclick/core/kernels.hpp"

#include <cstddef>

#include "cyclick/obs/metrics.hpp"
#include "cyclick/obs/trace.hpp"

namespace cyclick {

const char* kernel_class_name(KernelClass c) noexcept {
  switch (c) {
    case KernelClass::kScalar: return "scalar";
    case KernelClass::kRunCopy: return "run-copy";
    case KernelClass::kStrided: return "strided";
    case KernelClass::kPeriodicGap: return "periodic-gap";
  }
  return "unknown";
}

namespace {

// One obs counter per kernel class (same textual-call-site discipline as
// the engine's strategy counters).
void count_kernel_class(KernelClass c, i64 proc) {
  switch (c) {
    case KernelClass::kScalar:
      CYCLICK_COUNT("kernel.hit.scalar", proc, 1);
      break;
    case KernelClass::kRunCopy:
      CYCLICK_COUNT("kernel.hit.run_copy", proc, 1);
      break;
    case KernelClass::kStrided:
      CYCLICK_COUNT("kernel.hit.strided", proc, 1);
      break;
    case KernelClass::kPeriodicGap:
      CYCLICK_COUNT("kernel.hit.periodic_gap", proc, 1);
      break;
  }
}

// Fetch (or build and cache) the compiled pattern for the nav-table cycle
// starting at offset q0. The cache lives on the EngineTables, so every
// rank/phase sharing the (p, k, |s|) tables shares at most k compiled
// patterns; next_offset is a permutation, so the cycle through q0 is
// well-defined and its local/global offsets ascend strictly.
std::shared_ptr<const PeriodicPattern> periodic_pattern_for(
    const std::shared_ptr<const EngineTables>& tp, i64 q0) {
  const EngineTables& t = *tp;
  std::scoped_lock lock(t.kernel_mu);
  if (t.kernel_patterns.empty())
    t.kernel_patterns.resize(static_cast<std::size_t>(t.block));
  auto& slot = t.kernel_patterns[static_cast<std::size_t>(q0)];
  if (slot) {
    CYCLICK_COUNT("kernel.pattern_cache.hits", 0, 1);
    return slot;
  }
  CYCLICK_SPAN("kernel_compile", 0);
  CYCLICK_COUNT("kernel.compiles", 0, 1);
  auto pat = std::make_shared<PeriodicPattern>();
  const i64* delta = t.offsets.delta.data();
  const i64* dglobal = t.dglobal.data();
  const i64* next = t.offsets.next_offset.data();
  i64 q = q0;
  i64 lo = 0;
  i64 go = 0;
  do {
    pat->local_off.push_back(lo);
    pat->global_off.push_back(go);
    lo += delta[q];
    go += dglobal[q];
    q = next[q];
  } while (q != q0);
  pat->period = static_cast<i64>(pat->local_off.size());
  pat->local_advance = lo;
  pat->global_advance = go;
  const i64 reps = std::max<i64>(1, kKernelTileTarget / pat->period);
  pat->tile_len = reps * pat->period;
  pat->tile_advance = reps * pat->local_advance;
  pat->tile_off.reserve(static_cast<std::size_t>(pat->tile_len));
  for (i64 r = 0; r < reps; ++r)
    for (i64 j = 0; j < pat->period; ++j)
      pat->tile_off.push_back(pat->local_off[static_cast<std::size_t>(j)] +
                              r * pat->local_advance);
  slot = std::move(pat);
  return slot;
}

}  // namespace

KernelPlan compile_kernel(const SectionPlan& plan) {
  KernelPlan kp;
  if (plan.empty()) return kp;
  const i64 stride = plan.stride();
  const i64 mag = stride < 0 ? -stride : stride;
  const bool desc = stride < 0;
  // Kernels replay in ascending local-address order regardless of the
  // section's direction (every consumer below is order-insensitive or
  // guards on stride sign).
  const i64 af_g = desc ? plan.last_global() : plan.first_global();
  const i64 al_g = desc ? plan.first_global() : plan.last_global();
  const i64 af_l = desc ? plan.last_local() : plan.first_local();
  const i64 al_l = desc ? plan.first_local() : plan.last_local();
  switch (plan.strategy()) {
    case AddressStrategy::kTrivialLocal:
      kp.first_local_ = af_l;
      if (mag == 1) {
        kp.cls_ = KernelClass::kRunCopy;
        kp.count_ = al_l - af_l + 1;
      } else {
        kp.cls_ = KernelClass::kStrided;
        kp.step_ = mag;
        kp.count_ = (al_l - af_l) / mag + 1;
      }
      break;
    case AddressStrategy::kDenseRuns:
      // |s| == 1: the owned local span between the endpoints is fully
      // contiguous (packed storage drops the inter-block holes).
      kp.cls_ = KernelClass::kRunCopy;
      kp.first_local_ = af_l;
      kp.count_ = al_l - af_l + 1;
      break;
    default: {
      const std::shared_ptr<const EngineTables>& tp = plan.tables();
      CYCLICK_ASSERT(tp != nullptr);
      if (tp->degenerate) {
        kp.cls_ = KernelClass::kStrided;
        kp.first_local_ = af_l;
        kp.step_ = tp->fixed_dlocal;
        kp.count_ = (al_g - af_g) / tp->fixed_dglobal + 1;
        break;
      }
      auto pat = periodic_pattern_for(tp, plan.dist().block_offset(af_g));
      // Count in O(log k): whole periods advance the global index by
      // global_advance; the remainder's rank inside the period comes from
      // the ascending global_off vector.
      const i64 span = al_g - af_g;
      const i64 full = span / pat->global_advance;
      const i64 rem = span % pat->global_advance;
      const auto it = std::lower_bound(pat->global_off.begin(), pat->global_off.end(), rem);
      CYCLICK_ASSERT(it != pat->global_off.end() && *it == rem);
      kp.cls_ = KernelClass::kPeriodicGap;
      kp.first_local_ = af_l;
      kp.count_ = full * pat->period + (it - pat->global_off.begin()) + 1;
      kp.pattern_ = std::move(pat);
      break;
    }
  }
  count_kernel_class(kp.cls_, plan.proc());
  return kp;
}

KernelClass kernel_class_for(const BlockCyclic& dist, i64 stride) noexcept {
  const i64 mag = stride < 0 ? -stride : stride;
  if (mag == 0) return KernelClass::kScalar;
  switch (AddressEngine::classify(dist, stride)) {
    case AddressStrategy::kTrivialLocal:
      return mag == 1 ? KernelClass::kRunCopy : KernelClass::kStrided;
    case AddressStrategy::kDenseRuns:
      return KernelClass::kRunCopy;
    case AddressStrategy::kPureCyclic:
    case AddressStrategy::kFixedStep:
      return KernelClass::kStrided;
    case AddressStrategy::kHiranandani:
    case AddressStrategy::kGeneralLattice:
      return KernelClass::kPeriodicGap;
  }
  return KernelClass::kScalar;
}

}  // namespace cyclick
