#include "cyclick/core/kernels.hpp"

#include <cstddef>

namespace cyclick {

KernelPlan compile_kernel(const SectionPlan& plan) {
  KernelPlan kp;
  kp.cls_ = plan.cls();
  if (plan.empty()) return kp;
  // Kernels replay in ascending local-address order regardless of the
  // section's direction (every consumer below is order-insensitive or
  // guards on stride sign).
  const bool desc = plan.stride() < 0;
  const i64 af_g = desc ? plan.last_global() : plan.first_global();
  const i64 al_g = desc ? plan.first_global() : plan.last_global();
  const i64 af_l = desc ? plan.last_local() : plan.first_local();
  const i64 al_l = desc ? plan.first_local() : plan.last_local();
  kp.first_local_ = af_l;
  const EngineTables& t = *plan.tables();
  switch (kp.cls_) {
    case AccessClass::kRuns:
      // |s| == 1: the owned local span between the endpoints is fully
      // contiguous (packed storage drops the inter-block holes).
      kp.count_ = al_l - af_l + 1;
      break;
    case AccessClass::kFixedStep:
      kp.step_ = t.step_local;
      kp.count_ = (al_g - af_g) / t.step_global + 1;
      break;
    case AccessClass::kPeriodic: {
      // The period window of the start offset; count in O(log k): whole
      // periods advance the global index by `dg`, and the remainder's rank
      // inside the period comes from the ascending global offsets.
      const auto q = static_cast<std::size_t>(plan.dist().block_offset(af_g));
      const auto j = static_cast<std::size_t>(t.slot[q]);
      const i64 len = t.period[q];
      const i64* go = t.global_off.data() + j;
      const i64 dg = go[len] - go[0];
      const i64 span = al_g - af_g;
      const i64* it = std::lower_bound(go, go + len, go[0] + span % dg);
      CYCLICK_ASSERT(it != go + len && *it == go[0] + span % dg);
      kp.count_ = (span / dg) * len + (it - go) + 1;
      const i64* lo = t.local_off.data() + j;
      kp.period_ = len;
      kp.advance_ = lo[len] - lo[0];
      kp.base_ = af_l - lo[0];
      if (len >= kPeriodTile) {
        kp.offsets_ = lo;
        kp.tables_ = plan.tables();
        break;
      }
      const i64 reps = kPeriodTile / len;
      for (i64 r = 0; r < reps; ++r)
        for (i64 x = 0; x < len; ++x)
          kp.tile_[static_cast<std::size_t>(r * len + x)] = lo[x] + r * kp.advance_;
      kp.period_ = reps * len;
      kp.advance_ *= reps;
      break;
    }
  }
  return kp;
}

}  // namespace cyclick
