// Pattern-specialized bulk kernels under the AddressEngine.
//
// A SectionPlan tells a consumer *which* local addresses to touch; this
// layer decides *how* to touch them in bulk. Theorem 3 says the access
// sequence is periodic with at most k distinct gaps, so every classified
// plan compiles — once — into one of three replay shapes:
//
//   class          plan shape                     lowering
//   run-copy       dense-runs / trivial |s|==1    memcpy / std::fill_n span
//   strided        degenerate lattice             stride-g gather/scatter,
//                  (k==1, gcd(|s|,pk)>=k, p==1)   unroll-by-8
//   periodic-gap   general nav tables             per-period offset vector
//                                                 (<= k entries) replayed
//                                                 with an unrolled
//                                                 offset-indexed inner loop
//
// The periodic-gap offset vector is tiled: the period is replicated (with
// the per-period local advance folded in) until it covers at least
// kKernelTileTarget elements, so short periods still amortize loop
// overhead. Compiled patterns are cached on the EngineTables they derive
// from — one per start offset q0 — so all ranks and phases of an SPMD loop
// share one compilation.
//
// The movers are plain scalar loops, as in the paper's node code
// (Figure 8), instantiated on the element type T: one path for every T,
// with no run-time CPU dispatch.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "cyclick/core/engine.hpp"

namespace cyclick {

/// The kernel classes a SectionPlan can lower to. kScalar means "no bulk
/// lowering" (empty plan); callers fall back to the plan's own walk.
enum class KernelClass {
  kScalar,       ///< no bulk shape; use SectionPlan::for_each
  kRunCopy,      ///< one contiguous local span: memcpy / std::fill_n
  kStrided,      ///< constant local gap: strided gather/scatter
  kPeriodicGap,  ///< per-period offset vector replay (Theorem 3)
};

[[nodiscard]] const char* kernel_class_name(KernelClass c) noexcept;

/// Replicate the per-period offsets until a tile covers at least this many
/// elements (whole periods only), so tiny periods still run unrolled.
inline constexpr i64 kKernelTileTarget = 64;

/// One compiled periodic access pattern: the local/global offsets of one
/// nav-table cycle starting at offset q0 (both strictly ascending,
/// local_off[0] == global_off[0] == 0), the per-period advances, and the
/// tiled replica of the local offsets the inner loops actually index.
struct PeriodicPattern {
  i64 period = 0;          ///< cycle length k / gcd(|s|, pk)
  i64 local_advance = 0;   ///< local-address advance per period
  i64 global_advance = 0;  ///< global-index advance per period
  std::vector<i64> local_off;
  std::vector<i64> global_off;
  i64 tile_len = 0;      ///< ceil-replicated period, >= min(tile target, period)
  i64 tile_advance = 0;  ///< local advance per tile
  std::vector<i64> tile_off;
};

/// The compiled kernel for one SectionPlan: class, element count, the
/// ascending-first local address, and the class-specific replay state.
/// Element-type-agnostic; the typed entry points below instantiate the
/// movers on the element type at the call site.
class KernelPlan {
 public:
  KernelPlan() = default;

  [[nodiscard]] KernelClass cls() const noexcept { return cls_; }
  /// True when a bulk kernel exists (the plan was nonempty and classified).
  [[nodiscard]] bool bulk() const noexcept {
    return cls_ != KernelClass::kScalar && count_ > 0;
  }
  [[nodiscard]] i64 count() const noexcept { return count_; }
  /// Ascending-first local address (base of the replay).
  [[nodiscard]] i64 first_local() const noexcept { return first_local_; }
  /// Constant local gap (strided class only).
  [[nodiscard]] i64 step() const noexcept { return step_; }
  /// Compiled offsets (periodic-gap class only).
  [[nodiscard]] const PeriodicPattern* pattern() const noexcept { return pattern_.get(); }

 private:
  friend KernelPlan compile_kernel(const SectionPlan& plan);

  KernelClass cls_ = KernelClass::kScalar;
  i64 count_ = 0;
  i64 first_local_ = 0;
  i64 step_ = 0;
  std::shared_ptr<const PeriodicPattern> pattern_;
};

/// Compile a plan into its kernel: selects the class from the plan's
/// strategy, derives the ascending count in O(log k), and (for the
/// periodic-gap class) fetches or builds the cached PeriodicPattern.
/// Counts a per-class `kernel.hit.*` tick; pattern builds open a
/// `kernel_compile` span.
[[nodiscard]] KernelPlan compile_kernel(const SectionPlan& plan);

/// Kernel class a (dist, stride) problem will lower to — classification
/// only, no tables touched (for amtool / interp explain output).
[[nodiscard]] KernelClass kernel_class_for(const BlockCyclic& dist, i64 stride) noexcept;

/// Replay the kernel's local addresses in ascending order: body(la) per
/// element. The per-element walk the fill, copy and dot kernels share.
template <typename Body>
i64 kernel_for_each_local(const KernelPlan& kp, Body&& body) {
  const i64 n = kp.count();
  switch (kp.cls()) {
    case KernelClass::kRunCopy: {
      const i64 first = kp.first_local();
      for (i64 i = 0; i < n; ++i) body(first + i);
      return n;
    }
    case KernelClass::kStrided: {
      const i64 step = kp.step();
      i64 la = kp.first_local();
      for (i64 i = 0; i < n; ++i, la += step) body(la);
      return n;
    }
    case KernelClass::kPeriodicGap: {
      const PeriodicPattern& pat = *kp.pattern();
      const i64* off = pat.tile_off.data();
      const i64 tile = pat.tile_len;
      i64 base = kp.first_local();
      i64 i = 0;
      for (; i + tile <= n; i += tile, base += pat.tile_advance)
        for (i64 j = 0; j < tile; ++j) body(base + off[j]);
      for (i64 j = 0; i < n; ++i, ++j) body(base + off[j]);
      return n;
    }
    case KernelClass::kScalar: break;
  }
  return 0;
}

/// local[la] = value over the kernel's addresses (fill_section core).
template <typename T>
i64 kernel_fill(const KernelPlan& kp, T* local, const T& value) {
  if (kp.cls() == KernelClass::kRunCopy) {
    std::fill_n(local + kp.first_local(), static_cast<std::size_t>(kp.count()), value);
    return kp.count();
  }
  return kernel_for_each_local(kp, [&](i64 la) { local[la] = value; });
}

/// out[la] = in[la] over the kernel's addresses (same-mapping copy core).
template <typename T>
i64 kernel_copy_same(const KernelPlan& kp, const T* in, T* out) {
  if (kp.cls() == KernelClass::kRunCopy) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      std::memcpy(out + kp.first_local(), in + kp.first_local(),
                  static_cast<std::size_t>(kp.count()) * sizeof(T));
    } else {
      std::copy_n(in + kp.first_local(), static_cast<std::size_t>(kp.count()),
                  out + kp.first_local());
    }
    return kp.count();
  }
  return kernel_for_each_local(kp, [&](i64 la) { out[la] = in[la]; });
}

/// Constant-stride gather: out[i] = base[i * step], unrolled by 8.
template <typename T>
void kernel_gather_strided(const T* base, i64 step, i64 count, T* out) {
  i64 i = 0;
  const T* p = base;
  for (; i + 8 <= count; i += 8, p += 8 * step) {
    out[i + 0] = p[0];
    out[i + 1] = p[step];
    out[i + 2] = p[2 * step];
    out[i + 3] = p[3 * step];
    out[i + 4] = p[4 * step];
    out[i + 5] = p[5 * step];
    out[i + 6] = p[6 * step];
    out[i + 7] = p[7 * step];
  }
  for (; i < count; ++i) out[i] = base[i * step];
}

/// Constant-stride scatter: base[i * step] = in[i], unrolled by 8.
template <typename T>
void kernel_scatter_strided(T* base, i64 step, i64 count, const T* in) {
  i64 i = 0;
  T* p = base;
  for (; i + 8 <= count; i += 8, p += 8 * step) {
    p[0] = in[i + 0];
    p[step] = in[i + 1];
    p[2 * step] = in[i + 2];
    p[3 * step] = in[i + 3];
    p[4 * step] = in[i + 4];
    p[5 * step] = in[i + 5];
    p[6 * step] = in[i + 6];
    p[7 * step] = in[i + 7];
  }
  for (; i < count; ++i) base[i * step] = in[i];
}

/// Periodic-offset gather outside a KernelPlan: out[j*period + r] =
/// base[j*advance + off[r]], unrolled by 4; the tail period is partial.
/// This is also the comm-plan channel pack primitive — a channel's gap
/// table is exactly such an offset vector (prefix sums of the gaps), so
/// wire packing shares this loop with section_ops.
template <typename T>
void kernel_gather_offsets(const T* base, const i64* off, i64 period, i64 advance,
                           i64 count, T* out) {
  i64 i = 0;
  while (i < count) {
    const i64 lim = period < count - i ? period : count - i;
    i64 j = 0;
    for (; j + 4 <= lim; j += 4) {
      out[i + j + 0] = base[off[j + 0]];
      out[i + j + 1] = base[off[j + 1]];
      out[i + j + 2] = base[off[j + 2]];
      out[i + j + 3] = base[off[j + 3]];
    }
    for (; j < lim; ++j) out[i + j] = base[off[j]];
    i += lim;
    base += advance;
  }
}

/// Periodic-offset scatter (comm-plan channel unpack primitive):
/// base[j*advance + off[r]] = in[j*period + r].
template <typename T>
void kernel_scatter_offsets(T* base, const i64* off, i64 period, i64 advance, i64 count,
                            const T* in) {
  i64 i = 0;
  while (i < count) {
    const i64 lim = period < count - i ? period : count - i;
    i64 j = 0;
    for (; j + 4 <= lim; j += 4) {
      base[off[j + 0]] = in[i + j + 0];
      base[off[j + 1]] = in[i + j + 1];
      base[off[j + 2]] = in[i + j + 2];
      base[off[j + 3]] = in[i + j + 3];
    }
    for (; j < lim; ++j) base[off[j]] = in[i + j];
    i += lim;
    base += advance;
  }
}

/// out[i] = local[address i] — densify the kernel's elements into a packed
/// buffer (the pack-side primitive comm plans and reductions build on).
template <typename T>
i64 kernel_gather(const KernelPlan& kp, const T* local, T* out) {
  const i64 n = kp.count();
  if (n <= 0) return 0;
  switch (kp.cls()) {
    case KernelClass::kRunCopy:
      if constexpr (std::is_trivially_copyable_v<T>) {
        std::memcpy(out, local + kp.first_local(), static_cast<std::size_t>(n) * sizeof(T));
      } else {
        std::copy_n(local + kp.first_local(), static_cast<std::size_t>(n), out);
      }
      return n;
    case KernelClass::kStrided:
      kernel_gather_strided(local + kp.first_local(), kp.step(), n, out);
      return n;
    case KernelClass::kPeriodicGap: {
      const PeriodicPattern& pat = *kp.pattern();
      kernel_gather_offsets(local + kp.first_local(), pat.tile_off.data(), pat.tile_len,
                            pat.tile_advance, n, out);
      return n;
    }
    case KernelClass::kScalar: break;
  }
  return 0;
}

/// local[address i] = in[i] — the unpack-side mirror of kernel_gather.
template <typename T>
i64 kernel_scatter(const KernelPlan& kp, T* local, const T* in) {
  const i64 n = kp.count();
  if (n <= 0) return 0;
  switch (kp.cls()) {
    case KernelClass::kRunCopy:
      if constexpr (std::is_trivially_copyable_v<T>) {
        std::memcpy(local + kp.first_local(), in, static_cast<std::size_t>(n) * sizeof(T));
      } else {
        std::copy_n(in, static_cast<std::size_t>(n), local + kp.first_local());
      }
      return n;
    case KernelClass::kStrided:
      kernel_scatter_strided(local + kp.first_local(), kp.step(), n, in);
      return n;
    case KernelClass::kPeriodicGap: {
      const PeriodicPattern& pat = *kp.pattern();
      kernel_scatter_offsets(local + kp.first_local(), pat.tile_off.data(), pat.tile_len,
                             pat.tile_advance, n, in);
      return n;
    }
    case KernelClass::kScalar: break;
  }
  return 0;
}

/// sum over the kernel's addresses of a[la] * b[la] (dot_product core).
/// Accumulation order is the ascending address order.
template <typename T>
T kernel_dot(const KernelPlan& kp, const T* a, const T* b) {
  T acc{};
  if (kp.cls() == KernelClass::kRunCopy) {
    const T* pa = a + kp.first_local();
    const T* pb = b + kp.first_local();
    const i64 n = kp.count();
    for (i64 i = 0; i < n; ++i) acc += pa[i] * pb[i];
    return acc;
  }
  kernel_for_each_local(kp, [&](i64 la) { acc += a[la] * b[la]; });
  return acc;
}

}  // namespace cyclick
