// Bulk kernels under the AddressEngine.
//
// A SectionPlan tells a consumer *which* local addresses to touch; this
// layer decides *how* to touch them in bulk. Each access class has one
// replay shape:
//
//   class        lowering
//   runs         memcpy / std::fill_n over one local span
//   fixed-step   constant-gap gather/scatter, unrolled by 8
//   periodic     the Theorem-3 period window of the plan's start offset,
//                read in place from the engine tables (or, for a period
//                shorter than kPeriodTile, that window replicated into the
//                plan), replayed with an unrolled offset-indexed loop
//
// compile_kernel counts the plan's elements in O(log k) and builds nothing
// else: the period was laid out when the engine built its tables, and the
// window for any start offset is a rotation of its cycle, so every rank and
// phase of an SPMD loop replays the same immutable table.
//
// The movers are plain scalar loops, as in the paper's node code
// (Figure 8), instantiated on the element type T: one path for every T,
// with no run-time CPU dispatch.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <type_traits>

#include "cyclick/core/engine.hpp"

namespace cyclick {

/// perfbench/harness, which is versioned with the benchmark definition,
/// spells the runs class `KernelClass::kRunCopy`; this keeps that spelling.
struct KernelClass {
  static constexpr AccessClass kRunCopy = AccessClass::kRuns;
};

/// A period shorter than this many offsets is replicated into a replay
/// window of whole periods at least this long, so short periods still run
/// the unrolled inner loop. On bench/kernel_throughput's period-4 row that
/// gathers 1- and 4-byte elements about 1.5x faster than the bare period;
/// 16 trails 64 by up to 10% at 1-byte elements, and 32 sits within 64's
/// quartiles.
inline constexpr i64 kPeriodTile = 32;

/// The compiled kernel for one SectionPlan: the plan's class, element
/// count, ascending-first local address, and the class's replay state.
/// Element-type-agnostic; the typed entry points below instantiate the
/// movers on the element type at the call site.
class KernelPlan {
 public:
  KernelPlan() = default;

  [[nodiscard]] AccessClass cls() const noexcept { return cls_; }
  /// True when there is anything to move (the plan was nonempty).
  [[nodiscard]] bool bulk() const noexcept { return count_ > 0; }
  [[nodiscard]] i64 count() const noexcept { return count_; }
  /// Ascending-first local address.
  [[nodiscard]] i64 first_local() const noexcept { return first_local_; }
  /// Constant local gap (fixed-step class only).
  [[nodiscard]] i64 step() const noexcept { return step_; }
  /// Periodic class: the replay window's local offsets, `period()` entries
  /// of whole periods, read in place from the engine tables or, for a short
  /// period, from the plan's own tile. Element i of the replay sits at
  /// base() + (i / period) * advance() + offsets()[i % period]; base() is
  /// never negative when the plan's local addresses are not.
  [[nodiscard]] const i64* offsets() const noexcept {
    return offsets_ != nullptr ? offsets_ : tile_.data();
  }
  [[nodiscard]] i64 period() const noexcept { return period_; }
  [[nodiscard]] i64 advance() const noexcept { return advance_; }
  [[nodiscard]] i64 base() const noexcept { return base_; }

 private:
  friend KernelPlan compile_kernel(const SectionPlan& plan);

  AccessClass cls_ = AccessClass::kRuns;
  i64 count_ = 0;
  i64 first_local_ = 0;
  i64 step_ = 0;
  const i64* offsets_ = nullptr;  ///< table window; null when tile_ holds it
  i64 period_ = 0;
  i64 advance_ = 0;
  i64 base_ = 0;
  std::shared_ptr<const EngineTables> tables_;  ///< keeps offsets_ alive
  std::array<i64, kPeriodTile> tile_{};
};

/// Compile a plan into its kernel: the plan's class, the ascending count in
/// O(log k), and (periodic class) the period window of the start offset.
[[nodiscard]] KernelPlan compile_kernel(const SectionPlan& plan);

/// Replay the kernel's local addresses in ascending order: body(la) per
/// element. The per-element walk the fill, copy and dot kernels share.
template <typename Body>
i64 kernel_for_each_local(const KernelPlan& kp, Body&& body) {
  const i64 n = kp.count();
  switch (kp.cls()) {
    case AccessClass::kRuns: {
      const i64 first = kp.first_local();
      for (i64 i = 0; i < n; ++i) body(first + i);
      return n;
    }
    case AccessClass::kFixedStep: {
      const i64 step = kp.step();
      i64 la = kp.first_local();
      for (i64 i = 0; i < n; ++i, la += step) body(la);
      return n;
    }
    case AccessClass::kPeriodic: {
      const i64* off = kp.offsets();
      const i64 len = kp.period();
      i64 base = kp.base();
      i64 i = 0;
      for (; i + len <= n; i += len, base += kp.advance())
        for (i64 j = 0; j < len; ++j) body(base + off[j]);
      for (i64 j = 0; i < n; ++i, ++j) body(base + off[j]);
      return n;
    }
  }
  return 0;
}

/// local[la] = value over the kernel's addresses (fill_section core).
template <typename T>
i64 kernel_fill(const KernelPlan& kp, T* local, const T& value) {
  if (kp.cls() == AccessClass::kRuns) {
    std::fill_n(local + kp.first_local(), static_cast<std::size_t>(kp.count()), value);
    return kp.count();
  }
  return kernel_for_each_local(kp, [&](i64 la) { local[la] = value; });
}

/// out[la] = in[la] over the kernel's addresses (same-mapping copy core).
template <typename T>
i64 kernel_copy_same(const KernelPlan& kp, const T* in, T* out) {
  if (kp.cls() == AccessClass::kRuns) {
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

/// Periodic-offset gather: out[j*period + r] =
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
    case AccessClass::kRuns:
      if constexpr (std::is_trivially_copyable_v<T>) {
        std::memcpy(out, local + kp.first_local(), static_cast<std::size_t>(n) * sizeof(T));
      } else {
        std::copy_n(local + kp.first_local(), static_cast<std::size_t>(n), out);
      }
      return n;
    case AccessClass::kFixedStep:
      kernel_gather_strided(local + kp.first_local(), kp.step(), n, out);
      return n;
    case AccessClass::kPeriodic:
      kernel_gather_offsets(local + kp.base(), kp.offsets(), kp.period(), kp.advance(), n, out);
      return n;
  }
  return 0;
}

/// local[address i] = in[i] — the unpack-side mirror of kernel_gather.
template <typename T>
i64 kernel_scatter(const KernelPlan& kp, T* local, const T* in) {
  const i64 n = kp.count();
  if (n <= 0) return 0;
  switch (kp.cls()) {
    case AccessClass::kRuns:
      if constexpr (std::is_trivially_copyable_v<T>) {
        std::memcpy(local + kp.first_local(), in, static_cast<std::size_t>(n) * sizeof(T));
      } else {
        std::copy_n(in, static_cast<std::size_t>(n), local + kp.first_local());
      }
      return n;
    case AccessClass::kFixedStep:
      kernel_scatter_strided(local + kp.first_local(), kp.step(), n, in);
      return n;
    case AccessClass::kPeriodic:
      kernel_scatter_offsets(local + kp.base(), kp.offsets(), kp.period(), kp.advance(), n, in);
      return n;
  }
  return 0;
}

/// sum over the kernel's addresses of a[la] * b[la] (dot_product core).
/// Accumulation order is the ascending address order.
template <typename T>
T kernel_dot(const KernelPlan& kp, const T* a, const T* b) {
  T acc{};
  if (kp.cls() == AccessClass::kRuns) {
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
