// Fortran-90 / HPF array intrinsics over distributed arrays: CSHIFT,
// EOSHIFT, DOT_PRODUCT, COUNT, MAXLOC/MINLOC. These are the library
// routines an HPF runtime ships next to the assignment engine; all are
// built on the access-sequence copy/reduce machinery.
#pragma once

#include <limits>

#include "cyclick/runtime/section_ops.hpp"

namespace cyclick {

/// CSHIFT: out(i) = in((i + shift) mod n) elementwise over the whole array.
/// `out` must have the same length as `in` (distributions may differ).
template <typename T>
void cshift(const DistributedArray<T>& in, DistributedArray<T>& out, i64 shift,
            const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(in.size() == out.size(), "cshift arrays must have equal length");
  const i64 n = in.size();
  const i64 s = floor_mod(shift, n);
  if (s == 0) {
    copy_section(in, {0, n - 1, 1}, out, {0, n - 1, 1}, exec);
    return;
  }
  // out(0 : n-s-1) = in(s : n-1);  out(n-s : n-1) = in(0 : s-1).
  copy_section(in, {s, n - 1, 1}, out, {0, n - s - 1, 1}, exec);
  copy_section(in, {0, s - 1, 1}, out, {n - s, n - 1, 1}, exec);
}

/// EOSHIFT: out(i) = in(i + shift) where in range, else `boundary`.
template <typename T>
void eoshift(const DistributedArray<T>& in, DistributedArray<T>& out, i64 shift,
             const T& boundary, const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(in.size() == out.size(), "eoshift arrays must have equal length");
  const i64 n = in.size();
  if (shift >= n || shift <= -n) {
    fill_section(out, {0, n - 1, 1}, boundary, exec);
    return;
  }
  if (shift == 0) {
    copy_section(in, {0, n - 1, 1}, out, {0, n - 1, 1}, exec);
    return;
  }
  if (shift > 0) {
    copy_section(in, {shift, n - 1, 1}, out, {0, n - 1 - shift, 1}, exec);
    fill_section(out, {n - shift, n - 1, 1}, boundary, exec);
  } else {
    copy_section(in, {0, n - 1 + shift, 1}, out, {-shift, n - 1, 1}, exec);
    fill_section(out, {0, -shift - 1, 1}, boundary, exec);
  }
}

/// DOT_PRODUCT over two equally sized sections (arrays may be distributed
/// differently; the b-operand is landed in an a-shaped temporary first).
/// Each rank accumulates in ascending local-address order.
template <typename T>
T dot_product(const DistributedArray<T>& a, const RegularSection& asec,
              const DistributedArray<T>& b, const RegularSection& bsec,
              const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(asec.size() == bsec.size(), "dot_product sections must match");
  DistributedArray<T> tb(a.mapping());
  copy_section(b, bsec, tb, asec, exec);
  std::vector<T> partial(static_cast<std::size_t>(exec.ranks()), T{});
  exec.run([&](i64 rank) {
    const detail::OwnedShare sh = detail::owned_share(a.mapping(), Region{asec}, rank);
    if (sh.empty) return;
    const T* la = a.local(rank).data();
    const T* lb = tb.local(rank).data();
    T acc{};
    detail::for_each_local(sh, [&](i64 i) { acc += la[i] * lb[i]; });
    partial[static_cast<std::size_t>(rank)] = acc;
  });
  T out{};
  for (const T& v : partial) out += v;
  return out;
}

/// COUNT: number of section elements satisfying `pred`.
template <typename T, typename Pred>
i64 count_section(const DistributedArray<T>& arr, const RegularSection& sec, Pred&& pred,
                  const SpmdExecutor& exec) {
  std::vector<i64> partial(static_cast<std::size_t>(exec.ranks()), 0);
  exec.run([&](i64 rank) {
    const detail::OwnedShare sh = detail::owned_share(arr.mapping(), Region{sec}, rank);
    if (sh.empty) return;
    const T* local = arr.local(rank).data();
    i64 c = 0;
    detail::for_each_local(sh, [&](i64 i) { c += pred(local[i]) ? 1 : 0; });
    partial[static_cast<std::size_t>(rank)] = c;
  });
  i64 total = 0;
  for (const i64 c : partial) total += c;
  return total;
}

/// SUM_PREFIX: out(osec element t) = sum of in(sec elements 0..t), the
/// inclusive prefix scan over the section's traversal order.
///
/// Three-phase distributed scan: land the section in a block-distributed
/// t-space array (each rank then owns one contiguous run of positions),
/// scan locally, exclusive-scan the per-rank totals, add the rank offsets,
/// and land the result in the destination section.
template <typename T>
void sum_prefix_section(const DistributedArray<T>& in, const RegularSection& sec,
                        DistributedArray<T>& out, const RegularSection& osec,
                        const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(sec.size() == osec.size(), "prefix sections must have equal length");
  const i64 n = sec.size();
  const i64 p = exec.ranks();
  DistributedArray<T> tspace(BlockCyclic::block(n, p), n);
  copy_section(in, sec, tspace, {0, n - 1, 1}, exec);

  // Phase 1: local inclusive scans; record per-rank totals. Under the
  // block distribution each rank's local buffer holds one contiguous run
  // of t positions, so the local scan is a plain sweep.
  std::vector<T> totals(static_cast<std::size_t>(p), T{});
  exec.run([&](i64 rank) {
    auto local = tspace.local(rank);
    const i64 sz = tspace.dist().local_size(rank, n);
    T acc{};
    for (i64 i = 0; i < sz; ++i) {
      acc += local[static_cast<std::size_t>(i)];
      local[static_cast<std::size_t>(i)] = acc;
    }
    totals[static_cast<std::size_t>(rank)] = acc;
  });

  // Phase 2: exclusive scan of the rank totals (O(p), done once).
  std::vector<T> offset(static_cast<std::size_t>(p), T{});
  for (i64 r = 1; r < p; ++r)
    offset[static_cast<std::size_t>(r)] =
        offset[static_cast<std::size_t>(r - 1)] + totals[static_cast<std::size_t>(r - 1)];

  // Phase 3: add each rank's offset.
  exec.run([&](i64 rank) {
    const T add = offset[static_cast<std::size_t>(rank)];
    auto local = tspace.local(rank);
    const i64 sz = tspace.dist().local_size(rank, n);
    for (i64 i = 0; i < sz; ++i) local[static_cast<std::size_t>(i)] += add;
  });

  copy_section(tspace, {0, n - 1, 1}, out, osec, exec);
}

/// MAXLOC: position t (within the section) of the first maximum value.
/// Requires a nonempty section. Ties resolve to the smallest t, matching
/// Fortran's MAXLOC.
template <typename T>
i64 maxloc_section(const DistributedArray<T>& arr, const RegularSection& sec,
                   const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(!sec.empty(), "maxloc of empty section");
  struct Best {
    T value;
    i64 t;
  };
  std::vector<Best> partial(static_cast<std::size_t>(exec.ranks()),
                            Best{std::numeric_limits<T>::lowest(),
                                 std::numeric_limits<i64>::max()});
  exec.run([&](i64 rank) {
    auto local = arr.local(rank);
    Best& best = partial[static_cast<std::size_t>(rank)];
    for_each_owned(arr, sec, rank, [&](i64 t, i64 addr) {
      const T& v = local[static_cast<std::size_t>(addr)];
      if (v > best.value || (v == best.value && t < best.t)) best = {v, t};
    });
  });
  Best out = partial.front();
  for (const Best& b : partial)
    if (b.t != std::numeric_limits<i64>::max() &&
        (b.value > out.value || (b.value == out.value && b.t < out.t)))
      out = b;
  return out.t;
}

/// MINLOC: position t of the first minimum value.
template <typename T>
i64 minloc_section(const DistributedArray<T>& arr, const RegularSection& sec,
                   const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(!sec.empty(), "minloc of empty section");
  struct Best {
    T value;
    i64 t;
  };
  std::vector<Best> partial(static_cast<std::size_t>(exec.ranks()),
                            Best{std::numeric_limits<T>::max(),
                                 std::numeric_limits<i64>::max()});
  exec.run([&](i64 rank) {
    auto local = arr.local(rank);
    Best& best = partial[static_cast<std::size_t>(rank)];
    for_each_owned(arr, sec, rank, [&](i64 t, i64 addr) {
      const T& v = local[static_cast<std::size_t>(addr)];
      if (v < best.value || (v == best.value && t < best.t)) best = {v, t};
    });
  });
  Best out = partial.front();
  for (const Best& b : partial)
    if (b.t != std::numeric_limits<i64>::max() &&
        (b.value < out.value || (b.value == out.value && b.t < out.t)))
      out = b;
  return out.t;
}

}  // namespace cyclick
