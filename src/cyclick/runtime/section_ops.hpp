// SPMD array-statement engine over distributed arrays of any rank: fills,
// elementwise transforms, reductions, and two-sided copies with explicit
// communication plans — the operations an HPF-like compiler lowers array
// assignment statements into, all driven by the paper's access-sequence
// machinery rather than per-element owner computations.
//
// Every operation takes a Region (one section per dimension; a 1-D section
// is the rank-1 region, and the *_section forms are its spellings) and runs
// on the one owned walk of distributed_array.hpp, whose innermost dimension
// replays the compiled kernel of its access class: contiguous spans are one
// std::fill_n or memcpy, strided and periodic-gap shapes replay their
// offset kernels (core/kernels.hpp). Copies between different mappings
// build — or replay from the plan caches — a communication plan (1-D:
// build_copy_plan; N-D: build_region_plan) and execute it through the
// redistribution layer (redistribute.hpp), so they run message-shaped over
// whichever backend is active with byte-identical results.
#pragma once

#include <vector>

#include "cyclick/runtime/distributed_array.hpp"
#include "cyclick/runtime/plan_cache.hpp"
#include "cyclick/runtime/redistribute.hpp"
#include "cyclick/runtime/spmd.hpp"

namespace cyclick {

namespace detail {

template <typename T>
void require_ranks(const DistributedArray<T>& arr, const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(exec.ranks() == arr.mapping().grid().rank_count(),
                  "executor/array rank mismatch");
}

}  // namespace detail

/// arr(region) = value, executed SPMD.
template <typename T>
void fill_region(DistributedArray<T>& arr, const Region& region, const T& value,
                 const SpmdExecutor& exec) {
  detail::require_ranks(arr, exec);
  exec.run([&](i64 rank) {
    const detail::OwnedShare sh = detail::owned_share(arr.mapping(), region, rank);
    if (sh.empty) return;
    T* local = arr.local(rank).data();
    detail::for_each_row(sh, [&](i64 base, const std::vector<std::size_t>&) {
      if (sh.packed) {
        for (const i64 l : sh.inner.local_idx) local[base + l] = value;
      } else {
        kernel_fill(sh.kernel, local + base, value);
      }
    });
  });
}

/// arr(region) = f(arr(region)) elementwise, executed SPMD.
template <typename T, typename F>
void transform_region(DistributedArray<T>& arr, const Region& region, F&& f,
                      const SpmdExecutor& exec) {
  detail::require_ranks(arr, exec);
  exec.run([&](i64 rank) {
    const detail::OwnedShare sh = detail::owned_share(arr.mapping(), region, rank);
    if (sh.empty) return;
    T* local = arr.local(rank).data();
    detail::for_each_local(sh, [&](i64 addr) { local[addr] = f(local[addr]); });
  });
}

/// a(region) = f(a(region), b(region)) elementwise, executed SPMD, where
/// `b` has a's mapping, so both operands of an element share its local
/// address (the combine step of "communicate, then compute locally").
template <typename T, typename F>
void combine_region(DistributedArray<T>& a, const DistributedArray<T>& b, const Region& region,
                    F&& f, const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(a.mapping() == b.mapping(), "combined arrays must share a mapping");
  detail::require_ranks(a, exec);
  exec.run([&](i64 rank) {
    const detail::OwnedShare sh = detail::owned_share(a.mapping(), region, rank);
    if (sh.empty) return;
    T* la = a.local(rank).data();
    const T* lb = b.local(rank).data();
    detail::for_each_local(sh, [&](i64 i) { la[i] = f(la[i], lb[i]); });
  });
}

/// Reduction over arr(region): op-fold of all region elements onto init.
/// Each rank folds its share in ascending local-address order, then the
/// partials fold onto init in ascending rank order (op need not be
/// commutative).
template <typename T, typename Op>
T reduce_region(const DistributedArray<T>& arr, const Region& region, T init, Op&& op,
                const SpmdExecutor& exec) {
  detail::require_ranks(arr, exec);
  std::vector<T> partial(static_cast<std::size_t>(exec.ranks()), T{});
  // char, not bool: vector<bool> packs bits and is not safe for concurrent
  // writes to distinct elements under the threaded executor.
  std::vector<char> seen(static_cast<std::size_t>(exec.ranks()), 0);
  exec.run([&](i64 rank) {
    const detail::OwnedShare sh = detail::owned_share(arr.mapping(), region, rank);
    if (sh.empty) return;
    const T* local = arr.local(rank).data();
    T& acc = partial[static_cast<std::size_t>(rank)];
    char& any = seen[static_cast<std::size_t>(rank)];
    detail::for_each_local(sh, [&](i64 addr) {
      acc = any ? op(acc, local[addr]) : local[addr];
      any = 1;
    });
  });
  T out = init;
  for (i64 r = 0; r < exec.ranks(); ++r)
    if (seen[static_cast<std::size_t>(r)]) out = op(out, partial[static_cast<std::size_t>(r)]);
  return out;
}

/// dst(dregion) = src(sregion), where the regions have identical per-dim
/// sizes. When both arrays share one mapping and the regions coincide,
/// every element already lives on its destination rank at the same local
/// address, so the copy is purely local (the compiled kernels turn it into
/// memcpy runs). Otherwise the process-wide plan caches serve the plan, so
/// repeated copies with the same shape (iterative solvers, shift
/// intrinsics in a sweep loop, stencils) build it once and replay it.
template <typename T>
void copy_region(const DistributedArray<T>& src, const Region& sregion,
                 DistributedArray<T>& dst, const Region& dregion, const SpmdExecutor& exec) {
  if (src.mapping() == dst.mapping() && sregion == dregion) {
    detail::require_ranks(dst, exec);
    if (region_size(dregion) == 0) return;
    CYCLICK_COUNT("engine.local_copies", 0, 1);
    exec.run([&](i64 rank) {
      const detail::OwnedShare sh = detail::owned_share(dst.mapping(), dregion, rank);
      if (sh.empty) return;
      const T* in = src.local(rank).data();
      T* out = dst.local(rank).data();
      detail::for_each_row(sh, [&](i64 base, const std::vector<std::size_t>&) {
        if (sh.packed) {
          for (const i64 l : sh.inner.local_idx) out[base + l] = in[base + l];
        } else {
          kernel_copy_same(sh.kernel, in + base, out + base);
        }
      });
    });
    return;
  }
  if (sregion.size() == 1 && dregion.size() == 1) {
    const auto plan = cached_copy_plan(src, sregion[0], dst, dregion[0], exec);
    execute_copy_plan(*plan, src, dst, exec);
    return;
  }
  detail::require_region_copy_shape(src, sregion, dst, dregion, exec, /*spread=*/false);
  const auto plan = cached_region_plan(src, sregion, dst, dregion, exec);
  execute_redistribution(*plan, src, dst, exec);
}

/// dst(dregion) = SPREAD(src(sregion)): like copy_region, but any source
/// dimension of size 1 replicates across the matching destination
/// dimension. This is the HPF SPREAD lowering — e.g. SUMMA's panel
/// broadcast ta(i, j) = A(i, t) for all j.
template <typename T>
void spread_region(const DistributedArray<T>& src, const Region& sregion,
                   DistributedArray<T>& dst, const Region& dregion, const SpmdExecutor& exec) {
  detail::require_region_copy_shape(src, sregion, dst, dregion, exec, /*spread=*/true);
  const auto plan = cached_region_plan(src, sregion, dst, dregion, exec, /*spread=*/true);
  execute_redistribution(*plan, src, dst, exec);
}

// The rank-1 spellings.

template <typename T>
void fill_section(DistributedArray<T>& arr, const RegularSection& sec, const T& value,
                  const SpmdExecutor& exec) {
  fill_region(arr, Region{sec}, value, exec);
}

template <typename T, typename F>
void transform_section(DistributedArray<T>& arr, const RegularSection& sec, F&& f,
                       const SpmdExecutor& exec) {
  transform_region(arr, Region{sec}, std::forward<F>(f), exec);
}

template <typename T, typename Op>
T reduce_section(const DistributedArray<T>& arr, const RegularSection& sec, T init, Op&& op,
                 const SpmdExecutor& exec) {
  return reduce_region(arr, Region{sec}, init, std::forward<Op>(op), exec);
}

template <typename T>
void copy_section(const DistributedArray<T>& src, const RegularSection& ssec,
                  DistributedArray<T>& dst, const RegularSection& dsec,
                  const SpmdExecutor& exec) {
  copy_region(src, Region{ssec}, dst, Region{dsec}, exec);
}

/// dst(dsec) = f(a(asec), b(bsec)) elementwise. Communication is performed
/// by first landing both operands in dst-shaped temporaries (the standard
/// "communicate then compute locally" lowering), then combining locally.
template <typename T, typename F>
void zip_sections(DistributedArray<T>& dst, const RegularSection& dsec,
                  const DistributedArray<T>& a, const RegularSection& asec,
                  const DistributedArray<T>& b, const RegularSection& bsec, F&& f,
                  const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(dsec.size() == asec.size() && dsec.size() == bsec.size(),
                  "section size mismatch in zip");
  DistributedArray<T> ta(dst.mapping());
  DistributedArray<T> tb(dst.mapping());
  copy_section(a, asec, ta, dsec, exec);
  copy_section(b, bsec, tb, dsec, exec);
  exec.run([&](i64 rank) {
    const detail::OwnedShare sh = detail::owned_share(dst.mapping(), Region{dsec}, rank);
    if (sh.empty) return;
    T* out = dst.local(rank).data();
    const T* la = ta.local(rank).data();
    const T* lb = tb.local(rank).data();
    detail::for_each_local(sh, [&](i64 i) { out[i] = f(la[i], lb[i]); });
  });
}

}  // namespace cyclick
