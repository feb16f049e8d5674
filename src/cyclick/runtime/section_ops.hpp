// SPMD array-statement engine over distributed arrays: fill, elementwise
// transforms, reductions, and two-sided section copies with explicit
// communication plans — the operations an HPF-like compiler lowers array
// assignment statements into, all driven by the paper's access-sequence
// machinery rather than per-element owner computations.
//
// The communication-plan machinery itself (compressed periodic plans, the
// legacy per-item representation, pack/unpack kernels) lives in
// comm_plan.hpp; the phase-rotated executors and backend dispatch in
// redistribute.hpp; the plan cache in plan_cache.hpp. This header provides
// the statement-level entry points.
#pragma once

#include <algorithm>
#include <utility>
#include <functional>
#include <numeric>
#include <vector>

#include "cyclick/codegen/node_loop.hpp"
#include "cyclick/runtime/distributed_array.hpp"
#include "cyclick/runtime/plan_cache.hpp"
#include "cyclick/runtime/redistribute.hpp"
#include "cyclick/runtime/spmd.hpp"
#include "cyclick/runtime/transport.hpp"

namespace cyclick {

/// A(sec) = value, executed SPMD. Identity-aligned sections run through the
/// compiled kernel for the section's class: contiguous spans are one
/// std::fill_n, strided and periodic-gap shapes replay their offset
/// kernels (core/kernels.hpp) instead of an element-at-a-time table walk.
template <typename T>
void fill_section(DistributedArray<T>& arr, const RegularSection& sec, const T& value,
                  const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(exec.ranks() == arr.dist().procs(), "executor/array rank mismatch");
  exec.run([&](i64 rank) {
    auto local = arr.local(rank);
    if (!sec.empty() && arr.packed_layout_or_null(rank) == nullptr) {
      CYCLICK_REQUIRE(section_within(arr, sec), "section must lie within the array");
      const KernelPlan kp = compile_kernel(owned_plan(arr, sec, rank));
      if (kp.bulk()) {
        kernel_fill(kp, local.data(), value);
        return;
      }
    }
    for_each_owned(arr, sec, rank,
                   [&](i64, i64 la) { local[static_cast<std::size_t>(la)] = value; });
  });
}

/// A(sec) = f(A(sec)) elementwise, executed SPMD. Elementwise updates are
/// order-free, so identity-aligned sections replay the compiled kernel's
/// ascending address stream.
template <typename T, typename F>
void transform_section(DistributedArray<T>& arr, const RegularSection& sec, F&& f,
                       const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(exec.ranks() == arr.dist().procs(), "executor/array rank mismatch");
  exec.run([&](i64 rank) {
    auto local = arr.local(rank);
    if (!sec.empty() && arr.packed_layout_or_null(rank) == nullptr) {
      CYCLICK_REQUIRE(section_within(arr, sec), "section must lie within the array");
      const KernelPlan kp = compile_kernel(owned_plan(arr, sec, rank));
      if (kp.bulk()) {
        kernel_for_each_local(kp, [&](i64 la) {
          auto& slot = local[static_cast<std::size_t>(la)];
          slot = f(slot);
        });
        return;
      }
    }
    for_each_owned(arr, sec, rank, [&](i64, i64 la) {
      auto& slot = local[static_cast<std::size_t>(la)];
      slot = f(slot);
    });
  });
}

/// Reduction over A(sec): op-fold of all section elements onto init.
template <typename T, typename Op>
T reduce_section(const DistributedArray<T>& arr, const RegularSection& sec, T init, Op&& op,
                 const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(exec.ranks() == arr.dist().procs(), "executor/array rank mismatch");
  std::vector<T> partial(static_cast<std::size_t>(exec.ranks()), T{});
  // char, not bool: vector<bool> packs bits and is not safe for concurrent
  // writes to distinct elements under the threaded executor.
  std::vector<char> seen(static_cast<std::size_t>(exec.ranks()), 0);
  exec.run([&](i64 rank) {
    auto local = arr.local(rank);
    const auto fold = [&](i64 la) {
      const T& v = local[static_cast<std::size_t>(la)];
      auto& acc = partial[static_cast<std::size_t>(rank)];
      if (!seen[static_cast<std::size_t>(rank)]) {
        acc = v;
        seen[static_cast<std::size_t>(rank)] = 1;
      } else {
        acc = op(acc, v);
      }
    };
    // Kernel replay is ascending-only, so gate on stride > 0 to keep the
    // per-rank fold order identical to the traversal order (op need not be
    // commutative).
    if (!sec.empty() && sec.stride > 0 && arr.packed_layout_or_null(rank) == nullptr) {
      CYCLICK_REQUIRE(section_within(arr, sec), "section must lie within the array");
      const KernelPlan kp = compile_kernel(owned_plan(arr, sec, rank));
      if (kp.bulk()) {
        kernel_for_each_local(kp, fold);
        return;
      }
    }
    for_each_owned(arr, sec, rank, [&](i64, i64 la) { fold(la); });
  });
  T out = init;
  for (i64 r = 0; r < exec.ranks(); ++r)
    if (seen[static_cast<std::size_t>(r)]) out = op(out, partial[static_cast<std::size_t>(r)]);
  return out;
}

/// dst(dsec) = src(ssec) in one call. When both arrays share the same
/// mapping and the sections coincide, every element already lives on its
/// destination rank at the same local address, so the copy is purely
/// local — no communication plan at all (the engine's dense-run plans turn
/// it into std::copy_n block runs). Otherwise consults the process-wide
/// plan cache, so repeated copies with the same shape (iterative solvers,
/// shift intrinsics in a sweep loop) build their plan once and replay it.
template <typename T>
void copy_section(const DistributedArray<T>& src, const RegularSection& ssec,
                  DistributedArray<T>& dst, const RegularSection& dsec,
                  const SpmdExecutor& exec) {
  if (src.dist() == dst.dist() && src.alignment() == dst.alignment() &&
      src.size() == dst.size() && ssec == dsec) {
    CYCLICK_REQUIRE(exec.ranks() == dst.dist().procs(), "executor/array rank mismatch");
    if (ssec.empty()) return;
    CYCLICK_COUNT("engine.local_copies", 0, 1);
    exec.run([&](i64 rank) {
      auto out = dst.local(rank);
      auto in = src.local(rank);
      if (dst.packed_layout_or_null(rank) == nullptr) {
        CYCLICK_REQUIRE(section_within(dst, dsec), "section must lie within the array");
        const KernelPlan kp = compile_kernel(owned_plan(dst, dsec, rank));
        if (kp.bulk()) {
          kernel_copy_same(kp, in.data(), out.data());
          return;
        }
      }
      for_each_owned(dst, dsec, rank, [&](i64, i64 la) {
        out[static_cast<std::size_t>(la)] = in[static_cast<std::size_t>(la)];
      });
    });
    return;
  }
  const auto plan = cached_copy_plan(src, ssec, dst, dsec, exec);
  execute_copy_plan(*plan, src, dst, exec);
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
  DistributedArray<T> ta(dst.dist(), dst.size(), dst.alignment());
  DistributedArray<T> tb(dst.dist(), dst.size(), dst.alignment());
  copy_section(a, asec, ta, dsec, exec);
  copy_section(b, bsec, tb, dsec, exec);
  exec.run([&](i64 rank) {
    auto out = dst.local(rank);
    auto la = ta.local(rank);
    auto lb = tb.local(rank);
    for_each_owned(dst, dsec, rank, [&](i64, i64 addr) {
      const auto i = static_cast<std::size_t>(addr);
      out[i] = f(la[i], lb[i]);
    });
  });
}

}  // namespace cyclick
