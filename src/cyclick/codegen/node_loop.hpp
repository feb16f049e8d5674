// High-level per-processor traversal driver: combines the table (or
// table-free) machinery with bounds handling, hiding the choice of node-code
// shape from the runtime. This is the "compiler-emitted loop" a downstream
// HPF-like system would generate around a statement body. All entry points
// route through the AddressEngine so strategy selection (dense runs, fixed
// step, nav tables) happens in one place.
#pragma once

#include <span>
#include <utility>

#include "cyclick/codegen/nodecode.hpp"
#include "cyclick/core/engine.hpp"
#include "cyclick/core/iterator.hpp"
#include "cyclick/core/kernels.hpp"
#include "cyclick/hpf/distribution.hpp"
#include "cyclick/hpf/section.hpp"

namespace cyclick {

/// Visit every on-`proc` element of the bounded section, in traversal order
/// (descending for negative strides), via the engine's classified plan.
/// The body receives (global index, local address).
template <typename Body>
i64 for_each_local_access(const BlockCyclic& dist, const RegularSection& sec, i64 proc,
                          Body&& body) {
  return AddressEngine::global().plan(dist, sec, proc).for_each(std::forward<Body>(body));
}

/// Table-free node code (the fifth shape, Section 6.2): traverse local
/// memory using only the R/L state machine — no AM table, no offset tables.
/// `last` is the local address of the last in-bounds access.
template <typename T, typename Body>
i64 run_table_free(const BlockCyclic& dist, i64 lower, i64 stride, i64 proc,
                   std::span<T> local, i64 last, Body&& body) {
  i64 count = 0;
  for (LocalAccessIterator it = LocalAccessIterator(dist, lower, stride, proc);
       !it.done() && it.local() <= last; it.advance()) {
    body(local[static_cast<std::size_t>(it.local())]);
    ++count;
  }
  return count;
}

/// Visit every on-`proc` element of the bounded *ascending* section through
/// the AM table and a node-code shape, applying `body(local_element_ref)`.
/// This is the exact structure the Table-2 benchmark measures.
template <typename T, typename Body>
i64 run_section_node_code(CodeShape shape, const BlockCyclic& dist, const RegularSection& sec,
                          i64 proc, std::span<T> local, Body&& body) {
  CYCLICK_REQUIRE(sec.stride > 0, "node-code shapes run over ascending sections");
  if (sec.empty()) return 0;
  const SectionPlan plan = AddressEngine::global().plan(dist, sec, proc);
  if (plan.empty()) return 0;
  const AccessPattern pattern = plan.make_pattern();
  CYCLICK_ASSERT(!pattern.empty());
  OffsetTables tables;
  if (shape == CodeShape::kOffsetIndexed) tables = plan.offset_tables();
  return run_node_code(shape, local, pattern, tables, plan.last_local(),
                       std::forward<Body>(body));
}

/// Strategy-directed local traversal: let the engine's classification pick
/// the loop shape — tight contiguous run loops (std::fill-style) when the
/// plan is dense, the generic enumeration otherwise. Returns the visit
/// count. The body receives `local_element_ref`.
template <typename T, typename Body>
i64 run_section_auto(const BlockCyclic& dist, const RegularSection& sec, i64 proc,
                     std::span<T> local, Body&& body) {
  const SectionPlan plan = AddressEngine::global().plan(dist, sec, proc);
  if (plan.empty()) return 0;
  // Kernels visit local addresses in ascending order; descending sections
  // keep traversal order unless the class is run-copy (whose old contiguous
  // fast path already ran runs low-to-high).
  const KernelPlan kp = compile_kernel(plan);
  if (kp.bulk() && (sec.stride > 0 || kp.cls() == AccessClass::kRuns)) {
    kernel_for_each_local(kp, [&](i64 la) { body(local[static_cast<std::size_t>(la)]); });
    return kp.count();
  }
  if (plan.contiguous()) {
    return plan.for_each_run([&](i64, i64 la, i64 len) {
      T* cell = local.data() + la;
      for (i64 i = 0; i < len; ++i) body(cell[i]);
    });
  }
  return plan.for_each(
      [&](i64, i64 la) { body(local[static_cast<std::size_t>(la)]); });
}

}  // namespace cyclick
