// Index-free symmetric copy: the Chatterjee-style communication-set
// protocol, in which no index metadata crosses ranks. It builds no
// CommPlan (no channel descriptors, no pack/unpack kernels) and touches no
// Transport, so it is kept as the independent oracle that the section-copy
// parity tests compare the plan executor against; it is not part of the
// library.
#pragma once

#include <vector>

#include "cyclick/runtime/comm_plan.hpp"
#include "cyclick/runtime/spmd.hpp"

namespace cyclick {

/// Index-free redistribution: dst(dsec) = src(ssec) where *no index
/// metadata crosses ranks* — the communication-set property of Chatterjee
/// et al. Both sides enumerate the section positions t they own in
/// ascending t order (the access-sequence machinery makes this O(1) per
/// element); the sender appends values to per-receiver buffers in that
/// order, and the receiver pops values from per-sender buffers in the same
/// order, so the value streams line up with no (t, address) pairs sent.
template <typename T>
void symmetric_copy_section(const DistributedArray<T>& src, const RegularSection& ssec,
                            DistributedArray<T>& dst, const RegularSection& dsec,
                            const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(ssec.size() == dsec.size(), "section size mismatch in copy");
  CYCLICK_REQUIRE(exec.ranks() == dst.dist().procs(), "executor/destination rank mismatch");
  CYCLICK_REQUIRE(exec.ranks() == src.dist().procs(), "executor/source rank mismatch");
  const i64 p = exec.ranks();

  // Enumerate, in ascending t order, the (t, local address) pairs a rank
  // owns for a section of `arr`. A plan over the *unreversed* alignment
  // image traverses the section positions 0, 1, 2, ... directly (the image
  // element at position t is the section element at position t, and the
  // engine walks descending images backwards), so no buffering or reversal
  // is needed.
  const auto for_each_owned_t = [](const DistributedArray<T>& arr, const RegularSection& sec,
                                   i64 rank, auto&& body) {
    if (sec.empty()) return;
    CYCLICK_REQUIRE(sec.lower >= 0 && sec.lower < arr.size() && sec.last() >= 0 &&
                        sec.last() < arr.size(),
                    "section must lie within the array");
    const AffineAlignment& al = arr.alignment();
    const PackedLayout* layout = arr.packed_layout_or_null(rank);
    const SectionPlan plan = AddressEngine::global().plan(arr.dist(), al.image(sec), rank);
    plan.for_each([&](i64 cell, i64 la) {
      const auto idx = al.index_of_cell(cell);
      CYCLICK_ASSERT(idx.has_value());
      const i64 t = (*idx - sec.lower) / sec.stride;
      body(t, layout ? layout->rank(cell) : la);
    });
  };

  // Phase 1: every sender q walks its source elements in t order and
  // appends the *value only* to the buffer of the receiving rank. The
  // destination owner comes from an owner cursor seeked to each t, and a
  // first counting pass sizes every per-receiver
  // buffer exactly before the fill — no push_back growth reallocations.
  std::vector<std::vector<T>> wire(static_cast<std::size_t>(p * p));  // [m*p + q]
  exec.run([&](i64 q) {
    auto local = src.local(q);
    OwnerCursor dst_owner(dst, dsec);
    std::vector<i64> counts(static_cast<std::size_t>(p), 0);
    for_each_owned_t(src, ssec, q, [&](i64 t, i64) {
      dst_owner.seek(t);
      ++counts[static_cast<std::size_t>(dst_owner.owner())];
    });
    for (i64 m = 0; m < p; ++m)
      if (counts[static_cast<std::size_t>(m)] > 0)
        wire[static_cast<std::size_t>(m * p + q)].reserve(
            static_cast<std::size_t>(counts[static_cast<std::size_t>(m)]));
    for_each_owned_t(src, ssec, q, [&](i64 t, i64 la) {
      dst_owner.seek(t);
      const i64 m = dst_owner.owner();
      wire[static_cast<std::size_t>(m * p + q)].push_back(
          local[static_cast<std::size_t>(la)]);
    });
  });

  // Phase 2: every receiver m walks its destination elements in t order,
  // derives the sender, and consumes that sender's stream in order.
  exec.run([&](i64 m) {
    auto local = dst.local(m);
    OwnerCursor src_owner(src, ssec);
    std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
    for_each_owned_t(dst, dsec, m, [&](i64 t, i64 la) {
      src_owner.seek(t);
      const i64 q = src_owner.owner();
      auto& stream = wire[static_cast<std::size_t>(m * p + q)];
      auto& pos = cursor[static_cast<std::size_t>(q)];
      CYCLICK_ASSERT(pos < stream.size());
      local[static_cast<std::size_t>(la)] = stream[pos++];
    });
    // Every received value must be consumed — the two sides enumerated the
    // same element sets.
    for (i64 q = 0; q < p; ++q)
      CYCLICK_ASSERT(cursor[static_cast<std::size_t>(q)] ==
                     wire[static_cast<std::size_t>(m * p + q)].size());
  });
}

}  // namespace cyclick
