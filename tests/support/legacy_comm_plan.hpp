// Legacy per-item communication plan: the representation CommPlan
// replaced, one {src_global, dst_local} pair per element with the source
// local address recomputed (a modular solve) on every execution. Kept
// verbatim as the differential-testing oracle (comm_plan_test) and as the
// baseline of the commplan benches; it is not part of the library.
#pragma once

#include <vector>

#include "cyclick/runtime/comm_plan.hpp"

namespace cyclick {

/// Per-element communication plan (the pre-compression representation):
/// one {src_global, dst_local} pair per element, with the source local
/// address recomputed (a modular solve) on every execution.
struct LegacyCommPlan {
  struct Item {
    i64 src_global;  ///< src array index to read
    i64 dst_local;   ///< packed local address on the receiver to write
  };
  i64 ranks = 0;
  std::vector<std::vector<Item>> pairwise;  ///< [receiver * ranks + sender]

  [[nodiscard]] const std::vector<Item>& items(i64 receiver, i64 sender) const {
    return pairwise[static_cast<std::size_t>(receiver * ranks + sender)];
  }
  /// Number of nonempty sender->receiver channels with sender != receiver.
  [[nodiscard]] i64 message_count() const {
    i64 c = 0;
    for (i64 m = 0; m < ranks; ++m)
      for (i64 q = 0; q < ranks; ++q)
        if (q != m && !items(m, q).empty()) ++c;
    return c;
  }
  /// Total elements crossing rank boundaries.
  [[nodiscard]] i64 remote_elements() const {
    i64 c = 0;
    for (i64 m = 0; m < ranks; ++m)
      for (i64 q = 0; q < ranks; ++q)
        if (q != m) c += static_cast<i64>(items(m, q).size());
    return c;
  }
  /// Heap bytes held by the per-item representation.
  [[nodiscard]] std::size_t plan_bytes() const {
    std::size_t bytes = pairwise.capacity() * sizeof(std::vector<Item>);
    for (const auto& v : pairwise) bytes += v.capacity() * sizeof(Item);
    return bytes;
  }
};

/// Build the per-item plan (legacy path: per-element owner_of on the
/// source side).
template <typename T>
LegacyCommPlan build_legacy_copy_plan(const DistributedArray<T>& src,
                                      const RegularSection& ssec, DistributedArray<T>& dst,
                                      const RegularSection& dsec, const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(ssec.size() == dsec.size(), "section size mismatch in copy");
  CYCLICK_REQUIRE(exec.ranks() == dst.dist().procs(), "executor/destination rank mismatch");
  CYCLICK_REQUIRE(exec.ranks() == src.dist().procs(), "executor/source rank mismatch");
  LegacyCommPlan plan;
  plan.ranks = exec.ranks();
  plan.pairwise.resize(static_cast<std::size_t>(plan.ranks * plan.ranks));
  exec.run([&](i64 rank) {
    for_each_owned(dst, dsec, rank, [&](i64 t, i64 la) {
      const i64 g = ssec.element(t);
      const i64 q = src.owner_of(g);
      plan.pairwise[static_cast<std::size_t>(rank * plan.ranks + q)].push_back({g, la});
    });
  });
  return plan;
}

/// Execute a per-item plan (legacy path: a modular local_address solve per
/// element, plus per-call payload allocation).
template <typename T>
void execute_legacy_copy_plan(const LegacyCommPlan& plan, const DistributedArray<T>& src,
                              DistributedArray<T>& dst, const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(plan.ranks == exec.ranks(), "plan built for a different machine");
  const i64 p = plan.ranks;
  std::vector<std::vector<T>> payload(static_cast<std::size_t>(p * p));

  exec.run([&](i64 q) {
    auto local = src.local(q);
    for (i64 m = 0; m < p; ++m) {
      const auto& items = plan.items(m, q);
      auto& buf = payload[static_cast<std::size_t>(m * p + q)];
      buf.reserve(items.size());
      for (const LegacyCommPlan::Item& it : items) {
        CYCLICK_ASSERT(src.owner_of(it.src_global) == q);
        buf.push_back(local[static_cast<std::size_t>(src.local_address(it.src_global))]);
      }
    }
  });

  exec.run([&](i64 m) {
    auto local = dst.local(m);
    for (i64 q = 0; q < p; ++q) {
      const auto& items = plan.items(m, q);
      const auto& buf = payload[static_cast<std::size_t>(m * p + q)];
      for (std::size_t i = 0; i < items.size(); ++i)
        local[static_cast<std::size_t>(items[i].dst_local)] = buf[i];
    }
  });
}

}  // namespace cyclick
