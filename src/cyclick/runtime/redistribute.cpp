#include "cyclick/runtime/redistribute.hpp"

#include <string>

namespace cyclick {

namespace detail {

void throw_payload_size_mismatch(i64 from, i64 to, i64 phase, std::size_t got,
                                 std::size_t want) {
  throw precondition_error("received payload size disagrees with the plan on channel " +
                           std::to_string(from) + "->" + std::to_string(to) + " (phase " +
                           std::to_string(phase) + "): " + std::to_string(got) +
                           " bytes, expected " + std::to_string(want));
}

}  // namespace detail

i64 schedule_phase_count(const CommPlan& plan) {
  const i64 p = plan.ranks;
  i64 phases = 0;
  for (i64 f = 0; f < p; ++f) {
    for (i64 q = 0; q < p; ++q) {
      if (plan.channel(redist_peer_to(q, f, p), q).count > 0) {
        ++phases;
        break;
      }
    }
  }
  return phases;
}

RedistributionPlan finish_redistribution_plan(CommPlan&& comm, i64 dims) {
  RedistributionPlan plan;
  plan.comm = std::move(comm);
  plan.dims = dims;
  plan.phases = schedule_phase_count(plan.comm);
  return plan;
}

void replay_plan_traffic(const CommPlan& plan, Transport& transport, ScheduleOrder order,
                         i64 elem_bytes) {
  CYCLICK_REQUIRE(transport.ranks() == plan.ranks, "transport/plan rank mismatch");
  CYCLICK_REQUIRE(elem_bytes >= 1, "element size must be positive");
  const i64 p = plan.ranks;
  // Sends first (they never block), posted phase-major: round f is every
  // sender's f-th departure, which is how the lock-step SPMD machine hits
  // the wire. Who each sender targets in round f is the whole experiment —
  // everyone walking receivers 0, 1, 2, ... (naive, so round f is a p-way
  // incast into receiver f) versus the rotation's perfect matching.
  for (i64 f = 0; f < p; ++f) {
    CYCLICK_SPAN("redist.phase", f);
    for (i64 q = 0; q < p; ++q) {
      const i64 m = order == ScheduleOrder::kRotated ? redist_peer_to(q, f, p) : f;
      if (m == q) continue;
      const CommPlan::Channel& ch = plan.channel(m, q);
      if (ch.count == 0) continue;
      transport.send(q, m,
                     std::vector<std::byte>(
                         static_cast<std::size_t>(ch.count) * static_cast<std::size_t>(
                                                                  elem_bytes)));
    }
  }
  // Drain everything so the transport's clock/report covers all deliveries.
  for (i64 m = 0; m < p; ++m) {
    for (i64 f = 0; f < p; ++f) {
      const i64 q = order == ScheduleOrder::kRotated ? redist_peer_from(m, f, p) : f;
      if (q == m) continue;
      if (plan.channel(m, q).count == 0) continue;
      (void)transport.recv(m, q);
    }
  }
}

}  // namespace cyclick
