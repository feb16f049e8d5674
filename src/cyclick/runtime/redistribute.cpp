#include "cyclick/runtime/redistribute.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

namespace cyclick {

namespace {

/// Per-phase cost predictions for the adaptive pipeline window. The
/// runtime layer cannot depend on sim/, so these mirror the sim cost
/// model's environment knobs (CYCLICK_SIM_LINK_*, CYCLICK_SIM_HOST_* —
/// see sim/topology.hpp) with identical defaults: the window the real
/// executors run with is the one the simulated mesh predicts.
struct PipeCostModel {
  double link_latency_ns = 1000.0;
  double link_bytes_per_ns = 10.0;
  double host_overhead_ns = 500.0;
  double host_bytes_per_ns = 20.0;

  [[nodiscard]] static PipeCostModel from_env() {
    PipeCostModel m;
    const auto knob = [](const char* name, double fallback) {
      const char* env = std::getenv(name);
      if (env == nullptr || *env == '\0') return fallback;
      const double v = std::atof(env);
      return v > 0.0 ? v : fallback;
    };
    m.link_latency_ns = knob("CYCLICK_SIM_LINK_LATENCY_NS", m.link_latency_ns);
    m.link_bytes_per_ns = knob("CYCLICK_SIM_LINK_GBPS", m.link_bytes_per_ns);
    m.host_overhead_ns = knob("CYCLICK_SIM_HOST_OVERHEAD_NS", m.host_overhead_ns);
    m.host_bytes_per_ns = knob("CYCLICK_SIM_HOST_GBPS", m.host_bytes_per_ns);
    return m;
  }
};

/// CYCLICK_REDIST_WINDOW as written: -1 when unset (adaptive), else the
/// requested depth.
i64 redist_window_from_env() {
  const char* env = std::getenv("CYCLICK_REDIST_WINDOW");
  if (env == nullptr || *env == '\0') return -1;
  const i64 v = static_cast<i64>(std::atoll(env));
  return v < 0 ? -1 : v;
}

}  // namespace

i64 adaptive_redist_window(const CommPlan& plan, i64 elem_bytes) {
  // The pipeline hides one phase's wire time behind packing/unpacking
  // work, so the useful depth is how many phases the sender can prepare
  // while the dominant message is in flight: W = 1 + wire/pack, clamped
  // to [2, 8]. All quantities come from the sim's cost model over the
  // plan's largest remote channel (its per-phase matchings carry at most
  // one message per receiver, so the largest channel is the per-phase
  // critical path).
  const i64 bytes = plan.max_channel_elements() * elem_bytes;
  if (bytes <= 0) return 2;
  const PipeCostModel m = PipeCostModel::from_env();
  const double wire_ns = 2.0 * m.host_overhead_ns +
                         static_cast<double>(bytes) / m.link_bytes_per_ns +
                         m.link_latency_ns;
  const double pack_ns =
      std::max(static_cast<double>(bytes) / m.host_bytes_per_ns, 1.0);
  const double w = 1.0 + std::ceil(wire_ns / pack_ns);
  return std::clamp<i64>(static_cast<i64>(w), 2, 8);
}

i64 resolve_redist_window(const CommPlan& plan, i64 elem_bytes) {
  const i64 env = redist_window_from_env();
  const i64 w = env >= 0 ? env : adaptive_redist_window(plan, elem_bytes);
  // The credit limit is the hard cap: incast protection from the phase
  // rotation assumes a bounded number of pre-posted receives per rank.
  return std::clamp<i64>(w, 1, transport_credits_from_env());
}

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
