// Tests for the simulated mesh: deterministic event ordering, topology
// parsing and routing, the contention/straggler/incast cost model, plan
// replay parity with the transport-free executor, the SimMachine provider
// hook behind execute_copy_plan (DSL remaps included), and the named
// rejection of unknown backends. The conformance contract (FIFO, blocking
// recv, timeouts) is covered by the backend-parameterized suite in
// transport_test.cpp; this file pins what is *specific* to simulation —
// the predicted timeline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cyclick/compiler/interp.hpp"
#include "cyclick/net/backend.hpp"
#include "cyclick/runtime/redistribute.hpp"
#include "cyclick/runtime/section_ops.hpp"
#include "cyclick/sim/event_heap.hpp"
#include "cyclick/sim/sim_machine.hpp"
#include "cyclick/sim/sim_transport.hpp"
#include "cyclick/sim/topology.hpp"

namespace cyclick::sim {
namespace {

/// Scoped environment override so tests can exercise env parsing without
/// leaking into sibling tests.
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~EnvVar() { ::unsetenv(name_); }
  EnvVar(const EnvVar&) = delete;
  EnvVar& operator=(const EnvVar&) = delete;

 private:
  const char* name_;
};

TEST(EventHeap, PopsByTimeThenSchedulingOrder) {
  EventHeap heap;
  // Shuffled insert order; two pairs tie on time and must resolve by seq.
  heap.push(Event{30, 4, Event::Kind::kArrive, 0, 1, 0});
  heap.push(Event{10, 2, Event::Kind::kDepart, 0, 1, 0});
  heap.push(Event{20, 3, Event::Kind::kDepart, 1, 2, 1});
  heap.push(Event{10, 0, Event::Kind::kDepart, 2, 0, 2});
  heap.push(Event{10, 1, Event::Kind::kDepart, 1, 0, 3});
  ASSERT_EQ(heap.size(), 5);
  EXPECT_EQ(heap.top().seq, 0);

  std::vector<std::pair<i64, i64>> order;
  while (!heap.empty()) {
    const Event e = heap.pop();
    order.emplace_back(e.time_ns, e.seq);
  }
  const std::vector<std::pair<i64, i64>> want{
      {10, 0}, {10, 1}, {10, 2}, {20, 3}, {30, 4}};
  EXPECT_EQ(order, want);
}

TEST(Topology, NamesRoundTripAndUnknownIsRejected) {
  for (const Topology t : {Topology::kFull, Topology::kRing, Topology::kMesh2D}) {
    const auto parsed = parse_topology_name(topology_name(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(parse_topology_name("torus").has_value());
  EXPECT_FALSE(parse_topology_name("").has_value());
  EXPECT_FALSE(parse_topology_name("Full").has_value());  // case-sensitive
}

TEST(Topology, StragglerSpecParsesAndRejectsMalformedEntries) {
  const auto one = parse_straggler_spec("3:4");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].first, 3);
  EXPECT_DOUBLE_EQ(one[0].second, 4.0);

  const auto many = parse_straggler_spec("0:2.5,17:4");
  ASSERT_EQ(many.size(), 2u);
  EXPECT_EQ(many[1].first, 17);
  EXPECT_DOUBLE_EQ(many[0].second, 2.5);

  EXPECT_THROW((void)parse_straggler_spec("3"), precondition_error);
  EXPECT_THROW((void)parse_straggler_spec(":4"), precondition_error);
  EXPECT_THROW((void)parse_straggler_spec("3:"), precondition_error);
  EXPECT_THROW((void)parse_straggler_spec("3:0"), precondition_error);   // not positive
  EXPECT_THROW((void)parse_straggler_spec("-1:2"), precondition_error);  // negative rank
  EXPECT_THROW((void)parse_straggler_spec("a:2"), precondition_error);
}

TEST(Topology, ParamsComeFromTheEnvironment) {
  const EnvVar topo("CYCLICK_SIM_TOPOLOGY", "ring");
  const EnvVar lat("CYCLICK_SIM_LINK_LATENCY_NS", "250");
  const EnvVar strag("CYCLICK_SIM_STRAGGLER", "5:3");
  const SimParams p = SimParams::from_env();
  EXPECT_EQ(p.topology, Topology::kRing);
  EXPECT_EQ(p.link_latency_ns, 250);
  ASSERT_EQ(p.stragglers.size(), 1u);
  EXPECT_DOUBLE_EQ(p.straggler_multiplier(5), 3.0);
  EXPECT_DOUBLE_EQ(p.straggler_multiplier(4), 1.0);
}

TEST(Topology, MalformedEnvironmentIsRejectedNotDefaulted) {
  {
    const EnvVar topo("CYCLICK_SIM_TOPOLOGY", "torus");
    EXPECT_THROW((void)SimParams::from_env(), precondition_error);
  }
  {
    const EnvVar gbps("CYCLICK_SIM_LINK_GBPS", "-3");
    EXPECT_THROW((void)SimParams::from_env(), precondition_error);
  }
}

TEST(Topology, FullMeshUsesOneDedicatedLinkPerPair) {
  const Mesh mesh(Topology::kFull, 4);
  EXPECT_EQ(mesh.hop_count(0, 3), 1);
  EXPECT_EQ(mesh.hop_count(2, 2), 0);  // loopback bypasses the network
  std::vector<i64> links;
  mesh.route(1, 2, [&](i64 id) { links.push_back(id); });
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(mesh.link_name(links[0]), "1->2");
}

TEST(Topology, RingRoutesTheShorterArc) {
  const Mesh mesh(Topology::kRing, 8);
  EXPECT_EQ(mesh.hop_count(1, 3), 2);  // forward
  EXPECT_EQ(mesh.hop_count(0, 6), 2);  // backward is shorter
  EXPECT_EQ(mesh.hop_count(0, 4), 4);  // tie goes clockwise
  std::vector<std::string> names;
  mesh.route(0, 4, [&](i64 id) { names.push_back(mesh.link_name(id)); });
  const std::vector<std::string> want{"0->1", "1->2", "2->3", "3->4"};
  EXPECT_EQ(names, want);
  names.clear();
  mesh.route(0, 6, [&](i64 id) { names.push_back(mesh.link_name(id)); });
  const std::vector<std::string> back{"0->7", "7->6"};
  EXPECT_EQ(names, back);
}

TEST(Topology, Mesh2DFactorsMostSquareAndRoutesDimensionOrdered) {
  EXPECT_EQ(Mesh(Topology::kMesh2D, 16).rows(), 4);
  EXPECT_EQ(Mesh(Topology::kMesh2D, 16).cols(), 4);
  EXPECT_EQ(Mesh(Topology::kMesh2D, 12).rows(), 3);
  EXPECT_EQ(Mesh(Topology::kMesh2D, 12).cols(), 4);
  EXPECT_EQ(Mesh(Topology::kMesh2D, 7).rows(), 1);  // prime degenerates to a line
  EXPECT_EQ(Mesh(Topology::kMesh2D, 7).cols(), 7);

  // 3x4 grid: 0 sits at (0,0), 11 at (2,3); X moves first, then Y.
  const Mesh mesh(Topology::kMesh2D, 12);
  EXPECT_EQ(mesh.hop_count(0, 11), 5);  // manhattan distance
  std::vector<std::string> names;
  mesh.route(0, 11, [&](i64 id) { names.push_back(mesh.link_name(id)); });
  const std::vector<std::string> want{"0->1", "1->2", "2->3", "3->7", "7->11"};
  EXPECT_EQ(names, want);
}

/// One strided redistribution plan driven through a fresh SimTransport;
/// returns the transport's aggregate prediction.
SimTransport::Report replay_plan(i64 p, const SimParams& params) {
  const SpmdExecutor exec(p);
  DistributedArray<double> src(BlockCyclic(p, 4), p * 40);
  DistributedArray<double> dst(BlockCyclic(p, 7), p * 61);
  std::vector<double> image(static_cast<std::size_t>(p * 40));
  std::iota(image.begin(), image.end(), 0.0);
  src.scatter(image);
  const RegularSection ssec{0, p * 40 - 1, 2};
  const RegularSection dsec{0, (p * 40 - 2) / 2 * 3, 3};
  const CommPlan plan = build_copy_plan(src, ssec, dst, dsec, exec);
  SimTransport transport(p, params);
  execute_copy_plan_over(plan, src, dst, exec, transport);
  return transport.report();
}

TEST(SimTransport, PredictedScheduleIsDeterministicRunToRun) {
  // Same plan, same knobs, sequential drive: the predicted timeline must
  // be bit-identical, not merely close.
  const SimParams params;
  const auto a = replay_plan(16, params);
  const auto b = replay_plan(16, params);
  EXPECT_EQ(a.virtual_ns, b.virtual_ns);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.links_used, b.links_used);
  EXPECT_EQ(a.link_bytes_max, b.link_bytes_max);
  EXPECT_EQ(a.max_in_flight, b.max_in_flight);
  EXPECT_EQ(a.max_in_flight_rank, b.max_in_flight_rank);
  ASSERT_EQ(a.hottest.size(), b.hottest.size());
  for (std::size_t i = 0; i < a.hottest.size(); ++i) {
    EXPECT_EQ(a.hottest[i].id, b.hottest[i].id);
    EXPECT_EQ(a.hottest[i].busy_ns, b.hottest[i].busy_ns);
  }
}

TEST(SimTransport, PlanReplayMatchesTransportFreeExecution) {
  const i64 p = 64;
  const SpmdExecutor exec(p);
  DistributedArray<double> src(BlockCyclic(p, 4), 2000);
  DistributedArray<double> want(BlockCyclic(p, 7), 3000);
  DistributedArray<double> got(BlockCyclic(p, 7), 3000);
  std::vector<double> image(2000);
  std::iota(image.begin(), image.end(), 1.0);
  src.scatter(image);
  const RegularSection ssec{0, 1999, 2};
  const RegularSection dsec{0, 2997, 3};
  const CommPlan plan = build_copy_plan(src, ssec, want, dsec, exec);
  execute_copy_plan(plan, src, want, exec);

  SimTransport transport(p);
  execute_copy_plan_over(plan, src, got, exec, transport);
  EXPECT_EQ(got.gather(), want.gather());

  const auto rep = transport.report();
  EXPECT_GT(rep.messages, 0);
  EXPECT_GT(rep.virtual_ns, 0);
  EXPECT_GT(rep.links_used, 0);
  EXPECT_GE(rep.balance(), 1.0);  // max/mean is 1 at perfect balance
  EXPECT_GT(rep.utilization_max, 0.0);
}

TEST(SimTransport, RingCostsMoreThanTheCrossbarForTheSameTraffic) {
  SimParams full;
  SimParams ring;
  ring.topology = Topology::kRing;
  // Distant ranks on the ring pay per-hop latency and share links; the
  // crossbar pays one hop on a private link.
  EXPECT_GT(replay_plan(16, ring).virtual_ns, replay_plan(16, full).virtual_ns);
}

TEST(SimTransport, StragglerInjectionLengthensThePredictedPhase) {
  SimParams slow;
  slow.stragglers = {{0, 4.0}};
  EXPECT_GT(replay_plan(16, slow).virtual_ns, replay_plan(16, SimParams{}).virtual_ns);
}

TEST(SimTransport, IncastHighWaterTracksFanIn) {
  const i64 p = 9;
  SimTransport tr(p);
  const std::vector<std::byte> payload(64);
  for (i64 from = 1; from < p; ++from) tr.send(from, 0, payload);
  for (i64 from = 1; from < p; ++from) (void)tr.recv(0, from);
  const auto rep = tr.report();
  // All eight departures precede the first serialized arrival at rank 0's
  // endpoint, so the in-network high-water mark is the full fan-in.
  EXPECT_EQ(rep.max_in_flight, 8);
  EXPECT_EQ(rep.max_in_flight_rank, 0);
  EXPECT_EQ(rep.messages, 8);
  EXPECT_EQ(rep.self_messages, 0);
}

TEST(SimTransport, SelfSendsBypassTheNetwork) {
  SimTransport tr(4);
  tr.send(2, 2, std::vector<std::byte>(32));
  (void)tr.recv(2, 2);
  const auto rep = tr.report();
  EXPECT_EQ(rep.self_messages, 1);
  EXPECT_EQ(rep.links_used, 0);
  EXPECT_GT(rep.virtual_ns, 0);  // endpoint costs are still paid
}

TEST(SimMachine, ProvidesTransportsToExecuteCopyPlan) {
  const i64 p = 8;
  const SpmdExecutor exec(p);
  DistributedArray<double> src(BlockCyclic(p, 3), 200);
  DistributedArray<double> want(BlockCyclic(p, 5), 320);
  DistributedArray<double> got(BlockCyclic(p, 5), 320);
  std::vector<double> image(200);
  std::iota(image.begin(), image.end(), 0.0);
  src.scatter(image);
  const RegularSection ssec{0, 199, 2};
  const RegularSection dsec{10, 307, 3};
  const CommPlan plan = build_copy_plan(src, ssec, want, dsec, exec);
  execute_copy_plan(plan, src, want, exec);  // no provider installed: direct

  SimMachine machine{SimParams{}};
  EXPECT_EQ(machine.transport_or_null(p), nullptr);
  {
    const SimMachine::Scope scope(machine);
    execute_copy_plan(plan, src, got, exec);  // routed through the provider
  }
  EXPECT_EQ(got.gather(), want.gather());

  SimTransport* tr = machine.transport_or_null(p);
  ASSERT_NE(tr, nullptr);
  EXPECT_GT(tr->report().messages, 0);
  EXPECT_EQ(machine.worlds(), std::vector<i64>{p});
}

TEST(SimMachine, DslRedistributeCrossesTheSimulatedMesh) {
  // A DSL `redistribute` runs its plan through the executor, so under a
  // SimMachine each remap sends exactly its plan's messages over the
  // simulated mesh, and the remapped images equal the in-process run's.
  // W is redistribution.hpf's cyclic -> block remap; V is aligned T(2*i+1).
  const std::string prologue = R"(
processors P(8)
template T(1024)
distribute T onto P cyclic
array W(1024) align with T(i)
array V(500) align with T(2*i+1)
forall (i = 0:1023) W(i) = i
forall (i = 0:499) V(i) = 3 * i + 1
)";
  const SpmdExecutor exec(8);
  const auto remap_messages = [&](const dsl::Machine& m, const std::string& name) {
    const DistributedArray<double>& old = m.array(name);
    DistributedArray<double> fresh(BlockCyclic::block(old.size(), 8), old.size());
    const RegularSection whole{0, old.size() - 1, 1};
    return build_redistribution_plan(old, whole, fresh, whole, exec).message_count();
  };

  dsl::Machine inproc;
  inproc.run_source(prologue + "redistribute W onto P block\nredistribute V onto P block\n");

  SimMachine sim_machine{SimParams{}};
  const SimMachine::Scope scope(sim_machine);
  dsl::Machine machine;
  machine.run_source(prologue);
  const auto sent = [&] {
    SimTransport* tr = sim_machine.transport_or_null(8);
    return tr == nullptr ? i64{0} : tr->report().messages;
  };
  for (const std::string name : {"W", "V"}) {
    SCOPED_TRACE(name);
    const i64 want = remap_messages(machine, name);
    EXPECT_GT(want, 0);
    const i64 before = sent();
    machine.run_source("redistribute " + name + " onto P block\n");
    EXPECT_EQ(sent() - before, want);
    EXPECT_EQ(machine.array(name).dist(), BlockCyclic::block(machine.array(name).size(), 8));
    EXPECT_EQ(machine.global_image(name), inproc.global_image(name));
  }
}

TEST(SimMachine, NestedScopesAreRejected) {
  SimMachine outer{SimParams{}};
  SimMachine inner{SimParams{}};
  const SimMachine::Scope scope(outer);
  EXPECT_THROW(SimMachine::Scope{inner}, precondition_error);
}

TEST(BackendSelection, SimParsesAndUnknownNamesListTheValidBackends) {
  EXPECT_EQ(net::parse_backend_name("sim"), net::Backend::kSim);
  EXPECT_EQ(std::string(net::backend_name(net::Backend::kSim)), "sim");

  net::Backend out = net::Backend::kInProc;
  EXPECT_TRUE(net::parse_backend_flag("--backend=sim", out));
  EXPECT_EQ(out, net::Backend::kSim);
  EXPECT_FALSE(net::parse_backend_flag("--ranks=4", out));
  try {
    (void)net::parse_backend_flag("--backend=bogus", out);
    FAIL() << "unknown backend should be rejected";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("valid backends are: inproc, proc, sim"), std::string::npos)
        << what;
  }
}

TEST(BackendSelection, InvalidEnvironmentIsRejectedNotDefaulted) {
  {
    const EnvVar env("CYCLICK_BACKEND", "sim");
    EXPECT_EQ(net::backend_from_env(net::Backend::kInProc), net::Backend::kSim);
  }
  {
    const EnvVar env("CYCLICK_BACKEND", "typo");
    try {
      (void)net::backend_from_env(net::Backend::kInProc);
      FAIL() << "invalid CYCLICK_BACKEND should be rejected";
    } catch (const precondition_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("CYCLICK_BACKEND"), std::string::npos) << what;
      EXPECT_NE(what.find("valid backends are"), std::string::npos) << what;
    }
  }
  EXPECT_EQ(net::backend_from_env(net::Backend::kProc), net::Backend::kProc);
}

}  // namespace
}  // namespace cyclick::sim
