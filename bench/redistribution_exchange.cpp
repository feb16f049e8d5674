// Redistribution-exchange benchmark: the figure-7-shaped sweep over
// (k_src, k_dst) block-size pairs, executed through the redistribution
// layer on two backends per pair:
//
//   inproc  the in-process executor — build the scheduled plan once,
//           execute it repeatedly (warm arena), report best-of-R wall time
//           for both local-copy shapes of the one exchange core: staged
//           through the plan arena (seq_us, what aliased copies run) and
//           fused straight across (pipe_us, every other in-process copy),
//           plus their ratio (speedup) and the fused bytes/s;
//   sim     the discrete-event mesh — replay the plan's wire traffic in
//           rotation order and report the *predicted* phase time and the
//           bytes/s the cost model credits the exchange.
//
// The perf-smoke CI job gates speedup >= 1.5 on the decorrelated
// (1,64)/(64,1) rows: those channels are contiguous on exactly one side,
// so the fused copy halves the four memory passes of the staged
// pack+unpack.
//
// (The proc backend runs the same schedule; its parity is gated by
// net_process_test and the CI example diffs rather than timed here.)
// Every row also carries the schedule's phase count and remote fraction,
// so the table records how the rotation's cost tracks communication
// volume across the redistribution grid.
//
// `--incast` switches to the scheduling study the simulation CI job gates
// on: a full cyclic(1) -> cyclic(p) all-to-all at p = 1024 (override with
// --ranks=N), replayed twice through identical simulated meshes — naive
// posting order (every sender's round-f message targets receiver f: a
// p-way incast per round) versus the rotated schedule (round f is a
// perfect matching). Per-link bytes are identical by construction, so the
// schedules differ exactly in receiver congestion: the naive order's peak
// concurrent in-network messages to one rank must be >= 2x the rotated
// order's, and the process exits nonzero when it is not.
//
// `--csv` prints machine-readable rows; `--json` writes
// BENCH_redistribution_exchange.json for the perf trajectory.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cyclick/runtime/redistribute.hpp"
#include "cyclick/runtime/section_ops.hpp"
#include "cyclick/sim/sim_transport.hpp"

namespace {

using namespace cyclick;
using namespace cyclick::bench;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

int run_sweep(i64 n, i64 p, bool csv, bool json) {
  std::cout << "Redistribution exchange dst(cyclic(k_dst)) <- src(cyclic(k_src)), n=" << n
            << " doubles, p=" << p << "\n\n";

  const SpmdExecutor exec(p);
  const RegularSection whole{0, n - 1, 1};
  const double total_mb = static_cast<double>(n * 8) / (1024.0 * 1024.0);
  const int repeats = 5;

  TextTable table({"k_src", "k_dst", "phases", "messages", "remote_frac", "seq_us",
                   "pipe_us", "speedup", "pipe_MB_per_s", "sim_virtual_us",
                   "sim_MB_per_s"});

  for (const i64 k1 : {1, 2, 3, 5, 7, 64}) {
    DistributedArray<double> src(BlockCyclic(p, k1), n);
    for (const i64 k2 : {1, 2, 3, 5, 7, 64}) {
      DistributedArray<double> dst(BlockCyclic(p, k2), n);
      const RedistributionPlan plan = build_redistribution_plan(src, whole, dst, whole, exec);
      const double frac =
          static_cast<double>(plan.remote_elements()) / static_cast<double>(n);

      const double seq_us = time_best_us(repeats, [&] {
        cyclick::detail::run_machine(plan.comm, src, dst, exec, {.staged = true});
      });
      const double pipe_us = time_best_us(
          repeats, [&] { cyclick::detail::run_machine(plan.comm, src, dst, exec, {}); });

      // Predicted wire time: one fresh mesh per measurement so endpoint
      // and link clocks start at zero.
      sim::SimTransport mesh(p, sim::SimParams{});
      replay_plan_traffic(plan.comm, mesh, ScheduleOrder::kRotated, sizeof(double));
      const double sim_us = static_cast<double>(mesh.virtual_ns()) / 1000.0;
      const double remote_mb = static_cast<double>(plan.remote_elements() * 8) /
                               (1024.0 * 1024.0);

      table.add_row({std::to_string(k1), std::to_string(k2), std::to_string(plan.phases),
                     std::to_string(plan.message_count()), fmt(frac), fmt(seq_us),
                     fmt(pipe_us), fmt(pipe_us > 0.0 ? seq_us / pipe_us : 0.0),
                     fmt(total_mb / (pipe_us / 1e6)),
                     fmt(sim_us),
                     sim_us > 0.0 ? fmt(remote_mb / (sim_us / 1e6)) : "-"});
    }
  }

  emit(table, csv);
  if (json) {
    JsonWriter w("BENCH_redistribution_exchange.json");
    w.add_table("redistribution_exchange", table);
    w.write();
  }
  return 0;
}

int run_incast(i64 p, bool csv, bool json) {
  // Full all-to-all: cyclic(1) -> cyclic(p) with one block round per rank
  // makes every (receiver, sender) channel nonempty.
  const i64 n = p * p;
  std::cout << "Incast study: cyclic(1) -> cyclic(" << p << ") all-to-all, p=" << p
            << ", n=" << n << " doubles, naive vs rotated posting order\n\n";

  const SpmdExecutor exec(p);
  DistributedArray<double> src(BlockCyclic(p, 1), n);
  DistributedArray<double> dst(BlockCyclic(p, p), n);
  const CommPlan plan = build_copy_plan(src, {0, n - 1, 1}, dst, {0, n - 1, 1}, exec);

  TextTable table({"order", "messages", "bytes", "max_in_flight", "link_balance",
                   "virtual_us"});
  i64 naive_peak = 0, rotated_peak = 0;
  for (const auto order : {ScheduleOrder::kNaive, ScheduleOrder::kRotated}) {
    sim::SimTransport mesh(p, sim::SimParams{});
    replay_plan_traffic(plan, mesh, order, sizeof(double));
    const auto rep = mesh.report();
    (order == ScheduleOrder::kNaive ? naive_peak : rotated_peak) = rep.max_in_flight;
    table.add_row({order == ScheduleOrder::kNaive ? "naive" : "rotated",
                   std::to_string(rep.messages), std::to_string(rep.bytes),
                   std::to_string(rep.max_in_flight), fmt(rep.balance()),
                   fmt(static_cast<double>(rep.virtual_ns) / 1000.0)});
  }

  emit(table, csv);
  if (json) {
    JsonWriter w("BENCH_redistribution_exchange.json");
    w.add_table("incast", table);
    w.write();
  }

  const double ratio = rotated_peak > 0
                           ? static_cast<double>(naive_peak) / static_cast<double>(rotated_peak)
                           : 0.0;
  std::cout << "\nincast ratio (naive / rotated peak in-flight): " << fmt(ratio) << "\n";
  if (naive_peak < 2 * rotated_peak) {
    std::cout << "FAIL: rotation did not improve peak receiver congestion >= 2x\n";
    return 1;
  }
  std::cout << "PASS: rotated schedule bounds incast >= 2x better than naive order\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = want_csv(argc, argv);
  const bool json = want_json(argc, argv);
  const obs::CliOptions obs_opt = obs_options(argc, argv);
  bool incast = false;
  i64 n = i64{1} << 16;
  i64 ranks = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--incast") incast = true;
    if (arg.rfind("--ranks=", 0) == 0) ranks = std::atoll(arg.c_str() + 8);
    if (arg.rfind("--n=", 0) == 0) n = std::atoll(arg.c_str() + 4);
  }

  const int rc = incast ? run_incast(ranks > 0 ? ranks : 1024, csv, json)
                        : run_sweep(n, ranks > 0 ? ranks : 32, csv, json);
  emit_obs(obs_opt);
  return rc;
}
