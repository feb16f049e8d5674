// amtool — command-line inspector for cyclic(k) memory access sequences.
//
// Subcommands:
//   amtool table  -p P -k K -s S [-l L] [-m M]   AM gap table(s)
//   amtool basis  -p P -k K -s S                 R/L and canonical lattice basis
//   amtool walk   -p P -k K -s S -u U [-l L] [-m M]   list accesses (global->local)
//   amtool owners -p P -k K -s S -u U [-l L]     per-processor element counts
//   amtool layout -p P -k K -s S -u U [-l L] [-m M]   Figure 1/2/6 style rendering
//   amtool stats  -p P -k K -s S [-l L]          gap histogram + Theorem-3 summary
//   amtool xfer   -p P -k K -s S -u U [-l L] [-d DK]   build and execute the
//                 redistribution dst(0:|sec|-1) = src(sec) from cyclic(K) to
//                 cyclic(DK) over the selected backend, verifying the result
//                 against the transport-free executor
//   amtool simulate -p P -k K -s S -u U [-l L] [-d DK] [--topology=T]
//                 [--straggler=R:M,..] [--top=N]   replay the same
//                 redistribution plan through the discrete-event simulated
//                 mesh: predicted phase time, per-link utilization, plan
//                 balance (max/mean per-link bytes), incast high-water and
//                 the top-N hottest links. p can be thousands of virtual
//                 ranks; the run is single-process and deterministic.
//
// Unknown subcommands are rejected by name with the valid list (same
// discipline as unknown --backend values).
//
// All subcommands accept any subset of processors via -m (default: all),
// plus --strategy (print the AddressEngine dispatch class for (p, k, s),
// followed by the bytecode listing of a representative fused statement over
// that distribution — suppressed under --tier=interp),
// --tier=interp|bytecode (CYCLICK_TIER supplies the default),
// --backend=inproc|proc|sim (xfer's execution backend; CYCLICK_BACKEND
// supplies the default; unknown names are rejected with the valid list),
// --metrics[=json] (telemetry report on stderr) and --trace=FILE.json
// (chrome://tracing export). `simulate` additionally honours the
// CYCLICK_SIM_* environment knobs; --topology/--straggler override them.
#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <map>
#include <vector>

#include "cyclick/codegen/node_loop.hpp"
#include "cyclick/compiler/interp.hpp"
#include "cyclick/core/engine.hpp"
#include "cyclick/core/lattice_addresser.hpp"
#include "cyclick/hpf/layout_render.hpp"
#include "cyclick/lattice/lattice.hpp"
#include "cyclick/net/backend.hpp"
#include "cyclick/net/launcher.hpp"
#include "cyclick/net/socket_transport.hpp"
#include "cyclick/obs/report.hpp"
#include "cyclick/runtime/redistribute.hpp"
#include "cyclick/sim/sim_transport.hpp"

namespace {

using namespace cyclick;

struct Options {
  i64 p = 4, k = 8, s = 9, l = 0;
  std::optional<i64> u;
  std::optional<i64> m;
  std::optional<i64> d;  ///< xfer: destination block size (default k)
};

constexpr const char* kSubcommands =
    "table, basis, walk, owners, layout, stats, xfer, simulate";

[[noreturn]] void usage() {
  std::cerr <<
      "usage: amtool <table|basis|walk|owners|layout|stats|xfer|simulate>\n"
      "              -p <procs> -k <block> -s <stride>\n"
      "              [-l <lower>] [-u <upper>] [-m <proc>] [-d <dst block>]\n"
      "              [--strategy] [--tier=interp|bytecode] [--backend=inproc|proc|sim]\n"
      "              [--topology=full|ring|mesh2d] [--straggler=rank:mult,..] [--top=N]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) usage();
    const std::string flag = argv[i];
    const i64 value = std::atoll(argv[i + 1]);
    if (flag == "-p") opt.p = value;
    else if (flag == "-k") opt.k = value;
    else if (flag == "-s") opt.s = value;
    else if (flag == "-l") opt.l = value;
    else if (flag == "-u") opt.u = value;
    else if (flag == "-m") opt.m = value;
    else if (flag == "-d") opt.d = value;
    else usage();
  }
  return opt;
}

void print_pattern(const BlockCyclic& dist, const Options& opt, i64 m) {
  const AccessPattern pat = compute_access_pattern_signed(dist, opt.l, opt.s, m);
  std::cout << "proc " << m << ": ";
  if (pat.empty()) {
    std::cout << "no elements\n";
    return;
  }
  std::cout << "start A(" << pat.start_global << ") local " << pat.start_local
            << ", period " << pat.length << ", AM = [";
  for (std::size_t i = 0; i < pat.gaps.size(); ++i)
    std::cout << (i ? ", " : "") << pat.gaps[i];
  std::cout << "]\n";
}

int cmd_table(const BlockCyclic& dist, const Options& opt) {
  if (opt.m) {
    print_pattern(dist, opt, *opt.m);
  } else {
    for (i64 m = 0; m < opt.p; ++m) print_pattern(dist, opt, m);
  }
  return 0;
}

int cmd_basis(const BlockCyclic& dist, const Options& opt) {
  CYCLICK_REQUIRE(opt.s > 0, "basis requires a positive stride");
  const SectionLattice lattice(dist.row_length(), opt.s);
  const auto [c1, c2] = lattice.canonical_basis();
  std::cout << "section lattice: pk*a + b = i*s with pk = " << dist.row_length()
            << ", s = " << opt.s << ", gcd = " << gcd_i64(opt.s, dist.row_length()) << "\n"
            << "canonical basis: (" << c1.v.b << ", " << c1.v.a << ") index " << c1.index
            << ";  (" << c2.v.b << ", " << c2.v.a << ") index " << c2.index << "\n";
  if (const auto rl = select_rl_basis(opt.p, opt.k, opt.s)) {
    std::cout << "R = (" << rl->r.v.b << ", " << rl->r.v.a << ") index " << rl->r.index
              << ", memory gap " << rl->gap_r(opt.k) << "\n"
              << "L = (" << rl->l.v.b << ", " << rl->l.v.a << ") index " << rl->l.index
              << ", memory gap " << -rl->gap_minus_l(opt.k) << "\n"
              << "Theorem-3 gaps: R " << rl->gap_r(opt.k) << ", -L " << rl->gap_minus_l(opt.k)
              << ", R-L " << rl->gap_r_minus_l(opt.k) << "\n";
  } else {
    std::cout << "degenerate: gcd(s, pk) >= k, at most one offset per block\n";
  }
  return 0;
}

int cmd_walk(const BlockCyclic& dist, const Options& opt) {
  if (!opt.u) {
    std::cerr << "walk requires -u <upper>\n";
    return 2;
  }
  const RegularSection sec{opt.l, *opt.u, opt.s};
  const auto walk_one = [&](i64 m) {
    std::cout << "proc " << m << ":\n";
    for_each_local_access(dist, sec, m, [&](i64 g, i64 la) {
      std::cout << "  A(" << g << ") -> mem[" << la << "]\n";
    });
  };
  if (opt.m) {
    walk_one(*opt.m);
  } else {
    for (i64 m = 0; m < opt.p; ++m) walk_one(m);
  }
  return 0;
}

int cmd_owners(const BlockCyclic& dist, const Options& opt) {
  if (!opt.u) {
    std::cerr << "owners requires -u <upper>\n";
    return 2;
  }
  const RegularSection sec{opt.l, *opt.u, opt.s};
  i64 total = 0;
  for (i64 m = 0; m < opt.p; ++m) {
    i64 count = 0;
    for_each_local_access(dist, sec, m, [&](i64, i64) { ++count; });
    std::cout << "proc " << m << ": " << count << " elements\n";
    total += count;
  }
  std::cout << "total: " << total << " of " << sec.size() << "\n";
  return total == sec.size() ? 0 : 1;
}

int cmd_stats(const BlockCyclic& dist, const Options& opt) {
  // Gap histogram + Theorem-3 structure summary across processors.
  CYCLICK_REQUIRE(opt.s > 0, "stats requires a positive stride");
  std::map<i64, i64> histogram;
  i64 empty_procs = 0;
  i64 total_period = 0;
  for (i64 m = 0; m < opt.p; ++m) {
    const AccessPattern pat = compute_access_pattern_signed(dist, opt.l, opt.s, m);
    if (pat.empty()) {
      ++empty_procs;
      continue;
    }
    total_period += pat.length;
    for (const i64 g : pat.gaps) ++histogram[g];
  }
  const i64 d = gcd_i64(opt.s, dist.row_length());
  std::cout << "gcd(s, pk) = " << d << ", period sum over processors = " << total_period
            << " (= pk/d = " << dist.row_length() / d << ")\n"
            << "processors with no elements: " << empty_procs << "\n";
  if (const auto basis = select_rl_basis(opt.p, opt.k, opt.s)) {
    std::cout << "Theorem-3 gaps: R " << basis->gap_r(opt.k) << ", -L "
              << basis->gap_minus_l(opt.k) << ", R-L " << basis->gap_r_minus_l(opt.k)
              << "\n";
  }
  std::cout << "gap histogram (gap: count across all AM tables):\n";
  for (const auto& [gap, count] : histogram)
    std::cout << "  " << gap << ": " << count << "\n";
  return 0;
}

int cmd_layout(const BlockCyclic& dist, const Options& opt) {
  if (!opt.u) {
    std::cerr << "layout requires -u <upper>\n";
    return 2;
  }
  const RegularSection sec{opt.l, *opt.u, opt.s};
  const i64 rows = floor_div(sec.ascending().upper, dist.row_length()) + 1;
  if (opt.m) {
    std::cout << "section elements on processor " << *opt.m << " (Figure 6 style; ("
              << sec.lower << ") is the lower bound):\n"
              << render_processor_walk(dist, sec, *opt.m, rows);
  } else {
    std::cout << "section elements across the layout (Figure 1/2 style):\n"
              << render_section_layout(dist, sec, rows);
  }
  return 0;
}

int cmd_xfer(const Options& opt, net::Backend backend) {
  // dst(0 : |sec|-1 : 1) = src(sec): redistribute a strided section of a
  // cyclic(k) source into a densely indexed cyclic(dst_k) destination, then
  // verify the backend's result element-for-element against the
  // transport-free executor.
  if (!opt.u) {
    std::cerr << "xfer requires -u <upper>\n";
    return 2;
  }
  const RegularSection ssec{opt.l, *opt.u, opt.s};
  CYCLICK_REQUIRE(!ssec.empty(), "xfer section is empty");
  const RegularSection asc = ssec.ascending();
  CYCLICK_REQUIRE(asc.lower >= 0, "xfer section must be nonnegative");
  const i64 p = opt.p;
  const i64 dst_k = opt.d.value_or(opt.k);
  const i64 src_n = asc.upper + 1;
  const i64 dst_n = ssec.size();
  const RegularSection dsec{0, dst_n - 1, 1};

  std::vector<double> image(static_cast<std::size_t>(src_n));
  std::iota(image.begin(), image.end(), 1.0);

  const SpmdExecutor exec(p);
  DistributedArray<double> src(BlockCyclic(p, opt.k), src_n);
  src.scatter(image);
  DistributedArray<double> expected(BlockCyclic(p, dst_k), dst_n);
  const CommPlan plan = build_copy_plan(src, ssec, expected, dsec, exec);
  execute_copy_plan(plan, src, expected, exec);

  bool ok = false;
  if (backend == net::Backend::kInProc) {
    DistributedArray<double> dst(BlockCyclic(p, dst_k), dst_n);
    InProcessTransport transport(p);
    const SpmdExecutor threads(p, SpmdExecutor::Mode::kThreads);
    execute_copy_plan_over(plan, src, dst, threads, transport);
    ok = dst.gather() == expected.gather();
  } else {
    // One OS process per rank: each child rebuilds the (deterministic)
    // plan, joins the socket mesh, executes only its own rank's share, and
    // verifies its local buffer against the reference.
    net::ProcessGroup group(p);
    group.spawn([&](i64 rank) -> int {
      DistributedArray<double> csrc(BlockCyclic(p, opt.k), src_n);
      csrc.scatter(image);
      DistributedArray<double> cdst(BlockCyclic(p, dst_k), dst_n);
      const CommPlan cplan = build_copy_plan(csrc, ssec, cdst, dsec, exec);
      const auto transport = net::SocketTransport::connect_mesh(rank, p, group.dir());
      execute_copy_plan_rank(cplan, csrc, cdst, rank, *transport);
      const auto got = cdst.local(rank);
      const auto want = expected.local(rank);
      if (got.size() != want.size() ||
          !std::equal(got.begin(), got.end(), want.begin())) {
        std::cerr << "amtool: rank " << rank << ": transferred bytes diverge\n";
        return 1;
      }
      return 0;
    });
    const auto statuses = group.wait_all();
    const std::string failures = net::describe_failures(statuses);
    if (!failures.empty()) std::cerr << "amtool: rank processes failed:\n" << failures;
    ok = failures.empty();
  }

  std::cout << "xfer src cyclic(" << opt.k << ") sec (" << ssec.lower << ":" << ssec.last()
            << ":" << ssec.stride << ") -> dst cyclic(" << dst_k << ") over "
            << net::backend_name(backend) << ": " << plan.total_elements() << " elements, "
            << plan.message_count() << " messages, "
            << plan.remote_elements() * static_cast<i64>(sizeof(double))
            << " remote bytes; " << (ok ? "verified OK" : "MISMATCH") << "\n";
  return ok ? 0 : 1;
}

/// Per-run knobs for `amtool simulate`, stripped from argv as whole tokens.
struct SimulateCli {
  std::string topology;   ///< --topology= override (empty: env/default)
  std::string straggler;  ///< --straggler= override (empty: env/default)
  i64 top_n = 5;          ///< --top=N hottest links to print
};

int cmd_simulate(const Options& opt, const SimulateCli& cli) {
  // Replay the same redistribution plan `xfer` executes — dst(0:|sec|-1:1)
  // = src(sec), cyclic(k) -> cyclic(dk) — through the discrete-event
  // simulated mesh, verify the delivered bytes against the transport-free
  // executor, and print the predicted schedule. The sequential executor
  // drives the transport from one thread, so the prediction is
  // deterministic run to run.
  if (!opt.u) {
    std::cerr << "simulate requires -u <upper>\n";
    return 2;
  }
  sim::SimParams params = sim::SimParams::from_env();
  if (!cli.topology.empty()) {
    const auto parsed = sim::parse_topology_name(cli.topology);
    if (!parsed.has_value())
      throw precondition_error("unknown topology \"" + cli.topology +
                               "\" in --topology; valid topologies are: full, ring, mesh2d");
    params.topology = *parsed;
  }
  if (!cli.straggler.empty()) params.stragglers = sim::parse_straggler_spec(cli.straggler);

  const RegularSection ssec{opt.l, *opt.u, opt.s};
  CYCLICK_REQUIRE(!ssec.empty(), "simulate section is empty");
  const RegularSection asc = ssec.ascending();
  CYCLICK_REQUIRE(asc.lower >= 0, "simulate section must be nonnegative");
  const i64 p = opt.p;
  const i64 dst_k = opt.d.value_or(opt.k);
  const i64 src_n = asc.upper + 1;
  const i64 dst_n = ssec.size();
  const RegularSection dsec{0, dst_n - 1, 1};

  std::vector<double> image(static_cast<std::size_t>(src_n));
  std::iota(image.begin(), image.end(), 1.0);

  const SpmdExecutor exec(p);
  DistributedArray<double> src(BlockCyclic(p, opt.k), src_n);
  src.scatter(image);
  DistributedArray<double> expected(BlockCyclic(p, dst_k), dst_n);
  const CommPlan plan = build_copy_plan(src, ssec, expected, dsec, exec);
  execute_copy_plan(plan, src, expected, exec);

  DistributedArray<double> dst(BlockCyclic(p, dst_k), dst_n);
  sim::SimTransport transport(p, params);
  execute_copy_plan_over(plan, src, dst, exec, transport);
  const bool ok = dst.gather() == expected.gather();
  const auto rep = transport.report(cli.top_n);

  const auto us = [](i64 ns) { return static_cast<double>(ns) / 1000.0; };
  const auto pct = [](double u) { return u * 100.0; };
  std::cout << std::fixed << std::setprecision(3)
            << "simulate src cyclic(" << opt.k << ") sec (" << ssec.lower << ":"
            << ssec.last() << ":" << ssec.stride << ") -> dst cyclic(" << dst_k
            << ") on " << p << " ranks, " << sim::topology_name(params.topology)
            << " topology";
  if (params.topology == sim::Topology::kMesh2D)
    std::cout << " (" << transport.mesh().rows() << "x" << transport.mesh().cols()
              << " grid)";
  std::cout << "\n"
            << "plan: " << plan.total_elements() << " elements, " << plan.message_count()
            << " messages, " << plan.remote_elements() * static_cast<i64>(sizeof(double))
            << " remote bytes\n"
            << "predicted phase time: " << us(rep.virtual_ns) << " us (" << rep.events
            << " events, " << rep.self_messages << " self messages)\n"
            << "links used: " << rep.links_used << ", per-link bytes mean "
            << rep.link_bytes_mean << " max " << rep.link_bytes_max << "\n"
            << "plan balance (max/mean per-link bytes): " << rep.balance() << "\n"
            << "link utilization: mean " << pct(rep.utilization_mean) << "% max "
            << pct(rep.utilization_max) << "%\n"
            << "max in-flight at one destination: " << rep.max_in_flight << " (rank "
            << rep.max_in_flight_rank << ")\n";
  if (!params.stragglers.empty()) {
    std::cout << "stragglers injected:";
    for (const auto& [rank, mult] : params.stragglers)
      std::cout << " " << rank << ":x" << mult;
    std::cout << "\n";
  }
  if (!rep.hottest.empty()) {
    std::cout << "hottest links:\n";
    for (const auto& link : rep.hottest)
      std::cout << "  " << link.name << ": " << link.bytes << " bytes, "
                << link.messages << " messages, busy " << us(link.busy_ns)
                << " us, utilization " << pct(link.utilization) << "%\n";
  }
  std::cout << "result: " << (ok ? "verified OK" : "MISMATCH") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Telemetry flags are boolean/valued in one token; strip them before the
  // pairwise flag-value option parse below.
  obs::CliOptions obs_opt;
  bool show_strategy = false;
  net::Backend backend = net::Backend::kInProc;
  dsl::Tier tier = dsl::tier_from_env(dsl::Tier::kBytecode);
  SimulateCli sim_cli;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  try {
    backend = net::backend_from_env(net::Backend::kInProc);
    for (int i = 0; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (i >= 1 && arg == "--strategy") {
        show_strategy = true;
        continue;
      }
      if (i >= 1 && arg.rfind("--topology=", 0) == 0) {
        sim_cli.topology = arg.substr(11);
        continue;
      }
      if (i >= 1 && arg.rfind("--straggler=", 0) == 0) {
        sim_cli.straggler = arg.substr(12);
        continue;
      }
      if (i >= 1 && arg.rfind("--top=", 0) == 0) {
        sim_cli.top_n = std::atoll(argv[i] + 6);
        if (sim_cli.top_n < 0) usage();
        continue;
      }
      if (i >= 1 && net::parse_backend_flag(arg, backend)) continue;
      if (i >= 1 && dsl::parse_tier_flag(argv[i], tier)) continue;
      if (i >= 1 && obs::parse_cli_flag(arg, obs_opt)) continue;
      args.push_back(argv[i]);
    }
  } catch (const std::exception& e) {
    std::cerr << "amtool: " << e.what() << "\n";
    return 2;
  }
  const int nargs = static_cast<int>(args.size());
  if (nargs < 2) usage();
  if (obs_opt.any()) obs::set_enabled(true);
  const std::string cmd = args[1];
  const Options opt = parse_options(nargs, args.data());
  try {
    const BlockCyclic dist(opt.p, opt.k);
    if (show_strategy) {
      std::cout << "class: " << access_class_name(AddressEngine::classify(dist, opt.s)) << " (p="
                << opt.p << ", k=" << opt.k << ", s=" << opt.s << ")\n";
      if (tier == dsl::Tier::kBytecode) {
        // Representative fused statement over this distribution: shows the
        // per-rank access class and fusion decisions the bytecode tier
        // would take for a stride-s access on cyclic(k) x p.
        const i64 count = 16;
        const i64 last = opt.l + (count - 1) * opt.s;
        const i64 lo = std::min(opt.l, last);
        if (lo >= 0) {
          const i64 n = std::max(opt.l, last) + 1;
          std::ostringstream prog;
          prog << "processors P(" << opt.p << ")\n"
               << "template T(" << n << ")\n"
               << "distribute T onto P cyclic(" << opt.k << ")\n"
               << "array A(" << n << ") align with T(i)\n"
               << "array B(" << n << ") align with T(i)\n"
               << "explain B(" << opt.l << ":" << last << ":" << opt.s << ") = A("
               << opt.l << ":" << last << ":" << opt.s << ") * 2 + 1\n";
          try {
            dsl::Machine machine;
            machine.run_source(prog.str());
            std::cout << machine.output();
          } catch (const std::exception& e) {
            std::cerr << "amtool: (strategy listing unavailable: " << e.what() << ")\n";
          }
        }
      }
    }
    int rc = 2;
    if (cmd == "table") rc = cmd_table(dist, opt);
    else if (cmd == "basis") rc = cmd_basis(dist, opt);
    else if (cmd == "walk") rc = cmd_walk(dist, opt);
    else if (cmd == "owners") rc = cmd_owners(dist, opt);
    else if (cmd == "layout") rc = cmd_layout(dist, opt);
    else if (cmd == "stats") rc = cmd_stats(dist, opt);
    else if (cmd == "xfer") rc = cmd_xfer(opt, backend);
    else if (cmd == "simulate") rc = cmd_simulate(opt, sim_cli);
    else {
      std::cerr << "amtool: unknown subcommand '" << cmd << "' (valid subcommands are: "
                << kSubcommands << ")\n";
      usage();
    }
    obs::emit_cli_outputs(obs_opt, std::cerr);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "amtool: " << e.what() << "\n";
    return 1;
  }
}
