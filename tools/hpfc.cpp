// hpfc — run a mini-HPF DSL program from a file or stdin.
//
//   hpfc program.hpf          execute a file
//   hpfc -                    execute stdin
//   hpfc -t program.hpf       execute with the threaded SPMD executor
//   hpfc -v program.hpf       also print the lowering trace (one line per
//                             runtime operation each statement lowers to)
//   hpfc --backend=inproc|proc|sim  execution backend (default inproc, or
//                             CYCLICK_BACKEND): `proc` launches one OS
//                             process per rank and routes each rank's
//                             share of every section copy and
//                             `redistribute` over the socket transport;
//                             `sim` replays every section copy and
//                             `redistribute` over the discrete-event
//                             simulated mesh
//                             (CYCLICK_SIM_* knobs: topology, link costs,
//                             stragglers) — program output stays
//                             byte-identical to inproc, and --metrics /
//                             --trace additionally carry the predicted
//                             sim.* timings. An unknown backend name is
//                             rejected with the valid names listed.
//   hpfc --ranks=N            world size for --backend=proc (default 4,
//                             or CYCLICK_WORLD)
//   hpfc --tier=interp|bytecode  execution tier (default bytecode, or
//                             CYCLICK_TIER): bytecode compiles statements
//                             into fused register programs and falls back
//                             to the tree-walking interpreter per statement
//   hpfc --metrics[=json]     print a telemetry report (counters, span
//                             totals, histograms) to stderr after the run
//   hpfc --trace=FILE.json    write a chrome://tracing trace of the run
//
// Prints the program's `print`/`explain` output; compile and runtime
// errors carry source line numbers. Under --backend=proc only rank 0
// prints, and a failed rank (nonzero exit, fatal signal, or a
// TransportError out of a stuck channel) fails the whole run with a
// per-rank diagnostic.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cyclick/compiler/interp.hpp"
#include "cyclick/net/backend.hpp"
#include "cyclick/net/launcher.hpp"
#include "cyclick/net/socket_transport.hpp"
#include "cyclick/obs/report.hpp"
#include "cyclick/sim/sim_machine.hpp"

namespace {

using namespace cyclick;

[[noreturn]] void usage() {
  std::cerr << "usage: hpfc [-t] [-v] [--backend=inproc|proc|sim] [--ranks=N]"
               " [--tier=interp|bytecode] [--metrics[=json]] [--trace=FILE.json]"
               " <program.hpf | ->\n";
  std::exit(2);
}

int run_machine(const std::string& source, bool threaded, bool verbose, bool print_output,
                const obs::CliOptions& obs_opt, dsl::Tier tier) {
  try {
    dsl::Machine machine(threaded ? SpmdExecutor::Mode::kThreads
                                  : SpmdExecutor::Mode::kSequential);
    machine.set_tier(tier);
    if (verbose) machine.enable_trace();
    machine.run_source(source);
    if (print_output) {
      std::cout << machine.output();
      if (verbose) std::cerr << "--- lowering trace ---\n" << machine.trace_log();
      obs::emit_cli_outputs(obs_opt, std::cerr);
    }
    return 0;
  } catch (const dsl_error& e) {
    std::cerr << "hpfc: " << e.what() << "\n";
    return 1;
  } catch (const TransportError& e) {
    std::cerr << "hpfc: transport failure: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "hpfc: internal error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool threaded = false;
  bool verbose = false;
  obs::CliOptions obs_opt;
  net::Backend backend = net::Backend::kInProc;
  dsl::Tier tier = dsl::tier_from_env(dsl::Tier::kBytecode);
  i64 ranks = net::world_from_env(4);
  std::string path;
  try {
    backend = net::backend_from_env(net::Backend::kInProc);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-t") {
        threaded = true;
      } else if (arg == "-v") {
        verbose = true;
      } else if (arg.rfind("--ranks=", 0) == 0) {
        ranks = std::atoll(arg.c_str() + 8);
        if (ranks < 1) usage();
      } else if (net::parse_backend_flag(arg, backend)) {
        // handled
      } else if (dsl::parse_tier_flag(arg, tier)) {
        // handled (argv is re-execed verbatim for proc ranks, so the tier
        // choice propagates to every rank process)
      } else if (obs::parse_cli_flag(arg, obs_opt)) {
        // handled
      } else if (path.empty()) {
        path = arg;
      } else {
        usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "hpfc: " << e.what() << "\n";
    return 2;
  }
  if (path.empty()) usage();
  if (obs_opt.any()) obs::set_enabled(true);

  const auto env_rank = net::rank_from_env();
  if (backend == net::Backend::kProc && !env_rank.has_value()) {
    // Launcher role: re-exec this binary once per rank; the children see
    // CYCLICK_RANK/CYCLICK_WORLD/CYCLICK_NET_DIR and take the branch below.
    // Reading from stdin cannot be replayed into the children, so require
    // a file path.
    if (path == "-") {
      std::cerr << "hpfc: --backend=proc cannot read the program from stdin\n";
      return 2;
    }
    try {
      net::ProcessGroup group(ranks);
      std::vector<std::string> args(argv, argv + argc);
      group.spawn_exec(args);
      const auto statuses = group.wait_all();
      const std::string failures = net::describe_failures(statuses);
      if (!failures.empty()) {
        std::cerr << "hpfc: rank processes failed:\n" << failures;
        return 1;
      }
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "hpfc: launcher error: " << e.what() << "\n";
      return 1;
    }
  }

  std::string source;
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    source = ss.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "hpfc: cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  }

  if (backend == net::Backend::kProc) {
    // Rank role: join the socket mesh, install the process context, and
    // run the whole program as this rank of the replicated machine.
    const i64 world = net::world_from_env(ranks);
    const std::string dir = net::net_dir_from_env();
    if (dir.empty()) {
      std::cerr << "hpfc: CYCLICK_NET_DIR unset (rank processes must be launched)\n";
      return 2;
    }
    try {
      const auto transport = net::SocketTransport::connect_mesh(*env_rank, world, dir);
      process_context() = ProcessContext{*env_rank, world, transport.get()};
      const int rc = run_machine(source, threaded, verbose, *env_rank == 0, obs_opt, tier);
      process_context() = ProcessContext{};
      return rc;
    } catch (const std::exception& e) {
      std::cerr << "hpfc: rank " << *env_rank << ": " << e.what() << "\n";
      return 1;
    }
  }

  if (backend == net::Backend::kSim) {
    // Simulated mesh: the program runs unchanged in this process, but every
    // section copy is replayed through the discrete-event SimTransport, so
    // --metrics / --trace carry the predicted sim.* timeline. Program
    // output is byte-identical to inproc; --ranks is ignored (the world
    // size comes from each plan's processor count).
    try {
      sim::SimMachine machine{sim::SimParams::from_env()};
      sim::SimMachine::Scope scope(machine);
      return run_machine(source, threaded, verbose, /*print_output=*/true, obs_opt, tier);
    } catch (const std::exception& e) {
      std::cerr << "hpfc: sim backend: " << e.what() << "\n";
      return 1;
    }
  }

  return run_machine(source, threaded, verbose, /*print_output=*/true, obs_opt, tier);
}
