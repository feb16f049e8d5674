// End-to-end DSL statement throughput: the same relaxation programs driven
// through the tree-walking interpreter tier and the bytecode tier, timed
// over full `repeat` sweeps. This measures what the bytecode tier exists
// for — amortizing per-statement lowering (plan resolution, temp shaping,
// kernel selection) across loop iterations and reading shifted operands in
// place instead of through full operand copies.
//
// Five programs, every statement of which the bytecode tier compiles,
// except the bare copy back (`U(...) = V(...)`), which runs as the same
// copy_section/copy_region call on both tiers:
//   jacobi       3-point average ping-pong (the paper's relaxation shape)
//   jacobi_large the same sweep on 2^20 doubles under cyclic(32): out of
//                cache, where the shifted operands' lane.shift halos replace
//                two full operand copies per statement
//   heat2d_flat  4-point average over a row-flattened 2-D grid on a 1-D
//                processor arrangement (stencil neighbors at +-1 and +-W in
//                the flat index space)
//   heat2d_grid  the same stencil on a real 256x256 array over a G(2,2)
//                grid: four lane.shift operands (two along each dimension)
//                and one lane pass per local row
//   heat2d_grid_inner
//                the same grid under cyclic(32) cyclic(4): few boundary
//                rows, and a quarter of every row patched from the
//                innermost halo
//
// `--json` writes BENCH_dsl_throughput.json; the CI perf-smoke gate asserts
// bytecode/interp speedup >= 2x on all five programs.
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "cyclick/compiler/interp.hpp"

namespace {

using namespace cyclick;
using namespace cyclick::bench;

struct Workload {
  const char* name;
  i64 elements;          // array elements per statement
  std::string prologue;  // declarations + initialization, run once
  std::string sweep;     // one relaxation sweep (two statements)
  i64 sweeps = 50;       // sweeps per timed run
};

Workload jacobi(const char* name, i64 n, i64 k) {
  std::ostringstream pro, sweep;
  pro << "processors P(4)\n"
      << "template T(" << n << ")\n"
      << "distribute T onto P cyclic(" << k << ")\n"
      << "array U(" << n << ") align with T(i)\n"
      << "array V(" << n << ") align with T(i)\n"
      << "forall (i = 0:" << n - 1 << ") U(i) = i * (" << n - 1 << " - i)\n"
      << "V(0:" << n - 1 << ") = 0\n";
  sweep << "V(1:" << n - 2 << ") = (U(0:" << n - 3 << ") + U(2:" << n - 1 << ")) / 2\n"
        << "U(1:" << n - 2 << ") = V(1:" << n - 2 << ")\n";
  return {name, n, pro.str(), sweep.str()};
}

Workload heat2d_flat(i64 w, i64 rows) {
  const i64 n = w * rows;
  const i64 lo = w, hi = n - w - 1;  // interior rows of the flattened grid
  std::ostringstream pro, sweep;
  pro << "processors P(4)\n"
      << "template T(" << n << ")\n"
      << "distribute T onto P cyclic(64)\n"
      << "array U(" << n << ") align with T(i)\n"
      << "array V(" << n << ") align with T(i)\n"
      << "U(0:" << n - 1 << ") = 0\n"
      << "U(0:" << w - 1 << ") = 100\n"
      << "V(0:" << n - 1 << ") = 0\n";
  sweep << "V(" << lo << ":" << hi << ") = (U(" << lo - 1 << ":" << hi - 1 << ") + U("
        << lo + 1 << ":" << hi + 1 << ") + U(" << lo - w << ":" << hi - w << ") + U("
        << lo + w << ":" << hi + w << ")) / 4\n"
        << "U(" << lo << ":" << hi << ") = V(" << lo << ":" << hi << ")\n";
  return {"heat2d_flat", n, pro.str(), sweep.str()};
}

Workload heat2d_grid(const char* name, i64 n, i64 k1, i64 k2) {
  const std::string all = "0:" + std::to_string(n - 1);
  const std::string in = "1:" + std::to_string(n - 2);
  const std::string lo = "0:" + std::to_string(n - 3);
  const std::string hi = "2:" + std::to_string(n - 1);
  std::ostringstream pro, sweep;
  pro << "processors G(2, 2)\n"
      << "template S(" << n << ", " << n << ")\n"
      << "distribute S onto G cyclic(" << k1 << ") cyclic(" << k2 << ")\n"
      << "array U(" << n << ", " << n << ") align with S(i, j)\n"
      << "array V(" << n << ", " << n << ") align with S(i, j)\n"
      << "U(" << all << ", " << all << ") = 0\n"
      << "U(" << all << ", 0:0) = 100\n"
      << "V(" << all << ", " << all << ") = 0\n";
  sweep << "V(" << in << ", " << in << ") = (U(" << lo << ", " << in << ") + U(" << hi << ", "
        << in << ") + U(" << in << ", " << lo << ") + U(" << in << ", " << hi << ")) / 4\n"
        << "U(" << in << ", " << in << ") = V(" << in << ", " << in << ")\n";
  return {name, n * n, pro.str(), sweep.str()};
}

/// Run `sweeps` relaxation sweeps under `tier`, returning the best-of-
/// `repeats` wall time in microseconds (one parse of the repeat block is
/// included; it is identical work for both tiers and negligible against
/// the array traffic).
double time_tier(const Workload& wl, dsl::Tier tier, i64 sweeps, int repeats) {
  dsl::Machine machine;
  machine.set_tier(tier);
  machine.run_source(wl.prologue);
  std::ostringstream loop;
  loop << "repeat " << sweeps << "\n" << wl.sweep << "end\n";
  const std::string loop_src = loop.str();
  machine.run_source(loop_src);  // warm plan/program caches before timing
  return time_best_us(repeats, [&] { machine.run_source(loop_src); });
}

/// Correctness gate: both tiers must leave byte-identical global images.
bool verify(const Workload& wl, i64 sweeps) {
  dsl::Machine mi, mb;
  mi.set_tier(dsl::Tier::kInterp);
  mb.set_tier(dsl::Tier::kBytecode);
  std::ostringstream loop;
  loop << "repeat " << sweeps << "\n" << wl.sweep << "end\n";
  const std::string program = wl.prologue + loop.str();
  mi.run_source(program);
  mb.run_source(program);
  return mi.global_image("U") == mb.global_image("U") &&
         mi.global_image("V") == mb.global_image("V");
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = want_csv(argc, argv);
  const bool json = want_json(argc, argv);
  const obs::CliOptions obs_opt = obs_options(argc, argv);
  const int repeats = 5;
  const i64 n = 16384;

  Workload large = jacobi("jacobi_large", i64{1} << 20, 32);
  large.sweeps = 10;  // each sweep streams 2^20 doubles per statement
  const Workload workloads[] = {jacobi("jacobi", n, 64), large, heat2d_flat(128, n / 128),
                                heat2d_grid("heat2d_grid", 256, 8, 4),
                                heat2d_grid("heat2d_grid_inner", 256, 32, 4)};

  std::cout << "DSL statement throughput: interpreter tier vs bytecode tier\n"
            << "(best of " << repeats << " runs of `sweeps` sweeps)\n\n";

  TextTable table({"program", "n", "sweeps", "interp_us", "bytecode_us", "per_sweep_us",
                   "speedup"});
  bool ok = true;
  for (const Workload& wl : workloads) {
    if (!verify(wl, 3)) {
      std::cerr << "VERIFICATION FAILED: tiers disagree on " << wl.name << "\n";
      ok = false;
      continue;
    }
    const i64 sweeps = wl.sweeps;
    const double interp_us = time_tier(wl, dsl::Tier::kInterp, sweeps, repeats);
    const double bytecode_us = time_tier(wl, dsl::Tier::kBytecode, sweeps, repeats);
    table.add_row({wl.name, TextTable::num(wl.elements), TextTable::num(sweeps),
                   TextTable::fixed(interp_us, 1), TextTable::fixed(bytecode_us, 1),
                   TextTable::fixed(bytecode_us / static_cast<double>(sweeps), 2),
                   TextTable::fixed(interp_us / bytecode_us, 2)});
  }

  emit(table, csv);
  if (json) {
    JsonWriter w("BENCH_dsl_throughput.json");
    w.add_table("dsl_throughput", table);
    w.write();
  }
  emit_obs(obs_opt);
  return ok ? 0 : 1;
}
