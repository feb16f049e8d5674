// AddressEngine dispatch benchmark: for one section shape per paper case,
// compare the engine's classified traversal (run_section_auto — the loop
// shape the access class picks) against a forced general walk: the
// Figure 8(d) offset-indexed node code (per-element delta / next-offset
// nav, from SectionPlan::offset_tables(), which the engine derives from
// its Theorem-3 period), the shape every section would get without
// classification.
//
// The fill workload writes one value per owned element; timing is the
// paper's max-over-ranks discipline. `--json` writes
// BENCH_engine_dispatch.json; the CI perf-smoke gate asserts the
// dense-runs row's speedup there.
#include <vector>

#include "bench_common.hpp"
#include "cyclick/codegen/node_loop.hpp"
#include "cyclick/core/engine.hpp"
#include "cyclick/core/kernels.hpp"

namespace {

using namespace cyclick;
using namespace cyclick::bench;

struct Config {
  const char* label;  ///< the paper case the shape stands for
  AccessClass cls;    ///< the class the engine must pick for it
  i64 p, k, s, accesses;
};

// The general node code, applied unconditionally: plan the start, build the
// offset-indexed tables, then one table-nav step (delta / next_offset) per
// element. The tables cover every class (identity next for fixed steps,
// unit gaps for runs), so this is what every class would cost without
// dispatch.
i64 run_forced_general(const BlockCyclic& dist, const RegularSection& sec, i64 proc,
                       std::span<double> local, double value) {
  const SectionPlan plan = AddressEngine::global().plan(dist, sec, proc);
  if (plan.empty()) return 0;
  const OffsetTables t = plan.offset_tables();
  const i64 n = compile_kernel(plan).count();
  i64 la = sec.stride > 0 ? plan.first_local() : plan.last_local();
  i64 q = t.start_offset;
  for (i64 i = 0; i < n; ++i) {
    local[static_cast<std::size_t>(la)] = value;
    la += t.delta[static_cast<std::size_t>(q)];
    q = t.next_offset[static_cast<std::size_t>(q)];
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = want_csv(argc, argv);
  const bool json = want_json(argc, argv);
  const obs::CliOptions obs_opt = obs_options(argc, argv);
  // Best-of-15: the large-footprint rows (hiranandani at 8.7 MB/rank) are
  // DRAM-sensitive, and max-over-ranks amplifies a single noisy rank.
  const int repeats = 15;

  // One representative shape per paper case (section lower 0, the access
  // count fixed so every row does comparable work): one processor, |s| == 1,
  // k == 1, gcd(|s|, pk) >= k, the ICS'94 case |s| mod pk < k, and the
  // general lattice.
  using C = AccessClass;
  const Config configs[] = {
      {"trivial-local", C::kFixedStep, 1, 64, 3, 500'000},
      {"dense-runs", C::kRuns, 16, 64, 1, 2'000'000},
      {"pure-cyclic", C::kFixedStep, 16, 1, 3, 1'000'000},
      {"fixed-step", C::kFixedStep, 16, 8, 16, 1'000'000},
      {"hiranandani", C::kPeriodic, 16, 64, 35, 500'000},
      {"general-lattice", C::kPeriodic, 16, 64, 67, 250'000},
  };

  std::cout << "AddressEngine dispatch vs forced offset-indexed walk "
               "(fill workload, max over ranks, best of "
            << repeats << ")\n\n";

  TextTable table({"label", "p", "k", "s", "n", "class", "engine_us", "general_us",
                   "speedup"});
  bool ok = true;
  for (const Config& c : configs) {
    const BlockCyclic dist(c.p, c.k);
    const RegularSection sec{0, (c.accesses - 1) * c.s, c.s};
    const AccessClass cls = AddressEngine::classify(dist, c.s);
    if (cls != c.cls) {
      std::cerr << "CONFIG ERROR: " << c.label << " classified as " << access_class_name(cls)
                << ", expected " << access_class_name(c.cls) << "\n";
      ok = false;
      continue;
    }
    const i64 size = sec.last() + 1;
    std::vector<std::vector<double>> engine_mem, general_mem;
    for (i64 m = 0; m < c.p; ++m) {
      const auto cap = static_cast<std::size_t>(dist.local_size(m, size));
      engine_mem.emplace_back(cap, 0.0);
      general_mem.emplace_back(cap, 0.0);
    }

    // Correctness gate before timing: identical visit counts and buffers.
    for (i64 m = 0; m < c.p; ++m) {
      auto& em = engine_mem[static_cast<std::size_t>(m)];
      auto& gm = general_mem[static_cast<std::size_t>(m)];
      const i64 ne = run_section_auto(dist, sec, m, std::span<double>(em),
                                      [](double& x) { x = 1.0; });
      const i64 ng = run_forced_general(dist, sec, m, std::span<double>(gm), 1.0);
      if (ne != ng || em != gm) {
        std::cerr << "VERIFICATION FAILED: " << c.label << " rank " << m
                  << " (engine " << ne << " vs general " << ng << ")\n";
        ok = false;
      }
    }

    const double engine_us = max_over_ranks_us(c.p, repeats, [&](i64 m) {
      auto& mem = engine_mem[static_cast<std::size_t>(m)];
      run_section_auto(dist, sec, m, std::span<double>(mem), [](double& x) { x += 1.0; });
      do_not_optimize(mem.data());
    });
    const double general_us = max_over_ranks_us(c.p, repeats, [&](i64 m) {
      auto& mem = general_mem[static_cast<std::size_t>(m)];
      run_forced_general(dist, sec, m, std::span<double>(mem), 2.0);
      do_not_optimize(mem.data());
    });

    table.add_row({c.label, TextTable::num(c.p), TextTable::num(c.k), TextTable::num(c.s),
                   TextTable::num(c.accesses), access_class_name(cls),
                   TextTable::fixed(engine_us, 1), TextTable::fixed(general_us, 1),
                   TextTable::fixed(general_us / engine_us, 2)});
  }

  emit(table, csv);
  if (json) {
    JsonWriter w("BENCH_engine_dispatch.json");
    w.add_table("engine_dispatch", table);
    w.write();
  }
  emit_obs(obs_opt);
  return ok ? 0 : 1;
}
