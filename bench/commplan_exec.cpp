// Communication-plan execution benchmark (the perf-trajectory smoke run).
//
// Configuration fixed to the ablation-E redistribution: p = 32,
// dst(cyclic(8)) <- src(cyclic(3)), n = 100k strided sections. Reports,
// for the seed per-item plan vs the compressed periodic plan:
//
//   * steady-state plan execution time (prebuilt plan, warm arena),
//   * cached replay time (hash lookup + execution, the copy_section path),
//   * heap allocations per steady-state execution (counted with a global
//     operator new override — the compressed path must report 0),
//   * plan memory (per-item items vs run descriptors + gap tables),
//   * plan-cache hit/miss counters over the replay loop,
//   * cold plan construction on a seeded set of 500 sections_cold-shaped
//     copies (p = 8, cyclic(3) <-> cyclic(64), |stride| 1..63 with 1 in 8
//     descending, 32..1024 elements): median and quartiles of the per-build
//     time over rounds that alternate the set's order, and allocations per
//     build (a count that repeats exactly),
//   * cold N-D region plan construction: heat2d's four shifted operand
//     regions (254 x 254 interior of a 256 x 256 array, cyclic(5) x
//     cyclic(7) over a 2 x 2 grid), median and quartiles of the per-build
//     time, and allocations per build.
//
// `--csv` prints machine-readable rows; `--json` writes
// BENCH_commplan.json for the perf trajectory.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <random>

#include "bench_common.hpp"
#include "cyclick/runtime/multidim_array.hpp"
#include "support/legacy_comm_plan.hpp"

// --- global allocation counter -------------------------------------------
// Counts every operator new in the process; the bench reads the delta
// around execution calls. Plain (non-aligned) forms only: the containers
// under measurement all use default-aligned allocations.

namespace {
std::atomic<long long> g_alloc_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// GCC's -Wmismatched-new-delete pairs the replaced operator new with
// std::free once both ends get inlined into container code and flags the
// (correct, malloc-backed) combination; silence the heuristic here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace cyclick;
using namespace cyclick::bench;

long long allocs_during(int rounds, const std::function<void()>& fn) {
  const long long before = g_alloc_calls.load(std::memory_order_relaxed);
  for (int r = 0; r < rounds; ++r) fn();
  const long long after = g_alloc_calls.load(std::memory_order_relaxed);
  return (after - before) / rounds;
}

/// One cold copy: src(ssec) -> dst(dsec), src/dst chosen among the pair.
struct ColdCopy {
  bool forward;  ///< cyclic(3) -> cyclic(64) when set, else the reverse
  RegularSection ssec, dsec;
};

/// The seeded sections_cold-shaped draw set over two 2^16-element arrays.
std::vector<ColdCopy> cold_copies(i64 n, int count) {
  std::mt19937_64 rng(9173);
  const auto draw = [&rng](i64 lo, i64 hi) {
    return std::uniform_int_distribution<i64>(lo, hi)(rng);
  };
  std::vector<ColdCopy> out;
  for (int i = 0; i < count; ++i) {
    const bool forward = draw(0, 1) == 1;
    const i64 len = draw(32, 1024);
    const auto section = [&] {
      const i64 s = draw(1, 63) * (draw(0, 7) == 0 ? -1 : 1);
      const i64 span = (len - 1) * (s < 0 ? -s : s);
      const i64 lo = draw(0, n - 1 - span);
      return s > 0 ? RegularSection{lo, lo + span, s} : RegularSection{lo + span, lo, s};
    };
    const RegularSection ssec = section();
    out.push_back({forward, ssec, section()});
  }
  return out;
}

/// Value at quantile q of sorted samples (nearest rank).
double quantile(const std::vector<double>& sorted, double q) {
  const auto i = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[i];
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = want_csv(argc, argv);
  const bool json = want_json(argc, argv);
  const obs::CliOptions obs_opt = obs_options(argc, argv);
  const i64 p = 32;
  const i64 n = 100'000;
  const int repeats = 10;
  const SpmdExecutor exec(p);

  std::cout << "Communication-plan execution: p = " << p
            << ", dst(cyclic(8)) <- src(cyclic(3)), n = " << n << "\n\n";

  DistributedArray<double> src(BlockCyclic(p, 3), 2 * n + 10);
  DistributedArray<double> dst_legacy(BlockCyclic(p, 8), 3 * n + 20);
  DistributedArray<double> dst_fast(BlockCyclic(p, 8), 3 * n + 20);
  const RegularSection ssec{0, 2 * n - 1, 2};
  const RegularSection dsec{10, 10 + 3 * (n - 1), 3};
  {
    std::vector<double> image(static_cast<std::size_t>(src.size()));
    for (std::size_t i = 0; i < image.size(); ++i) image[i] = static_cast<double>(i) * 0.5;
    src.scatter(image);
  }

  // Seed implementation: per-item plan, modular address solve per element.
  const LegacyCommPlan legacy = build_legacy_copy_plan(src, ssec, dst_legacy, dsec, exec);
  // Compressed periodic plan, executed through the reusable arena.
  const CommPlan fast = build_copy_plan(src, ssec, dst_fast, dsec, exec);

  // Correctness gate before timing anything.
  execute_legacy_copy_plan(legacy, src, dst_legacy, exec);
  execute_copy_plan(fast, src, dst_fast, exec);
  if (dst_legacy.gather() != dst_fast.gather()) {
    std::cerr << "VERIFICATION FAILED: compressed execution differs from seed\n";
    return 1;
  }

  const double legacy_us = time_best_us(repeats, [&] {
    execute_legacy_copy_plan(legacy, src, dst_legacy, exec);
    do_not_optimize(dst_legacy.local(0).data());
  });
  const double fast_us = time_best_us(repeats, [&] {
    execute_copy_plan(fast, src, dst_fast, exec);
    do_not_optimize(dst_fast.local(0).data());
  });

  // Cached replay: what copy_section does in a solver sweep after the
  // first iteration — one hash lookup plus the compressed execution.
  PlanCache cache(16);
  {
    const auto plan = cached_copy_plan(src, ssec, dst_fast, dsec, exec, cache);
    execute_copy_plan(*plan, src, dst_fast, exec);  // warm the arena
  }
  const double cached_us = time_best_us(repeats, [&] {
    const auto plan = cached_copy_plan(src, ssec, dst_fast, dsec, exec, cache);
    execute_copy_plan(*plan, src, dst_fast, exec);
    do_not_optimize(dst_fast.local(0).data());
  });
  const PlanCache::Stats stats = cache.stats();

  const long long legacy_allocs = allocs_during(5, [&] {
    execute_legacy_copy_plan(legacy, src, dst_legacy, exec);
  });
  const long long fast_allocs = allocs_during(5, [&] {
    execute_copy_plan(fast, src, dst_fast, exec);
  });

  // Cold construction, the path every sections_cold step pays.
  const i64 cold_p = 8;
  const i64 cold_n = i64{1} << 16;
  const SpmdExecutor cold_exec(cold_p);
  DistributedArray<double> a3(BlockCyclic(cold_p, 3), cold_n);
  DistributedArray<double> a64(BlockCyclic(cold_p, 64), cold_n);
  const std::vector<ColdCopy> copies = cold_copies(cold_n, 500);
  const auto build_cold = [&](const ColdCopy& c) {
    const CommPlan plan = build_copy_plan(c.forward ? a3 : a64, c.ssec, c.forward ? a64 : a3,
                                          c.dsec, cold_exec);
    do_not_optimize(plan.channels.data());
  };
  for (const ColdCopy& c : copies) build_cold(c);  // warm-up round
  const int cold_rounds = 6;
  std::vector<double> cold_us;
  cold_us.reserve(copies.size() * cold_rounds);
  for (int r = 0; r < cold_rounds; ++r)
    for (std::size_t i = 0; i < copies.size(); ++i) {
      const ColdCopy& c = copies[r % 2 == 0 ? i : copies.size() - 1 - i];
      cold_us.push_back(time_once_us([&] { build_cold(c); }));
    }
  std::sort(cold_us.begin(), cold_us.end());
  const long long cold_allocs_total = allocs_during(1, [&] {
    for (const ColdCopy& c : copies) build_cold(c);
  });
  const double cold_allocs =
      static_cast<double>(cold_allocs_total) / static_cast<double>(copies.size());

  // Cold N-D region plan construction (heat2d's operand copies).
  const i64 hn = 256;
  const SpmdExecutor region_exec(4);
  const auto heat_map = [&] {
    std::vector<DimMapping> dims;
    dims.emplace_back(hn, AffineAlignment::identity(), BlockCyclic(2, 5));
    dims.emplace_back(hn, AffineAlignment::identity(), BlockCyclic(2, 7));
    return MultiDimMapping{std::move(dims), ProcessorGrid({2, 2})};
  };
  const MultiDimArray<double> heat_src(heat_map());
  const MultiDimArray<double> heat_tmp(heat_map());
  const RegularSection in{1, hn - 2, 1}, lo{0, hn - 3, 1}, hi{2, hn - 1, 1};
  const Region dreg{in, in};
  const std::vector<Region> sregs = {{lo, in}, {hi, in}, {in, lo}, {in, hi}};
  const auto build_region = [&](const Region& sreg) {
    const RedistributionPlan plan =
        build_region_plan(heat_src, sreg, heat_tmp, dreg, region_exec);
    do_not_optimize(plan.comm.channels.data());
  };
  for (const Region& sreg : sregs) build_region(sreg);  // warm-up round
  std::vector<double> region_us;
  for (int r = 0; r < 8; ++r)
    for (const Region& sreg : sregs)
      region_us.push_back(time_once_us([&] { build_region(sreg); }));
  std::sort(region_us.begin(), region_us.end());
  const long long region_allocs = allocs_during(1, [&] {
    for (const Region& sreg : sregs) build_region(sreg);
  }) / static_cast<long long>(sregs.size());

  const auto legacy_bytes = static_cast<i64>(legacy.plan_bytes());
  const auto fast_bytes = static_cast<i64>(fast.plan_bytes());

  TextTable table({"Metric", "Value"});
  table.add_row({"legacy_exec_us", TextTable::fixed(legacy_us, 1)});
  table.add_row({"compressed_exec_us", TextTable::fixed(fast_us, 1)});
  table.add_row({"cached_replay_us", TextTable::fixed(cached_us, 1)});
  table.add_row({"exec_speedup", TextTable::fixed(legacy_us / fast_us, 2)});
  table.add_row({"cached_speedup", TextTable::fixed(legacy_us / cached_us, 2)});
  table.add_row({"legacy_allocs_per_exec", TextTable::num(legacy_allocs)});
  table.add_row({"compressed_allocs_per_exec", TextTable::num(fast_allocs)});
  table.add_row({"legacy_plan_bytes", TextTable::num(legacy_bytes)});
  table.add_row({"compressed_plan_bytes", TextTable::num(fast_bytes)});
  table.add_row({"plan_bytes_ratio",
                 TextTable::fixed(static_cast<double>(legacy_bytes) /
                                      static_cast<double>(fast_bytes), 1)});
  table.add_row({"scratch_bytes", TextTable::num(static_cast<i64>(fast.scratch_bytes()))});
  table.add_row({"plan_messages", TextTable::num(fast.message_count())});
  table.add_row({"plan_remote_elements", TextTable::num(fast.remote_elements())});
  table.add_row({"cache_hits", TextTable::num(stats.hits)});
  table.add_row({"cache_misses", TextTable::num(stats.misses)});
  table.add_row({"cold_build_us", TextTable::fixed(quantile(cold_us, 0.5), 2)});
  table.add_row({"cold_build_us_q1", TextTable::fixed(quantile(cold_us, 0.25), 2)});
  table.add_row({"cold_build_us_q3", TextTable::fixed(quantile(cold_us, 0.75), 2)});
  table.add_row({"cold_build_allocs", TextTable::fixed(cold_allocs, 2)});
  table.add_row({"region_build_us", TextTable::fixed(quantile(region_us, 0.5), 1)});
  table.add_row({"region_build_us_q1", TextTable::fixed(quantile(region_us, 0.25), 1)});
  table.add_row({"region_build_us_q3", TextTable::fixed(quantile(region_us, 0.75), 1)});
  table.add_row({"region_build_allocs", TextTable::num(region_allocs)});
  emit(table, csv);
  if (json) {
    JsonWriter w("BENCH_commplan.json");
    w.add_table("commplan_exec", table);
    w.write();
  }
  emit_obs(obs_opt);

  // Hard gates mirroring the PR's acceptance criteria, so CI smoke runs
  // catch regressions: >= 2x cached execution speedup, zero steady-state
  // allocations, >= 10x plan-memory compression, <= 32 allocations per cold
  // plan build.
  bool ok = true;
  if (legacy_us < 2.0 * cached_us) {
    std::cerr << "GATE FAILED: cached replay not >= 2x faster than seed execution\n";
    ok = false;
  }
  if (fast_allocs != 0) {
    std::cerr << "GATE FAILED: compressed execution allocates in steady state\n";
    ok = false;
  }
  if (fast_bytes * 10 > legacy_bytes) {
    std::cerr << "GATE FAILED: compressed plan not >= 10x smaller than per-item plan\n";
    ok = false;
  }
  if (cold_allocs > 32.0) {
    std::cerr << "GATE FAILED: a cold plan build makes more than 32 allocations\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
