// Kernel-layer throughput benchmark: for each access class (runs,
// fixed-step, periodic), compare the compiled bulk gather against the
// scalar AM gap-table walk — make_pattern()'s start + serially dependent
// cyclic gap chain, the node-code shape every consumer used before the
// kernel layer — across element sizes 1/4/8/16.
//
// Timing is the paper's max-over-ranks discipline (best of R repeats per
// rank). `--json` writes BENCH_kernel_throughput.json; the CI perf-smoke
// gate asserts the run-copy and strided speedups there, each at its best
// element size.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cyclick/core/engine.hpp"
#include "cyclick/core/kernels.hpp"

namespace {

using namespace cyclick;
using namespace cyclick::bench;

struct Config {
  const char* label;
  i64 p, k, s, accesses;
};

// One representative section shape per access class. The fixed-step class
// gets two feeders: k == 1 (local step 3 — several elements per cache
// line, so address arithmetic is the bottleneck) and gcd(|s|, pk) >= k
// (local step 8 — one cache line per element, memory-latency bound,
// reported for honesty). The periodic class gets the ICS'94-applicable and
// the general one-cycle shapes (period 64), plus a short period: p=16,
// k=64, s=48 has gcd(|s|, pk) = 16, so each rank replays a 4-offset cycle.
// The row labels keep their original names (the CI gate reads them).
// Sizes keep per-rank working sets cache-resident (except strided-fs,
// deliberately sized to stream) so the rows measure address-sequence cost,
// not DRAM bandwidth.
const Config kConfigs[] = {
    {"run-copy", 16, 64, 1, 512'000},
    {"strided", 16, 1, 3, 256'000},
    {"strided-fs", 16, 8, 16, 1'000'000},
    {"periodic-gap", 16, 64, 35, 128'000},
    {"periodic-gap-gl", 16, 64, 67, 128'000},
    {"periodic-gap-short", 16, 64, 48, 128'000},
};

// 16-byte element: a complex-double stand-in.
struct Pair {
  double re, im;
  friend bool operator==(const Pair&, const Pair&) = default;
};
static_assert(sizeof(Pair) == 16);

template <typename T>
T make_value(i64 i) {
  if constexpr (std::is_same_v<T, Pair>) {
    return Pair{static_cast<double>(i), static_cast<double>(i) * 0.5};
  } else {
    return static_cast<T>(i & 0x7f);
  }
}

// The pre-kernel scalar walk: one AM-table gap per element, each address
// serially dependent on the previous (`la += gaps[gi]`).
template <typename T>
void gather_am_walk(const AccessPattern& pat, i64 n, const T* local, T* out) {
  i64 la = pat.start_local;
  std::size_t gi = 0;
  const std::size_t glen = pat.gaps.size();
  for (i64 i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] = local[static_cast<std::size_t>(la)];
    la += pat.gaps[gi];
    if (++gi == glen) gi = 0;
  }
}

struct Row {
  AccessClass cls = AccessClass::kRuns;
  double base_us = 0.0;
  double kern_us = 0.0;
  i64 base_count = 0;  ///< element count of the slowest-baseline rank
  i64 kern_count = 0;  ///< element count of the slowest-kernel rank
  bool ok = true;
};

template <typename T>
Row run_config(const Config& c, int repeats) {
  Row row;
  const BlockCyclic dist(c.p, c.k);
  const RegularSection sec{0, (c.accesses - 1) * c.s, c.s};
  const i64 size = sec.last() + 1;
  for (i64 m = 0; m < c.p; ++m) {
    const SectionPlan plan = AddressEngine::global().plan(dist, sec, m);
    if (plan.empty()) continue;
    const KernelPlan kp = compile_kernel(plan);
    if (!kp.bulk()) {
      row.ok = false;
      continue;
    }
    row.cls = kp.cls();
    const i64 n = kp.count();
    const AccessPattern pat = plan.make_pattern();
    std::vector<T> local(static_cast<std::size_t>(dist.local_size(m, size)));
    for (std::size_t i = 0; i < local.size(); ++i) local[i] = make_value<T>(static_cast<i64>(i));
    std::vector<T> base_out(static_cast<std::size_t>(n)), kern_out(static_cast<std::size_t>(n));

    // Correctness gate before timing: the kernel gather must densify the
    // exact element sequence the scalar walk produces.
    gather_am_walk(pat, n, local.data(), base_out.data());
    kernel_gather(kp, local.data(), kern_out.data());
    if (base_out != kern_out) {
      std::cerr << "VERIFICATION FAILED: " << c.label << " esize " << sizeof(T) << " rank "
                << m << "\n";
      row.ok = false;
      continue;
    }

    const double bt = time_best_us(repeats, [&] {
      gather_am_walk(pat, n, local.data(), base_out.data());
      do_not_optimize(base_out.data());
    });
    const double kt = time_best_us(repeats, [&] {
      kernel_gather(kp, local.data(), kern_out.data());
      do_not_optimize(kern_out.data());
    });
    if (bt > row.base_us) {
      row.base_us = bt;
      row.base_count = n;
    }
    if (kt > row.kern_us) {
      row.kern_us = kt;
      row.kern_count = n;
    }
  }
  return row;
}

/// Bytes moved per microsecond == MB/s.
double mbps(i64 count, std::size_t esize, double us) {
  return static_cast<double>(count) * static_cast<double>(esize) / us;
}

template <typename T>
void add_row(TextTable& table, const Config& c, int repeats, bool& ok) {
  const Row r = run_config<T>(c, repeats);
  ok = ok && r.ok;
  table.add_row({c.label, access_class_name(r.cls), TextTable::num(static_cast<i64>(sizeof(T))),
                 TextTable::num(c.p), TextTable::num(c.k), TextTable::num(c.s),
                 TextTable::num(c.accesses), TextTable::fixed(r.base_us, 1),
                 TextTable::fixed(r.kern_us, 1),
                 TextTable::fixed(mbps(r.base_count, sizeof(T), r.base_us), 0),
                 TextTable::fixed(mbps(r.kern_count, sizeof(T), r.kern_us), 0),
                 TextTable::fixed(r.base_us / r.kern_us, 2)});
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = want_csv(argc, argv);
  const bool json = want_json(argc, argv);
  const obs::CliOptions obs_opt = obs_options(argc, argv);
  const int repeats = 7;

  std::cout << "Kernel gather throughput vs scalar AM gap-table walk "
               "(max over ranks, best of "
            << repeats << ")\n\n";

  TextTable table({"label", "kernel", "esize", "p", "k", "s", "n", "scalar_us", "kernel_us",
                   "scalar_mbps", "kernel_mbps", "speedup"});
  bool ok = true;
  for (const Config& c : kConfigs) {
    add_row<unsigned char>(table, c, repeats, ok);
    add_row<float>(table, c, repeats, ok);
    add_row<double>(table, c, repeats, ok);
    add_row<Pair>(table, c, repeats, ok);
  }

  emit(table, csv);
  if (json) {
    JsonWriter w("BENCH_kernel_throughput.json");
    w.add_table("kernel_throughput", table);
    w.write();
  }
  emit_obs(obs_opt);
  return ok ? 0 : 1;
}
