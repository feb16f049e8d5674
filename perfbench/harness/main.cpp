// cyclick_perfbench — end-to-end benchmark of the mini-HPF DSL path.
//
//   cyclick_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--trace-out FILE] [--corrupt-reference]
//   cyclick_perfbench --workload NAME --seed N --emit-program STEPS
//
// Every workload is a generated program run through dsl::Machine on the
// user-default path (bytecode tier, sequential SPMD executor), or for
// stencil1d_proc on --backend=proc rank processes launched the way hpfc
// launches them. --trace 0 reports the end-to-end metrics; --trace 1 runs
// the traced run and reports the per-layer metrics. Either way the final
// arrays are checked against a serial reference, and the last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is nonzero when any check fails.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cyclick/compiler/interp.hpp"
#include "cyclick/net/launcher.hpp"
#include "cyclick/net/socket_transport.hpp"
#include "cyclick/obs/metrics.hpp"
#include "cyclick/obs/trace.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using cyclick::i64;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool corrupt = false;
  i64 emit_steps = -1;
  // Rank-process arguments (stencil1d_proc only).
  std::string result;
  bool setup_only = false;
};

/// setup_s is the median of at least kSetupReps cold starts, continued
/// until they have taken kSetupBudgetS (at most kMaxSetupReps), so short
/// setups get enough samples for a steady median.
constexpr int kSetupReps = 9;
constexpr int kMaxSetupReps = 101;
constexpr double kSetupBudgetS = 0.5;
constexpr int kProcSetupReps = 7;
/// Traced run: machine steps alternate between untraced and traced blocks
/// of this many steps; at most kMaxTracedSteps run traced, so the telemetry
/// span rings (2^17 events per rank, see begin_obs) do not overflow.
constexpr i64 kTraceBlock = 25;
constexpr i64 kMaxTracedSteps = 4000;

/// Untimed steps before measuring: enough for the stencils' caches to warm,
/// and for sections_cold to fill every cache to capacity so the timed steps
/// run in the eviction regime.
i64 warmup_steps(const Workload& w) { return w.kind == Kind::kSectionsCold ? 400 : 10; }

/// Fixed replay length per workload (counts must repeat exactly, so the
/// traced replay is step-bounded, not time-bounded).
i64 replay_steps(const Workload& w) {
  switch (w.kind) {
    case Kind::kStencil1d: return w.proc ? 300 : 60;
    case Kind::kSectionsCold: return 3000;
    case Kind::kHeat2d: return 100;
  }
  return 1;
}

double seconds_since(i64 t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the samples at or below it.
  const auto idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) - 1;
  return v[std::min(idx, v.size() - 1)];
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

i64 obs_count(const char* name) { return cyclick::obs::Registry::global().counter(name).total(); }
double obs_span_us(const char* name) {
  for (const auto& t : cyclick::obs::TraceSink::global().span_totals())
    if (t.name == name) return t.total_us;
  return 0.0;
}
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One reported metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines printed before the JSON

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void print() const {
    for (const auto& n : notes) std::cout << n << "\n";
    for (const auto& m : metrics)
      std::cout << std::left << std::setw(34) << m.name << std::setprecision(10) << m.value
                << " " << m.unit << "\n";
    std::cout << "failed_frac " << ratio(static_cast<double>(failed), static_cast<double>(attempted))
              << " (" << failed << "/" << attempted << " steps)\n";
    std::ostringstream js;
    js << std::setprecision(17) << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
      js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
  }
};

// ---------------------------------------------------------------------------
// Running the program and checking it

std::unique_ptr<cyclick::dsl::Machine> new_machine() {
  auto m = std::make_unique<cyclick::dsl::Machine>(cyclick::SpmdExecutor::Mode::kSequential);
  m->set_tier(cyclick::dsl::Tier::kBytecode);
  return m;
}

/// Timed steps of one machine.
struct Steps {
  std::vector<double> us;
  double elements = 0.0;
  i64 threw = 0;
};

void append(Steps& into, const Steps& more) {
  into.us.insert(into.us.end(), more.us.begin(), more.us.end());
  into.elements += more.elements;
  into.threw += more.threw;
}

/// Run steps next, next+1, ... until `budget_s` elapses (at most max_steps).
Steps run_steps(cyclick::dsl::Machine& m, Workload& w, i64& next, double budget_s,
                i64 max_steps = -1) {
  Steps s;
  // A fixed reservation: the sample buffer grows by the pages it touches,
  // never by a reallocation that would show in peak_rss_mb.
  s.us.reserve(max_steps > 0 ? static_cast<std::size_t>(max_steps) : std::size_t{1} << 21);
  const i64 start = now_ns();
  while (seconds_since(start) < budget_s && (max_steps < 0 || static_cast<i64>(s.us.size()) < max_steps)) {
    const std::string text = w.step_text(next);
    const i64 t0 = now_ns();
    try {
      m.run_source(text);
    } catch (const std::exception& e) {
      if (s.threw++ == 0) std::cerr << "step " << next << " failed: " << e.what() << "\n";
    }
    s.us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    s.elements += static_cast<double>(w.step_elements(next));
    ++next;
  }
  return s;
}

void warm_up(cyclick::dsl::Machine& m, Workload& w, i64& next) {
  for (i64 i = 0; i < warmup_steps(w); ++i) m.run_source(w.step_text(next++));
}

/// Result of comparing a machine's arrays with the serial reference.
struct Check {
  i64 mismatches = 0;
  bool reduce_ok = true;
  double serial_us = 0.0;  ///< serial reference time per step
  [[nodiscard]] bool ok() const { return mismatches == 0 && reduce_ok; }
};

/// Recompute `steps` steps serially and compare every array bit for bit,
/// and the value of the workload's reduction (check_text, already run)
/// within a relative tolerance of 1e-9 of the sum of magnitudes (the
/// library reduces in per-rank order, the reference in index order).
Check check_machine(cyclick::dsl::Machine& m, Workload& w, i64 steps, bool corrupt) {
  Check c;
  Reference ref(w);
  const i64 t0 = now_ns();
  for (i64 i = 0; i < steps; ++i) ref.step(w, i);
  c.serial_us = steps > 0 ? static_cast<double>(now_ns() - t0) * 1e-3 / static_cast<double>(steps)
                          : 0.0;
  if (corrupt) ref.mutable_image(0)[1] += 1.0;
  for (std::size_t a = 0; a < w.arrays.size(); ++a) {
    const std::vector<double> got = m.global_image(w.arrays[a]);
    const std::vector<double>& want = ref.image(a);
    if (got.size() != want.size()) {
      c.mismatches += static_cast<i64>(want.size());
      continue;
    }
    for (std::size_t i = 0; i < want.size(); ++i)
      if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) ++c.mismatches;
  }
  double mag = 0.0;
  for (const double x : ref.image(0)) mag += std::fabs(x);
  c.reduce_ok = std::fabs(m.scalar("r") - ref.check_sum()) <= 1e-9 * mag;
  return c;
}

void score(Report& r, const Steps& s, const Check& c) {
  r.attempted = static_cast<i64>(s.us.size());
  r.failed = c.ok() ? s.threw : r.attempted;
  if (!c.ok()) {
    r.correct = false;
    r.notes.push_back("CHECK FAILED: " + std::to_string(c.mismatches) +
                      " elements differ from the serial reference" +
                      (c.reduce_ok ? "" : "; reduction outside tolerance"));
  }
  if (s.threw > 0) r.correct = false;
}

void add_end_to_end(Report& r, double setup_s, const Steps& s, double rss_mb) {
  double total_us = 0.0;
  for (const double x : s.us) total_us += x;
  const auto n = static_cast<i64>(s.us.size());
  const i64 beyond = n - static_cast<i64>(std::ceil(0.99 * static_cast<double>(n)));
  std::ostringstream p99;
  p99 << "timed steps: " << n << "; step_us_p99 " << quantile(s.us, 0.99) << " us (" << beyond
      << " samples beyond)";
  r.notes.push_back(p99.str());
  r.add("setup_s", setup_s, "s");
  r.add("step_us_p50", median(s.us), "us");
  // The gated tail is p90: on a shared host p99 is set by other tenants'
  // bursts and spreads 0.27-0.47 across seeds; p99 is printed above.
  r.add("step_us_p90", quantile(s.us, 0.90), "us");
  r.add("elems_per_s", total_us > 0.0 ? s.elements / (total_us * 1e-6) : 0.0, "1/s");
  r.add("peak_rss_mb", rss_mb, "MB");
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics

struct MachineObs {
  double compile_us = 0.0;
  double program_hit_ratio = 0.0;
  double fallback_frac = 0.0;
  double table_hit_ratio = 0.0;
  double plan_hit_ratio = 0.0;
};

/// Read the existing obs counters after the traced run's machine steps;
/// `steps` is how many ran with telemetry on (setup's cold step included).
MachineObs read_machine_obs(i64 steps) {
  MachineObs o;
  o.compile_us = ratio(obs_span_us("jit.compile"), static_cast<double>(steps));
  const auto hits = static_cast<double>(obs_count("jitcache.hits"));
  o.program_hit_ratio = ratio(hits, hits + static_cast<double>(obs_count("jitcache.misses")));
  o.fallback_frac = ratio(static_cast<double>(obs_count("jit.fallbacks")),
                          static_cast<double>(obs_count("dsl.statements")));
  const auto th = static_cast<double>(obs_count("engine.tables.hits"));
  o.table_hit_ratio = ratio(th, th + static_cast<double>(obs_count("engine.tables.misses")));
  const auto ph = static_cast<double>(obs_count("plancache.hits") + obs_count("regioncache.hits"));
  o.plan_hit_ratio = ratio(
      ph, ph + static_cast<double>(obs_count("plancache.misses") + obs_count("regioncache.misses")));
  return o;
}

void begin_obs() {
  cyclick::obs::Registry::global().reset();
  cyclick::obs::TraceSink::global().clear();
  cyclick::obs::TraceSink::global().set_capacity(i64{1} << 17);
  cyclick::obs::set_enabled(true);
}

/// Network figures of the proc workload (zero elsewhere).
struct NetStats {
  double launch_ms = 0.0, send_us = 0.0, wait_us = 0.0, msgs = 0.0, bytes = 0.0, failed = 0.0;
};

/// Replay twice on cold state: the first pass with telemetry on (strategy
/// and plan counts from the existing counters), the second with it off for
/// the layer timings. Both passes must produce identical exact counts.
void add_layer_metrics(Report& r, Workload& w, const Options& opt, double machine_step_us,
                       const MachineObs& mo, double trace_overhead, double serial_us,
                       const NetStats& net) {
  const i64 steps = replay_steps(w);
  const auto per = [steps](double x) { return x / static_cast<double>(steps); };

  SpanLog log1;
  begin_obs();
  const ReplayResult p1 = replay(w, steps, log1);
  cyclick::obs::set_enabled(false);
  std::map<std::string, double> strategy;
  for (const char* s : {"trivial_local", "dense_runs", "pure_cyclic", "fixed_step", "hiranandani",
                        "general_lattice"})
    strategy[s] = per(static_cast<double>(obs_count((std::string("engine.strategy.") + s).c_str())));
  const double engine_plans = per(static_cast<double>(obs_count("engine.plans")));

  SpanLog log;
  const ReplayResult p2 = replay(w, steps, log);
  const ReplayCounts& c = p2.counts;
  const SelfTimes st = self_times(log);

  if (!(p1.counts == c)) {
    r.correct = false;
    r.notes.push_back("CHECK FAILED: replay counts differ between two passes of one seed");
  }
  if (p1.mismatches + p2.mismatches > 0) {
    r.correct = false;
    r.notes.push_back("CHECK FAILED: layer replay differs from the serial reference");
  }
  double layers_us = 0.0;
  for (const auto& [name, us] : st.self_us) layers_us += us;
  const double recon = layers_us + st.unattributed_us;
  if (!st.nested || std::fabs(recon - st.wall_us) > 1e-6 * st.wall_us) {
    r.correct = false;
    r.notes.push_back("CHECK FAILED: span self times do not reconcile with the traced wall");
  }
  r.notes.push_back("replay: " + std::to_string(steps) + " steps, " +
                    std::to_string(c.statements) + " statements, " +
                    std::to_string(c.commplan_builds) + " copy-plan builds, " +
                    std::to_string(c.region_builds) + " region-plan builds, " +
                    std::to_string(c.messages) + " messages, " +
                    std::to_string(c.moved_elements * 8) + " bytes moved (exact; both passes agree)");
  std::ostringstream rec;
  rec << "reconciliation: layer self " << layers_us << " us + unattributed " << st.unattributed_us
      << " us = " << recon << " us; traced wall " << st.wall_us << " us";
  r.notes.push_back(rec.str());
  for (const auto& [name, us] : st.self_us) {
    std::ostringstream line;
    line << "  self " << name << " " << us << " us";
    r.notes.push_back(line.str());
  }

  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    log.write_jsonl(out);
  }

  const auto self = [&](const char* name) {
    const auto it = st.self_us.find(name);
    return it == st.self_us.end() ? 0.0 : it->second;
  };
  // Core and runtime work of each replayed step (the Table 1 probe is the
  // benchmark's own extra call, so it is left out), compared by median with
  // the untraced machine step.
  std::vector<double> core_runtime_us;
  for (const auto& [step, names] : st.by_step) {
    double us = 0.0;
    for (const auto& [name, t] : names)
      if ((name.rfind("core.", 0) == 0 && name != "core.table_build") ||
          name.rfind("runtime.", 0) == 0)
        us += t;
    core_runtime_us.push_back(us);
  }

  r.add("compiler.parse_us", per(self("compiler.parse")), "us");
  r.add("compiler.step_overhead_us", machine_step_us - median(core_runtime_us), "us");
  r.add("compiler.compile_us", mo.compile_us, "us");
  r.add("compiler.program_hit_ratio", mo.program_hit_ratio, "ratio");
  r.add("compiler.fallback_frac", mo.fallback_frac, "ratio");
  r.add("core.engine_plan_us", per(self("core.engine_plan")), "us");
  r.add("core.engine_plans", engine_plans, "count");
  for (const auto& [name, v] : strategy) r.add("core.strategy." + name, v, "count");
  r.add("core.table_build_us", ratio(self("core.table_build"), static_cast<double>(c.table_builds)),
        "us");
  r.add("core.table_hit_ratio", mo.table_hit_ratio, "ratio");
  r.add("core.kernel_us", per(self("core.kernel")), "us");
  r.add("core.kernel_bytes", per(static_cast<double>(c.kernel_bytes)), "B");
  r.add("core.kernel_compile_us", per(self("core.kernel_compile")), "us");
  r.add("runtime.commplan_build_us", per(self("runtime.commplan_build")), "us");
  r.add("runtime.commplan_builds", per(static_cast<double>(c.commplan_builds)), "count");
  r.add("runtime.commplan_bytes",
        ratio(static_cast<double>(c.commplan_bytes), static_cast<double>(c.commplan_builds)), "B");
  r.add("runtime.plan_hit_ratio", mo.plan_hit_ratio, "ratio");
  r.add("runtime.copy_exec_us", per(self("runtime.copy_exec")), "us");
  r.add("runtime.copy_bytes", per(static_cast<double>(c.moved_elements) * 8.0), "B");
  r.add("runtime.redist_build_us", per(self("runtime.redist_build")), "us");
  r.add("runtime.redist_exec_us", per(self("runtime.redist_exec")), "us");
  r.add("runtime.region_build_us", per(self("runtime.region_build")), "us");
  r.add("runtime.region_exec_us", per(self("runtime.region_exec")), "us");
  r.add("runtime.elementwise_us", per(self("runtime.elementwise")), "us");
  r.add("runtime.msgs_per_step", per(static_cast<double>(c.messages)), "count");
  r.add("runtime.remote_frac",
        ratio(static_cast<double>(c.remote_elements), static_cast<double>(c.moved_elements)), "ratio");
  r.add("net.launch_ms", net.launch_ms, "ms");
  r.add("net.send_us", net.send_us, "us");
  r.add("net.wait_us", net.wait_us, "us");
  r.add("net.msgs", net.msgs, "count");
  r.add("net.bytes", net.bytes, "B");
  r.add("net.failed", net.failed, "count");
  r.add("obs.trace_overhead_frac", trace_overhead, "ratio");
  r.add("unattributed_frac", ratio(st.unattributed_us, st.wall_us), "ratio");
  r.add("baseline.serial_us", serial_us, "us");
}

// ---------------------------------------------------------------------------
// stencil1d_proc: rank processes over the socket mesh

/// Rank role. Every rank runs the whole (replicated) program; rank 0 times
/// the steps and decides, after each one, whether the world continues.
int rank_main(const Options& opt) {
  namespace net = cyclick::net;
  const i64 rank = *net::rank_from_env();
  const i64 world = net::world_from_env(0);  // set by the launcher
  auto mesh = net::SocketTransport::connect_mesh(rank, world, net::net_dir_from_env());
  const i64 connect_ns = now_ns();
  TimingTransport timing(*mesh);
  cyclick::process_context() = cyclick::ProcessContext{rank, world, mesh.get()};

  // Control traffic goes straight to the mesh, outside the timing decorator.
  const auto barrier = [&] {
    if (rank == 0) {
      for (i64 q = 1; q < world; ++q) (void)mesh->recv(0, q);
      for (i64 q = 1; q < world; ++q) mesh->send(0, q, std::vector<std::byte>(1));
    } else {
      mesh->send(rank, 0, std::vector<std::byte>(1));
      (void)mesh->recv(rank, 0);
    }
  };
  const auto agree = [&](bool go) {  // rank 0's decision, broadcast
    if (rank == 0) {
      for (i64 q = 1; q < world; ++q)
        mesh->send(0, q, std::vector<std::byte>(1, static_cast<std::byte>(go ? 1 : 0)));
      return go;
    }
    return mesh->recv(rank, 0).at(0) == std::byte{1};
  };
  // A fixed-length block of steps; every rank runs the same count.
  const auto block = [&](cyclick::dsl::Machine& m, Workload& w, i64& next) {
    Steps s;
    for (i64 k = 0; k < kTraceBlock; ++k, ++next) {
      const std::string text = w.step_text(next);
      const i64 t0 = now_ns();
      try {
        m.run_source(text);
      } catch (const std::exception& e) {
        if (s.threw++ == 0) std::cerr << "rank " << rank << " step " << next << ": " << e.what() << "\n";
      }
      s.us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      s.elements += static_cast<double>(w.step_elements(next));
    }
    return s;
  };

  Workload w = make_workload(opt.workload, opt.seed);
  if (opt.trace) begin_obs();
  auto m = new_machine();
  m->run_source(w.setup_text);
  m->run_source(w.step_text(0));
  const i64 first_ns = now_ns();
  barrier();
  std::ostringstream out;
  out << std::setprecision(17) << "connect_ns " << connect_ns << "\nfirst_ns " << first_ns << "\n";
  if (!opt.setup_only) {
    i64 next = 1;
    warm_up(*m, w, next);
    // Untraced blocks; in the traced run they alternate with traced blocks
    // (timing decorator installed, telemetry on). Rank 0 decides, before
    // each round, whether the world runs another.
    Steps a, b;
    const i64 start = now_ns();
    const double budget = opt.trace ? opt.seconds * 0.4 : opt.seconds;
    while (agree(seconds_since(start) < budget &&
                 static_cast<i64>(b.us.size()) < kMaxTracedSteps)) {
      cyclick::obs::set_enabled(false);
      append(a, block(*m, w, next));
      if (!opt.trace) continue;
      cyclick::process_context() = cyclick::ProcessContext{rank, world, &timing};
      cyclick::obs::set_enabled(true);
      append(b, block(*m, w, next));
      cyclick::obs::set_enabled(false);
      cyclick::process_context() = cyclick::ProcessContext{rank, world, mesh.get()};
    }
    const MachineObs mo = read_machine_obs(next - static_cast<i64>(a.us.size()));
    const double wait_obs_us = obs_span_us("redist.pipe.inflight");
    m->run_source(w.check_text);  // every rank runs the same statements
    barrier();
    if (rank == 0) {
      const Check c = check_machine(*m, w, next, opt.corrupt);
      const double nb = std::max<double>(1.0, static_cast<double>(b.us.size()));
      out << "mismatches " << c.mismatches << "\nreduce_ok " << c.reduce_ok << "\nserial_us "
          << c.serial_us << "\nthrew " << a.threw + b.threw << "\nelements " << a.elements
          << "\ncompile_us " << mo.compile_us << "\nprogram_hit_ratio " << mo.program_hit_ratio
          << "\nfallback_frac " << mo.fallback_frac << "\ntable_hit_ratio " << mo.table_hit_ratio
          << "\nplan_hit_ratio " << mo.plan_hit_ratio << "\nsend_us "
          << static_cast<double>(timing.send_ns.load()) * 1e-3 / nb << "\nwait_us "
          << (static_cast<double>(timing.wait_ns.load()) * 1e-3 + wait_obs_us) / nb << "\nmsgs "
          << static_cast<double>(timing.msgs.load()) / nb << "\nbytes "
          << static_cast<double>(timing.bytes.load()) / nb << "\nnet_failed " << timing.failed.load()
          << "\n";
      for (const double x : a.us) out << "a " << x << "\n";
      for (const double x : b.us) out << "b " << x << "\n";
    }
  }
  cyclick::process_context() = cyclick::ProcessContext{};
  if (rank == 0) {
    std::ofstream f(opt.result);
    f << out.str();
    if (!f) return 1;
  }
  return 0;
}

/// What the launcher learns from one series of proc worlds.
struct World {
  bool ok = false;
  std::vector<double> setups;    ///< s, spawn to the end of rank 0's first step
  std::vector<double> launches;  ///< ms, spawn to rank 0's mesh connect
  std::map<std::string, double> kv;  ///< rank 0's figures
  Steps a, b;                        ///< untraced and traced step times
};

/// Launcher role: spawn the world kProcSetupReps times (each a cold start);
/// the last world also runs the timed steps.
World launch_world(const Options& opt, const char* argv0, i64 ranks) {
  namespace net = cyclick::net;
  World world;
  for (int rep = 0; rep < kProcSetupReps; ++rep) {
    const bool last = rep == kProcSetupReps - 1;
    const char* tmp = std::getenv("TMPDIR");
    const std::string result = std::string(tmp != nullptr && *tmp != '\0' ? tmp : ".") +
                               "/perfbench-rank0-" + std::to_string(::getpid()) + ".txt";
    std::remove(result.c_str());
    const i64 t0 = now_ns();
    std::vector<std::string> args{argv0,         "--workload", opt.workload,
                                  "--seed",      std::to_string(opt.seed),
                                  "--seconds",   std::to_string(opt.seconds),
                                  "--trace",     opt.trace ? "1" : "0",
                                  "--result",    result};
    if (opt.corrupt) args.push_back("--corrupt-reference");
    if (!last) args.push_back("--setup-only");
    std::vector<net::ExitStatus> statuses;
    {
      net::ProcessGroup group(ranks);
      group.spawn_exec(args);
      statuses = group.wait_all(static_cast<i64>((opt.seconds * 2 + 60) * 1000));
    }
    const std::string failures = net::describe_failures(statuses);
    std::ifstream in(result);
    if (!failures.empty() || !in) {
      std::cerr << "rank processes failed:\n" << failures;
      return world;
    }
    std::string key;
    double v = 0.0;
    while (in >> key >> v) {
      if (key == "a")
        world.a.us.push_back(v);
      else if (key == "b")
        world.b.us.push_back(v);
      else
        world.kv[key] = v;
    }
    std::remove(result.c_str());
    world.setups.push_back((world.kv["first_ns"] - static_cast<double>(t0)) * 1e-9);
    world.launches.push_back((world.kv["connect_ns"] - static_cast<double>(t0)) * 1e-6);
  }
  world.a.elements = world.kv["elements"];
  world.a.threw = static_cast<i64>(world.kv["threw"]);
  world.ok = true;
  return world;
}

Check world_check(World& world) {
  Check c;
  c.mismatches = static_cast<i64>(world.kv["mismatches"]);
  c.reduce_ok = world.kv["reduce_ok"] != 0.0;
  c.serial_us = world.kv["serial_us"];
  return c;
}

NetStats world_net(World& world) {
  return NetStats{median(world.launches), world.kv["send_us"],  world.kv["wait_us"],
                  world.kv["msgs"],       world.kv["bytes"],    world.kv["net_failed"]};
}

Report run_proc(const Options& opt, const char* argv0) {
  Workload w = make_workload(opt.workload, opt.seed);
  Report r;
  r.notes.push_back("workload " + w.name + " seed " + std::to_string(opt.seed) + ": n=" +
                    std::to_string(w.n) + ", " + std::to_string(w.procs) + " rank processes");
  World world = launch_world(opt, argv0, w.procs);
  const double rss = peak_rss_mb(RUSAGE_CHILDREN);  // the largest rank process
  if (!world.ok) {
    r.correct = false;
    r.attempted = r.failed = 1;
    return r;
  }
  const Check c = world_check(world);
  if (!opt.trace) {
    add_end_to_end(r, median(world.setups), world.a, rss);
    score(r, world.a, c);
    return r;
  }
  Steps all = world.a;
  append(all, world.b);
  score(r, all, c);
  auto& kv = world.kv;
  const MachineObs mo{kv["compile_us"], kv["program_hit_ratio"], kv["fallback_frac"],
                      kv["table_hit_ratio"], kv["plan_hit_ratio"]};
  // The layer replay runs in this process on the same statements; plans for
  // a machine of this size are identical whichever backend executes them.
  add_layer_metrics(r, w, opt, median(world.a.us), mo,
                    median(world.b.us) / median(world.a.us) - 1.0, c.serial_us, world_net(world));
  return r;
}

// ---------------------------------------------------------------------------
// In-process workloads

Report run_inproc(const Options& opt, const char* argv0) {
  Workload w = make_workload(opt.workload, opt.seed);
  Report r;
  r.notes.push_back("workload " + w.name + " seed " + std::to_string(opt.seed) + ": n=" +
                    std::to_string(w.n) + ", " + std::to_string(w.procs) + " ranks");
  std::unique_ptr<cyclick::dsl::Machine> m;
  std::vector<double> setups;
  // The traced run keeps telemetry on from source text, so the cache hit
  // ratios it reads cover the cold start as well as the steady state.
  if (opt.trace) begin_obs();
  const i64 setup_start = now_ns();
  for (int rep = 0; rep < (opt.trace ? 1 : kMaxSetupReps); ++rep) {
    if (rep >= kSetupReps && seconds_since(setup_start) >= kSetupBudgetS) break;
    m.reset();
    clear_library_caches();
    const i64 t0 = now_ns();
    m = new_machine();
    m->run_source(w.setup_text);
    m->run_source(w.step_text(0));
    setups.push_back(seconds_since(t0));
  }
  i64 next = 1;
  warm_up(*m, w, next);

  if (!opt.trace) {
    const Steps s = run_steps(*m, w, next, opt.seconds);
    const double rss = peak_rss_mb(RUSAGE_SELF);
    m->run_source(w.check_text);
    const Check c = check_machine(*m, w, next, opt.corrupt);
    add_end_to_end(r, median(setups), s, rss);
    score(r, s, c);
    std::ostringstream base;
    base << "baseline.serial_us " << c.serial_us << " us per step (serial reference)";
    r.notes.push_back(base.str());
    return r;
  }

  // Traced run: blocks of untraced steps (telemetry off) alternate with
  // traced ones (on), so drift lands on both alike; then the layer replay.
  Steps a, b;
  const i64 start = now_ns();
  while (seconds_since(start) < opt.seconds * 0.4 && static_cast<i64>(b.us.size()) < kMaxTracedSteps) {
    cyclick::obs::set_enabled(false);
    append(a, run_steps(*m, w, next, opt.seconds, kTraceBlock));
    cyclick::obs::set_enabled(true);
    append(b, run_steps(*m, w, next, opt.seconds, kTraceBlock));
  }
  cyclick::obs::set_enabled(false);
  const MachineObs mo = read_machine_obs(next - static_cast<i64>(a.us.size()));
  m->run_source(w.check_text);
  const Check c = check_machine(*m, w, next, opt.corrupt);
  Steps all = a;
  append(all, b);
  score(r, all, c);
  NetStats wire;
  if (w.kind == Kind::kStencil1d) {
    // net has no in-process path, so stencil1d's traced run adds a short leg
    // of the same program on rank processes (stencil1d_proc) for net.*.
    Options leg = opt;
    leg.workload = "stencil1d_proc";
    leg.seconds = opt.seconds * 0.25;
    World world = launch_world(leg, argv0, make_workload(leg.workload, leg.seed).procs);
    const Check lc = world_check(world);
    if (!world.ok || !lc.ok() || world.a.threw > 0) {
      r.correct = false;
      r.notes.push_back("CHECK FAILED: the stencil1d_proc leg failed");
    }
    wire = world_net(world);
  }
  add_layer_metrics(r, w, opt, median(a.us), mo, median(b.us) / median(a.us) - 1.0, c.serial_us,
                    wire);
  return r;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--corrupt-reference") o.corrupt = true;
    else if (a == "--emit-program") o.emit_steps = std::stoll(value());
    else if (a == "--result") o.result = value();
    else if (a == "--setup-only") o.setup_only = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end())
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cyclick_perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    if (cyclick::net::rank_from_env().has_value()) return rank_main(opt);
    if (opt.emit_steps >= 0) {
      Workload w = make_workload(opt.workload, opt.seed);
      std::cout << w.setup_text;
      for (i64 i = 0; i < opt.emit_steps; ++i) std::cout << w.step_text(i);
      return 0;
    }
    const Report r = opt.workload == "stencil1d_proc" ? run_proc(opt, argv[0]) : run_inproc(opt, argv[0]);
    r.print();
    return r.correct && r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "cyclick_perfbench: " << e.what() << "\n";
    return 1;
  }
}
