#include "replay.hpp"

#include <chrono>
#include <cstring>
#include <list>
#include <memory>
#include <unordered_map>

#include "cyclick/compiler/bytecode.hpp"
#include "cyclick/compiler/parser.hpp"
#include "cyclick/core/engine.hpp"
#include "cyclick/core/kernels.hpp"
#include "cyclick/runtime/multidim_array.hpp"
#include "cyclick/runtime/plan_cache.hpp"
#include "cyclick/runtime/redistribute.hpp"

namespace perfbench {

using namespace cyclick;

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans

int SpanLog::open(const char* name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, now_ns(), 0, parent, step_});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

void SpanLog::write_jsonl(std::ostream& os) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"step\":" << s.step
       << "}\n";
  }
}

SelfTimes self_times(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<i64> child_ns(spans.size(), 0);
  SelfTimes out;
  for (const auto& s : spans) {
    if (s.parent < 0) continue;
    const auto& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) out.nested = false;
    child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const i64 self = s.end_ns - s.start_ns - child_ns[i];
    if (self < 0) out.nested = false;
    if (s.parent < 0) {
      out.wall_us += static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      out.unattributed_us += static_cast<double>(self) * 1e-3;
    } else {
      out.self_us[s.name] += static_cast<double>(self) * 1e-3;
      out.by_step[s.step][s.name] += static_cast<double>(self) * 1e-3;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Timing transport

template <typename F>
auto TimingTransport::guarded(F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (...) {
    failed.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
}

void TimingTransport::send(i64 from, i64 to, std::vector<std::byte> payload) {
  const i64 n = static_cast<i64>(payload.size());
  const i64 t0 = now_ns();
  guarded([&] { inner_.send(from, to, std::move(payload)); });
  send_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  msgs.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(n, std::memory_order_relaxed);
}

void TimingTransport::isend(i64 from, i64 to, std::vector<std::byte> payload,
                            CompletionQueue* cq, i64 tag) {
  const i64 n = static_cast<i64>(payload.size());
  const i64 t0 = now_ns();
  guarded([&] { inner_.isend(from, to, std::move(payload), cq, tag); });
  send_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  msgs.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(n, std::memory_order_relaxed);
}

std::vector<std::byte> TimingTransport::recv(i64 to, i64 from) {
  const i64 t0 = now_ns();
  auto payload = guarded([&] { return inner_.recv(to, from); });
  wait_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  return payload;
}

void TimingTransport::irecv(i64 to, i64 from, CompletionQueue& cq, i64 tag) {
  guarded([&] { inner_.irecv(to, from, cq, tag); });
}

bool TimingTransport::try_recv(i64 to, i64 from, std::vector<std::byte>& out) {
  return guarded([&] { return inner_.try_recv(to, from, out); });
}

// ---------------------------------------------------------------------------
// Layer replay

void clear_library_caches() {
  AddressEngine::global().clear_cache();
  PlanCache::global().clear();
  RegionPlanCache::global().clear();
  dsl::bc::ProgramCache::global().clear();
}

namespace {

/// What the bytecode tier keeps per compiled 1-D statement: the destination
/// kernels (one per rank) and the operand plans resolved at compile time.
struct CompiledStmt {
  std::vector<KernelPlan> kernels;
  std::vector<std::shared_ptr<const CommPlan>> plans;
};

/// LRU with the library's ProgramCache capacity, so the replay misses and
/// hits where the program under test does.
class StmtCache {
 public:
  explicit StmtCache(std::size_t capacity) : capacity_(capacity) {}
  CompiledStmt* find(const std::string& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }
  CompiledStmt* insert(const std::string& key, CompiledStmt stmt) {
    order_.emplace_front(key, std::move(stmt));
    map_[key] = order_.begin();
    if (order_.size() > capacity_) {
      map_.erase(order_.back().first);
      order_.pop_back();
    }
    return &order_.front().second;
  }

 private:
  std::size_t capacity_;
  std::list<std::pair<std::string, CompiledStmt>> order_;
  std::unordered_map<std::string, std::list<std::pair<std::string, CompiledStmt>>::iterator>
      map_;
};

constexpr std::size_t kLibraryCacheCapacity = 128;  // ProgramCache / PlanCache default

RegularSection sec_of(const Sec& s) { return RegularSection{s.lower, s.upper, s.stride}; }

using Array1 = DistributedArray<double>;
using ArrayN = MultiDimArray<double>;

class Replayer {
 public:
  Replayer(Workload& w, SpanLog& log)
      : w_(w), log_(log), exec_(w.procs), stmts_(kLibraryCacheCapacity),
        plans_(kLibraryCacheCapacity) {}

  ReplayResult run(i64 steps);

 private:
  void init_1d(const Reference& ref);
  void init_2d(const Reference& ref);
  void stencil_statement(int stmt);
  void cold_statement(const ColdStep& s, const std::string& text);
  void heat_statement(int stmt);
  std::shared_ptr<const CommPlan> copy_plan(const Array1& src, const RegularSection& ssec,
                                            Array1& dst, const RegularSection& dsec);
  void execute(const CommPlan& plan, const Array1& src, Array1& dst);
  void engine_plans(const Array1& a, const RegularSection& sec);
  void table_probe(const BlockCyclic& dist, i64 stride);
  [[nodiscard]] std::string mapping_key() const;

  Workload& w_;
  SpanLog& log_;
  SpmdExecutor exec_;
  ReplayCounts c_;
  StmtCache stmts_;
  PlanCache plans_;
  AddressEngine table_engine_{1};
  std::vector<std::unique_ptr<Array1>> a1_;     // the program's 1-D arrays
  std::vector<std::unique_ptr<Array1>> temps1_; // destination-shaped temporaries
  std::vector<std::unique_ptr<ArrayN>> an_;
  std::vector<std::unique_ptr<ArrayN>> tempsn_;
  std::vector<std::shared_ptr<const RedistributionPlan>> region_plans_;
  std::vector<double> lanes_;
};

void Replayer::init_1d(const Reference& ref) {
  for (std::size_t a = 0; a < w_.arrays.size(); ++a) {
    a1_.push_back(std::make_unique<Array1>(BlockCyclic(w_.procs, w_.block[a]), w_.n));
    for (i64 i = 0; i < w_.n; ++i) a1_[a]->set(i, ref.image(a)[static_cast<std::size_t>(i)]);
  }
  if (w_.kind == Kind::kStencil1d)
    for (int t = 0; t < 2; ++t)
      temps1_.push_back(std::make_unique<Array1>(a1_[0]->dist(), w_.n));
}

void Replayer::init_2d(const Reference& ref) {
  const auto mapping = [&] {
    std::vector<DimMapping> dims;
    for (int d = 0; d < 2; ++d)
      dims.emplace_back(w_.n, AffineAlignment::identity(), BlockCyclic(2, w_.block[d]));
    return MultiDimMapping{std::move(dims), ProcessorGrid{{2, 2}}};
  };
  for (std::size_t a = 0; a < w_.arrays.size(); ++a) {
    an_.push_back(std::make_unique<ArrayN>(mapping()));
    an_[a]->scatter(ref.image(a));
  }
  for (int t = 0; t < 4; ++t) tempsn_.push_back(std::make_unique<ArrayN>(mapping()));
  region_plans_.resize(8);
}

std::string Replayer::mapping_key() const {
  std::string key;
  for (const auto& a : a1_) {
    key += '|';
    key += std::to_string(a->dist().block_size());
  }
  return key;
}

void Replayer::engine_plans(const Array1& a, const RegularSection& sec) {
  Scope s(log_, "core.engine_plan");
  for (i64 r = 0; r < w_.procs; ++r) (void)owned_plan(a, sec, r);
}

void Replayer::table_probe(const BlockCyclic& dist, i64 stride) {
  // Paper Table 1: one table construction on a cleared engine.
  Scope s(log_, "core.table_build");
  table_engine_.clear_cache();
  (void)table_engine_.tables(dist, stride < 0 ? -stride : stride);
  ++c_.table_builds;
}

std::shared_ptr<const CommPlan> Replayer::copy_plan(const Array1& src, const RegularSection& ssec,
                                                    Array1& dst, const RegularSection& dsec) {
  const PlanKey key = make_plan_key(src, ssec, dst, dsec, exec_);
  if (auto hit = plans_.find(key)) return hit;
  // A miss: replay the engine's per-rank plans for both sides, then the build.
  engine_plans(dst, dsec);
  engine_plans(src, ssec);
  std::shared_ptr<const CommPlan> plan;
  {
    Scope s(log_, "runtime.commplan_build");
    plan = std::make_shared<const CommPlan>(build_copy_plan(src, ssec, dst, dsec, exec_));
  }
  ++c_.commplan_builds;
  c_.commplan_bytes += static_cast<i64>(plan->plan_bytes());
  plans_.insert(key, plan);
  return plan;
}

void Replayer::execute(const CommPlan& plan, const Array1& src, Array1& dst) {
  {
    Scope s(log_, "runtime.copy_exec");
    execute_copy_plan(plan, src, dst, exec_);
  }
  c_.messages += plan.message_count();
  c_.remote_elements += plan.remote_elements();
  c_.moved_elements += plan.total_elements();
}

void Replayer::stencil_statement(int stmt) {
  // dst(1:n-2) = (src(0:n-3) + src(2:n-1)) / 2, lowered the way the bytecode
  // tier lowers it: operand plans into destination-shaped temporaries, then
  // per rank the lane arithmetic, between a kernel gather and scatter unless
  // the destination is one contiguous span.
  Array1& src = *a1_[static_cast<std::size_t>(stmt)];
  Array1& dst = *a1_[static_cast<std::size_t>(1 - stmt)];
  const i64 n = w_.n;
  const RegularSection dsec{1, n - 2, 1};
  const RegularSection ops[2] = {{0, n - 3, 1}, {2, n - 1, 1}};
  const std::string key = std::to_string(stmt) + mapping_key();
  CompiledStmt* prog = stmts_.find(key);
  if (prog == nullptr) {
    CompiledStmt cs;
    std::vector<SectionPlan> sp;
    {
      Scope s(log_, "core.engine_plan");
      for (i64 r = 0; r < w_.procs; ++r) sp.push_back(owned_plan(dst, dsec, r));
    }
    table_probe(dst.dist(), 1);
    {
      Scope s(log_, "core.kernel_compile");
      for (const SectionPlan& p : sp) cs.kernels.push_back(compile_kernel(p));
    }
    for (int o = 0; o < 2; ++o)
      cs.plans.push_back(copy_plan(src, ops[o], *temps1_[static_cast<std::size_t>(o)], dsec));
    prog = stmts_.insert(key, std::move(cs));
  }
  for (int o = 0; o < 2; ++o)
    execute(*prog->plans[static_cast<std::size_t>(o)], src, *temps1_[static_cast<std::size_t>(o)]);
  for (i64 r = 0; r < w_.procs; ++r) {
    const KernelPlan& kp = prog->kernels[static_cast<std::size_t>(r)];
    const auto cnt = static_cast<std::size_t>(kp.count());
    if (kp.cls() == KernelClass::kRunCopy) {
      // One contiguous local span: the bytecode tier points its lanes at the
      // spans and stores in place, with no gather or scatter.
      const double* l0 = temps1_[0]->local(r).data() + kp.first_local();
      const double* l1 = temps1_[1]->local(r).data() + kp.first_local();
      double* out = dst.local(r).data() + kp.first_local();
      for (std::size_t i = 0; i < cnt; ++i) out[i] = (l0[i] + l1[i]) / 2.0;
      continue;
    }
    lanes_.resize(3 * cnt);
    double* l0 = lanes_.data();
    double* l1 = l0 + cnt;
    double* out = l1 + cnt;
    {
      Scope s(log_, "core.kernel");
      kernel_gather(kp, temps1_[0]->local(r).data(), l0);
      kernel_gather(kp, temps1_[1]->local(r).data(), l1);
    }
    for (std::size_t i = 0; i < cnt; ++i) out[i] = (l0[i] + l1[i]) / 2.0;
    {
      Scope s(log_, "core.kernel");
      kernel_scatter(kp, dst.local(r).data(), out);
    }
    c_.kernel_bytes += 3 * kp.count() * static_cast<i64>(sizeof(double));
  }
}

void Replayer::cold_statement(const ColdStep& s, const std::string& text) {
  Array1& dst = *a1_[static_cast<std::size_t>(s.dst)];
  if (s.redistribute) {
    const RegularSection whole{0, w_.n - 1, 1};
    auto fresh = std::make_unique<Array1>(BlockCyclic(w_.procs, s.block), w_.n);
    RedistributionPlan plan;
    {
      Scope sc(log_, "runtime.redist_build");
      plan = build_redistribution_plan(dst, whole, *fresh, whole, exec_);
    }
    {
      Scope sc(log_, "runtime.redist_exec");
      execute_redistribution(plan, dst, *fresh, exec_);
    }
    ++c_.redist_builds;
    c_.messages += plan.message_count();
    c_.remote_elements += plan.remote_elements();
    c_.moved_elements += plan.total_elements();
    a1_[static_cast<std::size_t>(s.dst)] = std::move(fresh);
    return;
  }
  // Whole-statement copies compile to a delegation to the copy engine, which
  // consults the plan cache on every execution.
  const Array1& src = *a1_[static_cast<std::size_t>(1 - s.dst)];
  const RegularSection dsec = sec_of(s.dsec);
  const RegularSection ssec = sec_of(s.ssec);
  const std::string key = text + mapping_key();
  if (stmts_.find(key) == nullptr) {
    table_probe(dst.dist(), dsec.stride);
    table_probe(src.dist(), ssec.stride);
    stmts_.insert(key, CompiledStmt{});
  }
  execute(*copy_plan(src, ssec, dst, dsec), src, dst);
}

void Replayer::heat_statement(int stmt) {
  // dst(in, in) = (four shifted src regions, summed left to right) / 4 — the
  // bytecode tier declines N-D statements, so this is the interpreter's
  // lowering: region copies into temporaries, then region elementwise work.
  const ArrayN& src = *an_[static_cast<std::size_t>(stmt)];
  ArrayN& dst = *an_[static_cast<std::size_t>(1 - stmt)];
  const i64 n = w_.n;
  const RegularSection in{1, n - 2, 1}, lo{0, n - 3, 1}, hi{2, n - 1, 1};
  const Region dreg{in, in};
  const Region sreg[4] = {{lo, in}, {hi, in}, {in, lo}, {in, hi}};
  for (int o = 0; o < 4; ++o) {
    auto& plan = region_plans_[static_cast<std::size_t>(stmt * 4 + o)];
    if (plan == nullptr) {
      Scope s(log_, "runtime.region_build");
      plan = std::make_shared<const RedistributionPlan>(
          build_region_plan(src, sreg[o], *tempsn_[static_cast<std::size_t>(o)], dreg, exec_));
      ++c_.region_builds;
    }
    {
      Scope s(log_, "runtime.region_exec");
      execute_redistribution(*plan, src, *tempsn_[static_cast<std::size_t>(o)], exec_);
    }
    c_.messages += plan->message_count();
    c_.remote_elements += plan->remote_elements();
    c_.moved_elements += plan->total_elements();
  }
  Scope s(log_, "runtime.elementwise");
  ArrayN& acc = *tempsn_[0];
  for (std::size_t o = 1; o < 4; ++o) {
    const ArrayN& rhs = *tempsn_[o];
    exec_.run([&](i64 rank) {
      auto la = acc.local(rank);
      auto lb = rhs.local(rank);
      for_each_owned_region(acc, dreg, rank, [&](const std::vector<i64>&, i64 addr) {
        const auto i = static_cast<std::size_t>(addr);
        la[i] = la[i] + lb[i];
      });
    });
  }
  transform_region(acc, dreg, [](double x) { return x / 4.0; }, exec_);
  exec_.run([&](i64 rank) {
    auto out = dst.local(rank);
    auto lin = acc.local(rank);
    for_each_owned_region(dst, dreg, rank, [&](const std::vector<i64>&, i64 addr) {
      out[static_cast<std::size_t>(addr)] = lin[static_cast<std::size_t>(addr)];
    });
  });
}

ReplayResult Replayer::run(i64 steps) {
  Reference ref(w_);
  if (w_.kind == Kind::kHeat2d)
    init_2d(ref);
  else
    init_1d(ref);
  for (i64 i = 0; i < steps; ++i) {
    const std::string text = w_.step_text(i);
    log_.set_step(i);
    Scope step(log_, "step");
    {
      Scope s(log_, "compiler.parse");
      (void)dsl::parse(text);
    }
    switch (w_.kind) {
      case Kind::kStencil1d:
        stencil_statement(0);
        stencil_statement(1);
        c_.statements += 2;
        break;
      case Kind::kHeat2d:
        heat_statement(0);
        heat_statement(1);
        c_.statements += 2;
        break;
      case Kind::kSectionsCold:
        cold_statement(w_.cold_step(i), text);
        c_.statements += 1;
        break;
    }
  }
  ReplayResult out;
  out.counts = c_;
  for (i64 i = 0; i < steps; ++i) ref.step(w_, i);
  for (std::size_t a = 0; a < w_.arrays.size(); ++a) {
    const std::vector<double> got = w_.kind == Kind::kHeat2d ? an_[a]->gather() : a1_[a]->gather();
    const std::vector<double>& want = ref.image(a);
    for (std::size_t i = 0; i < want.size(); ++i)
      if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) ++out.mismatches;
  }
  return out;
}

}  // namespace

ReplayResult replay(Workload& w, i64 steps, SpanLog& log) {
  clear_library_caches();
  Replayer r(w, log);
  return r.run(steps);
}

}  // namespace perfbench
