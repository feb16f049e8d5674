#include "cyclick/compiler/interp.hpp"

#include <cstdlib>
#include <functional>
#include <limits>
#include <sstream>

#include "cyclick/compiler/jit.hpp"
#include "cyclick/compiler/parser.hpp"
#include "cyclick/core/aligned.hpp"
#include "cyclick/core/engine.hpp"
#include "cyclick/obs/metrics.hpp"
#include "cyclick/obs/trace.hpp"
#include "cyclick/runtime/intrinsics.hpp"
#include "cyclick/runtime/section_ops.hpp"

namespace cyclick::dsl {
namespace {

// Per-statement-kind trace labels (string literals: TraceEvent stores the
// pointer, so span names must have static lifetime).
constexpr const char* stmt_label(const ProcsDecl&) { return "dsl.procs"; }
constexpr const char* stmt_label(const TemplateDecl&) { return "dsl.template"; }
constexpr const char* stmt_label(const DistributeDecl&) { return "dsl.distribute"; }
constexpr const char* stmt_label(const ArrayDecl&) { return "dsl.array"; }
constexpr const char* stmt_label(const AssignStmt&) { return "dsl.assign"; }
constexpr const char* stmt_label(const ScalarAssignStmt&) { return "dsl.scalar_assign"; }
constexpr const char* stmt_label(const PrintStmt&) { return "dsl.print"; }
constexpr const char* stmt_label(const ExplainStmt&) { return "dsl.explain"; }
constexpr const char* stmt_label(const RedistributeStmt&) { return "dsl.redistribute"; }
constexpr const char* stmt_label(const WhereStmt&) { return "dsl.where"; }
constexpr const char* stmt_label(const RepeatStmt&) { return "dsl.repeat"; }

constexpr std::size_t kTempPoolCap = 16;

/// The DSL's named reductions (sum, min, max) over arr(region).
double reduce_named(const std::string& op, const DistributedArray<double>& arr,
                    const Region& region, const SpmdExecutor& exec) {
  if (op == "sum") return reduce_region(arr, region, 0.0, std::plus<>(), exec);
  if (op == "min")
    return reduce_region(arr, region, std::numeric_limits<double>::infinity(),
                         [](double a, double b) { return a < b ? a : b; }, exec);
  return reduce_region(arr, region, -std::numeric_limits<double>::infinity(),
                       [](double a, double b) { return a > b ? a : b; }, exec);
}

}  // namespace

const SectionRef* find_reduce_anchor(const Expr& e) noexcept {
  switch (e.kind) {
    case Expr::Kind::kSection:
      return &e.section;
    case Expr::Kind::kUnaryMinus:
      return find_reduce_anchor(*e.lhs);
    case Expr::Kind::kBinary: {
      const SectionRef* a = find_reduce_anchor(*e.lhs);
      return a != nullptr ? a : find_reduce_anchor(*e.rhs);
    }
    default:
      return nullptr;  // shifts and nested reductions don't pin an ordering
  }
}

Tier tier_from_env(Tier fallback) noexcept {
  const char* v = std::getenv("CYCLICK_TIER");
  if (v == nullptr) return fallback;
  const std::string_view sv(v);
  if (sv == "interp") return Tier::kInterp;
  if (sv == "bytecode") return Tier::kBytecode;
  return fallback;
}

bool parse_tier_flag(const std::string& arg, Tier& out) noexcept {
  if (arg.rfind("--tier=", 0) != 0) return false;
  const std::string_view value(arg.c_str() + 7);
  if (value == "interp") out = Tier::kInterp;
  if (value == "bytecode") out = Tier::kBytecode;
  return true;
}

const char* tier_name(Tier tier) noexcept {
  return tier == Tier::kBytecode ? "bytecode" : "interp";
}

Machine::Machine(SpmdExecutor::Mode mode)
    : mode_(mode), tier_(tier_from_env(Tier::kBytecode)) {}

Machine::~Machine() = default;

JitEngine& Machine::jit() {
  if (!jit_) jit_ = std::make_unique<JitEngine>(*this);
  return *jit_;
}

void Machine::run_source(std::string_view source) { run(parse(source)); }

void Machine::run(const Program& program) {
  // The const memo keys on AST node addresses; a fresh top-level run may see
  // a different Program object at the same addresses, so only nested runs
  // (repeat bodies — where hoisting pays off) keep their entries.
  if (run_depth_ == 0) const_memo_.clear();
  ++run_depth_;
  struct Depth {
    int& d;
    ~Depth() { --d; }
  } depth{run_depth_};
  for (const Statement& stmt : program.statements)
    std::visit(
        [this](const auto& s) {
          CYCLICK_COUNT("dsl.statements", 0, 1);
          CYCLICK_SPAN(stmt_label(s), obs::kMainTid);
          exec(s);
        },
        stmt);
}

std::unique_ptr<DistributedArray<double>> Machine::acquire_temp(const MultiDimMapping& map) {
  for (auto it = temp_pool_.begin(); it != temp_pool_.end(); ++it) {
    if ((*it)->mapping() == map) {
      auto out = std::move(*it);
      temp_pool_.erase(it);
      CYCLICK_COUNT("dsl.temp_pool_hits", 0, 1);
      // Stale values are fine: every consumer fully writes the owned slots
      // it later reads (plan unpacks, ramps, and shifts cover the region).
      return out;
    }
  }
  CYCLICK_COUNT("dsl.temp_pool_misses", 0, 1);
  return std::make_unique<DistributedArray<double>>(map);
}

std::unique_ptr<DistributedArray<double>> Machine::acquire_temp(const BlockCyclic& dist,
                                                                 i64 n) {
  return acquire_temp(MultiDimMapping({DimMapping(n, AffineAlignment::identity(), dist)},
                                      ProcessorGrid({dist.procs()})));
}

void Machine::release_temp(std::unique_ptr<DistributedArray<double>> temp) {
  if (temp && temp_pool_.size() < kTempPoolCap) temp_pool_.push_back(std::move(temp));
}

const DistributedArray<double>& Machine::array(const std::string& name) const {
  return *lookup(name, 0).arr;
}

std::vector<double> Machine::global_image(const std::string& name) const {
  return array(name).gather();
}

double Machine::scalar(const std::string& name) const {
  const auto it = scalars_.find(name);
  if (it == scalars_.end()) throw dsl_error("unknown scalar '" + name + "'", 0);
  return it->second;
}

void Machine::trace(const std::string& line) {
  if (tracing_) {
    trace_ += line;
    trace_ += '\n';
  }
}

void Machine::exec(const ProcsDecl& d) {
  for (const i64 e : d.extents)
    if (e < 1) throw dsl_error("processor count must be positive", d.line);
  procs_[d.name] = d.extents;
}

void Machine::exec(const TemplateDecl& d) {
  for (const i64 e : d.extents)
    if (e < 1) throw dsl_error("template size must be positive", d.line);
  templates_[d.name] = TemplateInfo{d.extents, {}, d.line};
}

void Machine::exec(const DistributeDecl& d) {
  const auto t = templates_.find(d.tmpl);
  if (t == templates_.end()) throw dsl_error("unknown template '" + d.tmpl + "'", d.line);
  const auto p = procs_.find(d.procs);
  if (p == procs_.end())
    throw dsl_error("unknown processor arrangement '" + d.procs + "'", d.line);
  const std::size_t dims = t->second.extents.size();
  if (p->second.size() != dims)
    throw dsl_error("processor arrangement '" + d.procs + "' has " +
                        std::to_string(p->second.size()) + " dimensions, template needs " +
                        std::to_string(dims),
                    d.line);
  if (d.clauses.size() != dims)
    throw dsl_error("distribute needs one clause per template dimension (" +
                        std::to_string(dims) + ")",
                    d.line);
  std::vector<BlockCyclic> dists;
  for (std::size_t dim = 0; dim < dims; ++dim) {
    const DistClause& c = d.clauses[dim];
    const i64 pd = p->second[dim];
    switch (c.kind) {
      case DistClause::Kind::kCyclicK:
        if (c.block < 1) throw dsl_error("block size must be positive", d.line);
        dists.emplace_back(pd, c.block);
        break;
      case DistClause::Kind::kCyclic:
        dists.push_back(BlockCyclic::cyclic(pd));
        break;
      case DistClause::Kind::kBlock:
        dists.push_back(BlockCyclic::block(t->second.extents[dim], pd));
        break;
    }
  }
  t->second.dists = std::move(dists);
}

void Machine::exec(const ArrayDecl& d) {
  for (const i64 e : d.extents)
    if (e < 1) throw dsl_error("array size must be positive", d.line);
  const auto t = templates_.find(d.tmpl);
  if (t == templates_.end()) throw dsl_error("unknown template '" + d.tmpl + "'", d.line);
  if (!t->second.distributed())
    throw dsl_error("template '" + d.tmpl + "' is not distributed yet", d.line);
  const std::size_t dims = d.extents.size();
  if (t->second.extents.size() != dims)
    throw dsl_error("array and template dimensionality differ", d.line);
  if (d.align.size() != dims) throw dsl_error("alignment arity mismatch", d.line);

  // Per-dimension alignment validation: the whole array must land inside
  // the template.
  std::vector<AffineAlignment> aligns;
  for (std::size_t dim = 0; dim < dims; ++dim) {
    if (d.align[dim].a == 0)
      throw dsl_error("alignment coefficient must be nonzero", d.line);
    const AffineAlignment al{d.align[dim].a, d.align[dim].b};
    const i64 c0 = al.cell(0);
    const i64 c1 = al.cell(d.extents[dim] - 1);
    const i64 lo = c0 < c1 ? c0 : c1;
    const i64 hi = c0 < c1 ? c1 : c0;
    if (lo < 0 || hi >= t->second.extents[dim])
      throw dsl_error("alignment maps array outside template '" + d.tmpl + "'", d.line);
    aligns.push_back(al);
  }

  std::vector<DimMapping> mapping;
  std::vector<i64> grid_extents;
  for (std::size_t dim = 0; dim < dims; ++dim) {
    mapping.emplace_back(d.extents[dim], aligns[dim], t->second.dists[dim]);
    grid_extents.push_back(t->second.dists[dim].procs());
  }
  arrays_[d.name] = ArrayInfo{std::make_unique<DistributedArray<double>>(MultiDimMapping{
                                  std::move(mapping), ProcessorGrid{grid_extents}}),
                              d.tmpl};
}

Machine::ArrayInfo& Machine::lookup(const std::string& name, int line) {
  const auto it = arrays_.find(name);
  if (it == arrays_.end()) throw dsl_error("unknown array '" + name + "'", line);
  return it->second;
}

const Machine::ArrayInfo& Machine::lookup(const std::string& name, int line) const {
  const auto it = arrays_.find(name);
  if (it == arrays_.end()) throw dsl_error("unknown array '" + name + "'", line);
  return it->second;
}

Region Machine::make_region(const SectionRef& ref, const DistributedArray<double>& arr) {
  // Rank-1 references keep the 1-D wording of their errors.
  const std::size_t nd = arr.dims();
  if (ref.subs.size() != nd)
    throw dsl_error(nd == 1 ? "array '" + ref.array + "' is one-dimensional"
                            : "array '" + ref.array + "' has " + std::to_string(nd) +
                                  " dimensions, reference has " +
                                  std::to_string(ref.subs.size()),
                    ref.line);
  Region region;
  for (std::size_t dim = 0; dim < nd; ++dim) {
    const Triplet& t = ref.subs[dim];
    if (t.stride == 0) throw dsl_error("section stride must be nonzero", ref.line);
    const RegularSection sec{t.lower, t.upper, t.stride};
    const i64 extent = arr.mapping().dim(dim).extent;
    if (sec.empty())
      throw dsl_error(nd == 1 ? "section " + sec.to_string() + " is empty"
                              : "empty section in dimension " + std::to_string(dim),
                      ref.line);
    if (sec.lower < 0 || sec.lower >= extent || sec.last() < 0 || sec.last() >= extent)
      throw dsl_error("section " + sec.to_string() + " out of bounds" +
                          (nd == 1 ? " for array of size " + std::to_string(extent)
                                   : " in dimension " + std::to_string(dim)),
                      ref.line);
    region.push_back(sec);
  }
  return region;
}

double Machine::apply_op(char op, double x, double y, int line) {
  switch (op) {
    case '+': return x + y;
    case '-': return x - y;
    case '*': return x * y;
    case '/':
      if (y == 0.0) throw dsl_error("division by zero", line);
      return x / y;
    default: throw dsl_error("bad operator", line);
  }
}

bool Machine::is_const_scalar(const Expr& e) noexcept {
  switch (e.kind) {
    case Expr::Kind::kScalar:
      return true;
    case Expr::Kind::kUnaryMinus:
      return is_const_scalar(*e.lhs);
    case Expr::Kind::kBinary:
      return is_const_scalar(*e.lhs) && is_const_scalar(*e.rhs);
    default:
      return false;  // variables, sections, and reductions can change
  }
}

double Machine::eval_scalar(const Expr& e, int line) {
  if (!is_const_scalar(e)) return eval_scalar_uncached(e, line);
  const auto it = const_memo_.find(&e);
  if (it != const_memo_.end()) return it->second;
  // Division by zero in a constant subtree throws before the emplace, so a
  // failing expression is re-evaluated (and re-raises) on every iteration —
  // the same behavior as the unmemoized walk.
  const double v = eval_scalar_uncached(e, line);
  const_memo_.emplace(&e, v);
  return v;
}

double Machine::eval_scalar_uncached(const Expr& e, int line) {
  switch (e.kind) {
    case Expr::Kind::kScalar:
      return e.scalar;
    case Expr::Kind::kScalarVar: {
      const auto it = scalars_.find(e.name);
      if (it == scalars_.end()) throw dsl_error("unknown scalar '" + e.name + "'", e.line);
      return it->second;
    }
    case Expr::Kind::kReduce: {
      if (e.lhs) {
        // Reduction over an expression: evaluate the operand tree into a
        // destination-shaped temporary against the anchor section (first
        // array section in the tree), then reduce that temporary.
        const SectionRef* anchor = find_reduce_anchor(*e.lhs);
        if (anchor == nullptr)
          throw dsl_error("reduction over an expression needs an array section operand",
                          e.line);
        const DistributedArray<double>& arr = *lookup(anchor->array, e.line).arr;
        if (arr.dims() != 1)
          throw dsl_error("reduction over expressions supports one-dimensional arrays",
                          e.line);
        const Region region = make_region(*anchor, arr);
        const SpmdExecutor exec_ctx(arr.dist().procs(), mode_);
        Value v = eval(*e.lhs, arr, region, exec_ctx);
        if (v.is_scalar())
          throw dsl_error("reduction over an expression needs an array section operand",
                          e.line);
        const double out = reduce_named(e.reduce_op, *v.temp, region, exec_ctx);
        release_temp(std::move(v.temp));
        return out;
      }
      const DistributedArray<double>& arr = *lookup(e.section.array, e.line).arr;
      const Region region = make_region(e.section, arr);
      return reduce_named(e.reduce_op, arr, region,
                          SpmdExecutor(arr.mapping().grid().rank_count(), mode_));
    }
    case Expr::Kind::kUnaryMinus:
      return -eval_scalar(*e.lhs, line);
    case Expr::Kind::kBinary:
      return apply_op(e.op, eval_scalar(*e.lhs, line), eval_scalar(*e.rhs, line), e.line);
    case Expr::Kind::kSection:
    case Expr::Kind::kShift:
    case Expr::Kind::kRamp:
      throw dsl_error("array-valued expression not allowed in scalar context", e.line);
  }
  throw dsl_error("bad expression", line);
}

Machine::Value Machine::eval(const Expr& e, const DistributedArray<double>& dst,
                             const Region& dregion, const SpmdExecutor& exec_ctx) {
  switch (e.kind) {
    case Expr::Kind::kScalar:
    case Expr::Kind::kScalarVar:
    case Expr::Kind::kReduce: {
      Value v;
      v.scalar = eval_scalar(e, e.line);
      return v;
    }
    case Expr::Kind::kShift: {
      if (dregion.size() != 1)
        throw dsl_error("cshift/eoshift are not supported for multidimensional arrays",
                        e.line);
      const DistributedArray<double>& src = *lookup(e.name, e.line).arr;
      if (src.dims() != 1)
        throw dsl_error("cshift/eoshift require a one-dimensional array", e.line);
      const i64 n = src.size();
      if (dregion[0].size() != n)
        throw dsl_error("shift expression has " + std::to_string(n) +
                            " elements, statement needs " + std::to_string(dregion[0].size()),
                        e.line);
      auto shifted = acquire_temp(src.dist(), n);
      trace(std::string("  ") + (e.circular ? "cshift " : "eoshift ") + e.name + " by " +
            std::to_string(e.shift));
      if (e.circular) {
        cshift(src, *shifted, e.shift, exec_ctx);
      } else {
        eoshift(src, *shifted, e.shift, e.scalar, exec_ctx);
      }
      Value v;
      v.temp = acquire_temp(dst.mapping());
      copy_section(*shifted, RegularSection{0, n - 1, 1}, *v.temp, dregion[0], exec_ctx);
      release_temp(std::move(shifted));
      return v;
    }
    case Expr::Kind::kSection: {
      const auto [src, sregion] = operand(e, dst, dregion);
      Value v;
      v.temp = acquire_temp(dst.mapping());
      copy_traced(e.section.array, src, sregion, "temp@", *v.temp, dregion, exec_ctx);
      return v;
    }
    case Expr::Kind::kRamp: {
      // forall index as a value: the t-th element of the statement is the
      // index value ramp_lower + t*ramp_stride.
      if (dregion.size() != 1)
        throw dsl_error("forall is not supported for multidimensional arrays", e.line);
      Value v;
      v.temp = acquire_temp(dst.mapping());
      exec_ctx.run([&](i64 rank) {
        auto local = v.temp->local(rank);
        for_each_owned(*v.temp, dregion[0], rank, [&](i64 t, i64 addr) {
          local[static_cast<std::size_t>(addr)] =
              static_cast<double>(e.ramp_lower + t * e.ramp_stride);
        });
      });
      return v;
    }
    case Expr::Kind::kUnaryMinus: {
      Value v = eval(*e.lhs, dst, dregion, exec_ctx);
      if (v.is_scalar()) {
        v.scalar = -v.scalar;
        return v;
      }
      transform_region(*v.temp, dregion, [](double x) { return -x; }, exec_ctx);
      return v;
    }
    case Expr::Kind::kBinary: {
      Value a = eval(*e.lhs, dst, dregion, exec_ctx);
      Value b = eval(*e.rhs, dst, dregion, exec_ctx);
      const char op = e.op;
      const int line = e.line;
      if (a.is_scalar() && b.is_scalar()) {
        a.scalar = apply_op(op, a.scalar, b.scalar, line);
        return a;
      }
      if (!a.is_scalar() && b.is_scalar()) {
        transform_region(*a.temp, dregion,
                         [&](double x) { return apply_op(op, x, b.scalar, line); },
                         exec_ctx);
        return a;
      }
      if (a.is_scalar() && !b.is_scalar()) {
        transform_region(*b.temp, dregion,
                         [&](double y) { return apply_op(op, a.scalar, y, line); },
                         exec_ctx);
        return b;
      }
      if (tracing_)
        trace(std::string("  combine local '") + op + "' over " + region_text(dregion));
      combine_region(*a.temp, *b.temp, dregion,
                     [&](double x, double y) { return apply_op(op, x, y, line); }, exec_ctx);
      release_temp(std::move(b.temp));
      return a;
    }
  }
  throw dsl_error("bad expression", e.line);
}

std::pair<const DistributedArray<double>&, Region> Machine::operand(
    const Expr& e, const DistributedArray<double>& dst, const Region& dregion) {
  const DistributedArray<double>& src = *lookup(e.section.array, e.line).arr;
  if (src.dims() != dst.dims())
    throw dsl_error("cannot mix array dimensionalities in one statement", e.line);
  Region sregion = make_region(e.section, src);
  for (std::size_t d = 0; d < sregion.size(); ++d) {
    if (sregion[d].size() == dregion[d].size()) continue;
    if (sregion.size() == 1)
      throw dsl_error("section length mismatch: " + sregion[0].to_string() + " has " +
                          std::to_string(sregion[0].size()) + " elements, statement needs " +
                          std::to_string(dregion[0].size()),
                      e.line);
    throw dsl_error("section extent mismatch in dimension " + std::to_string(d), e.line);
  }
  if (src.mapping().grid().rank_count() != dst.mapping().grid().rank_count())
    throw dsl_error("arrays in one statement must share a processor arrangement", e.line);
  return {src, std::move(sregion)};
}

void Machine::copy_traced(const std::string& src_name, const DistributedArray<double>& src,
                          const Region& sregion, const std::string& dst_text,
                          DistributedArray<double>& dst, const Region& dregion,
                          const SpmdExecutor& exec_ctx) {
  if (tracing_) {
    // The cached plan the copy replays (a same-mapping copy runs locally,
    // and its plan reports all-local counts).
    i64 messages = 0;
    i64 remote = 0;
    if (dregion.size() == 1) {
      const auto plan = cached_copy_plan(src, sregion[0], dst, dregion[0], exec_ctx);
      messages = plan->message_count();
      remote = plan->remote_elements();
    } else {
      const auto plan = cached_region_plan(src, sregion, dst, dregion, exec_ctx);
      messages = plan->message_count();
      remote = plan->remote_elements();
    }
    trace("  copy " + src_name + region_text(sregion) + " -> " + dst_text +
          region_text(dregion) + "  [messages=" + std::to_string(messages) +
          ", remote=" + std::to_string(remote) + "/" + std::to_string(region_size(sregion)) +
          "]");
  }
  copy_region(src, sregion, dst, dregion, exec_ctx);
}

void Machine::exec(const AssignStmt& s) {
  if (tier_ == Tier::kBytecode && jit().try_assign(s)) return;
  DistributedArray<double>& dst = *lookup(s.target.array, s.line).arr;
  const Region dregion = make_region(s.target, dst);
  if (tracing_) trace("assign " + s.target.array + region_text(dregion));
  const SpmdExecutor exec_ctx(dst.mapping().grid().rank_count(), mode_);
  // A bare section copy is one runtime copy on either tier: no
  // destination-shaped temporary, no store pass.
  if (s.value->kind == Expr::Kind::kSection) {
    const auto [src, sregion] = operand(*s.value, dst, dregion);
    copy_traced(s.value->section.array, src, sregion, s.target.array, dst, dregion, exec_ctx);
    return;
  }
  Value v = eval(*s.value, dst, dregion, exec_ctx);
  if (v.is_scalar()) {
    trace("  fill scalar");
    fill_region(dst, dregion, v.scalar, exec_ctx);
    return;
  }
  trace("  store local from temp");
  copy_region(*v.temp, dregion, dst, dregion, exec_ctx);
  release_temp(std::move(v.temp));
}

void Machine::exec(const ScalarAssignStmt& s) {
  if (tier_ == Tier::kBytecode && jit().try_scalar_assign(s)) return;
  scalars_[s.name] = eval_scalar(*s.value, s.line);
}

void Machine::exec(const RedistributeStmt& s) {
  ArrayInfo& info = lookup(s.array, s.line);
  if (info.arr->dims() != 1)
    throw dsl_error("redistribute supports one-dimensional arrays", s.line);
  const auto pr = procs_.find(s.procs);
  if (pr == procs_.end())
    throw dsl_error("unknown processor arrangement '" + s.procs + "'", s.line);
  if (pr->second.size() != 1)
    throw dsl_error("redistribute target must be a 1-D processor arrangement", s.line);
  DistributedArray<double>& old = *info.arr;
  const i64 p = pr->second[0];
  if (p != old.dist().procs())
    throw dsl_error("redistribute cannot change the processor count", s.line);

  BlockCyclic new_dist = old.dist();
  switch (s.kind) {
    case DistClause::Kind::kCyclicK:
      if (s.block < 1) throw dsl_error("block size must be positive", s.line);
      new_dist = BlockCyclic(p, s.block);
      break;
    case DistClause::Kind::kCyclic:
      new_dist = BlockCyclic::cyclic(p);
      break;
    case DistClause::Kind::kBlock:
      new_dist = BlockCyclic::block(old.size(), p);
      break;
  }
  auto fresh = std::make_unique<DistributedArray<double>>(new_dist, old.size());
  const RegularSection whole{0, old.size() - 1, 1};
  const SpmdExecutor exec_ctx(p, mode_);
  // A remap is one-shot: its plan is built, run once, and not cached.
  const RedistributionPlan plan = build_redistribution_plan(old, whole, *fresh, whole, exec_ctx);
  if (tracing_) {
    trace("redistribute " + s.array + " -> cyclic(" + std::to_string(new_dist.block_size()) +
          ")  [messages=" + std::to_string(plan.message_count()) +
          ", remote=" + std::to_string(plan.remote_elements()) + "/" +
          std::to_string(old.size()) + ", phases=" + std::to_string(plan.phases) + "]");
  }
  execute_redistribution(plan, old, *fresh, exec_ctx);
  info.arr = std::move(fresh);
  info.tmpl.clear();  // the array now lives on an anonymous template
}

void Machine::exec(const WhereStmt& s) {
  if (tier_ == Tier::kBytecode && jit().try_where(s)) return;
  DistributedArray<double>& dst = *lookup(s.target.array, s.line).arr;
  if (dst.dims() != 1) throw dsl_error("where supports one-dimensional arrays", s.line);
  const Region dregion = make_region(s.target, dst);
  const SpmdExecutor exec_ctx(dst.dist().procs(), mode_);

  const auto holds = [&](double x, double y) -> bool {
    if (s.relop == "<") return x < y;
    if (s.relop == ">") return x > y;
    if (s.relop == "<=") return x <= y;
    if (s.relop == ">=") return x >= y;
    if (s.relop == "==") return x == y;
    return x != y;  // "!="
  };

  // Evaluate both mask operands and the value against the target section.
  Value ml = eval(*s.mask_lhs, dst, dregion, exec_ctx);
  Value mr = eval(*s.mask_rhs, dst, dregion, exec_ctx);
  Value v = eval(*s.value, dst, dregion, exec_ctx);

  exec_ctx.run([&](i64 rank) {
    auto out = dst.local(rank);
    auto lml = ml.is_scalar() ? std::span<double>() : ml.temp->local(rank);
    auto lmr = mr.is_scalar() ? std::span<double>() : mr.temp->local(rank);
    auto lv = v.is_scalar() ? std::span<double>() : v.temp->local(rank);
    for_each_owned(dst, dregion[0], rank, [&](i64, i64 addr) {
      const auto i = static_cast<std::size_t>(addr);
      const double x = ml.is_scalar() ? ml.scalar : lml[i];
      const double y = mr.is_scalar() ? mr.scalar : lmr[i];
      if (holds(x, y)) out[i] = v.is_scalar() ? v.scalar : lv[i];
    });
  });
  release_temp(std::move(ml.temp));
  release_temp(std::move(mr.temp));
  release_temp(std::move(v.temp));
}

void Machine::exec(const RepeatStmt& s) {
  for (i64 c = 0; c < s.count; ++c) run(*s.body);
}

void Machine::exec(const PrintStmt& s) {
  std::ostringstream ss;
  if (s.is_scalar) {
    const auto it = scalars_.find(s.name);
    if (it == scalars_.end()) throw dsl_error("unknown scalar '" + s.name + "'", s.line);
    ss << s.name << " = " << it->second << '\n';
    output_ += ss.str();
    return;
  }
  const DistributedArray<double>& arr = *lookup(s.section.array, s.line).arr;
  const Region region = make_region(s.section, arr);
  ss << s.section.array << region_text(region) << " =";
  // Row-major walk of the region (last dimension fastest), one line per
  // leading-dimension slice for 2-D arrays.
  std::vector<i64> pos(region.size(), 0);
  std::vector<i64> index(region.size());
  while (true) {
    if (region.size() == 2 && pos[1] == 0) ss << "\n ";
    for (std::size_t d = 0; d < region.size(); ++d) index[d] = region[d].element(pos[d]);
    ss << ' ' << arr.get(index);
    std::size_t d = region.size();
    bool done = true;
    while (d-- > 0) {
      if (++pos[d] < region[d].size()) {
        done = false;
        break;
      }
      pos[d] = 0;
      if (d == 0) break;
    }
    if (done) break;
  }
  ss << '\n';
  output_ += ss.str();
}

void Machine::exec(const ExplainStmt& s) {
  if (s.value) {
    // explain A(sec) = expr: show the bytecode tier's compilation of the
    // statement (or say why there is none) without executing it.
    const std::string listing = jit().listing_for(s.section, *s.value);
    if (!listing.empty()) {
      output_ += listing;
    } else if (runtime_assign(*s.value)) {
      output_ += "explain " + s.section.array +
                 ": statement runs as a runtime fill/copy (no bytecode program)\n";
    } else {
      output_ +=
          "explain " + s.section.array + ": statement falls back to the interpreter tier\n";
    }
    return;
  }
  const DistributedArray<double>& arr = *lookup(s.section.array, s.line).arr;
  const Region region = make_region(s.section, arr);
  std::ostringstream ss;
  const auto gaps = [&ss](const std::vector<i64>& am) {
    ss << ", AM = [";
    for (std::size_t i = 0; i < am.size(); ++i) ss << (i ? ", " : "") << am[i];
    ss << "]\n";
  };
  if (arr.dims() == 1) {
    const RegularSection& sec = region[0];
    const BlockCyclic& dist = arr.dist();
    ss << "explain " << s.section.array << sec.to_string() << " on " << dist.procs()
       << " processors [cyclic(" << dist.block_size() << ")], class "
       << access_class_name(AddressEngine::classify(dist, sec.stride * arr.alignment().a))
       << ":\n";
    for (i64 m = 0; m < dist.procs(); ++m) {
      const AlignedAccessPattern pat =
          compute_aligned_pattern(dist, arr.alignment(), arr.size(), sec, m);
      if (pat.empty() || !sec.contains(pat.start_array_index)) {
        ss << "  proc " << m << ": no elements\n";
        continue;
      }
      ss << "  proc " << m << ": start " << s.section.array << "(" << pat.start_array_index
         << ") local " << pat.start_packed_local << ", period " << pat.length;
      gaps(pat.gaps);
    }
    output_ += ss.str();
    return;
  }
  // Multidimensional arrays factor into one 1-D access problem per
  // dimension (paper, Section 2); dump each dimension's patterns per grid
  // coordinate. A packed (non-identity-aligned) dimension reports packed
  // starts through the two-application solver, as the 1-D explain does.
  ss << "explain " << s.section.array << " (" << arr.dims() << "-D; per-dimension patterns):\n";
  for (std::size_t d = 0; d < arr.dims(); ++d) {
    const DimMapping& dm = arr.mapping().dim(d);
    const RegularSection image = dm.align.image(region[d]).ascending();
    ss << " dim " << d << " " << region[d].to_string() << " over cyclic("
       << dm.dist.block_size() << ") x " << dm.dist.procs() << ", class "
       << access_class_name(AddressEngine::classify(dm.dist, image.stride)) << ":\n";
    for (i64 c = 0; c < dm.dist.procs(); ++c) {
      if (!dm.align.is_identity()) {
        const AlignedAccessPattern pat =
            compute_aligned_pattern(dm.dist, dm.align, dm.extent, region[d], c);
        if (pat.empty() || !region[d].contains(pat.start_array_index)) {
          ss << "   coord " << c << ": no elements\n";
          continue;
        }
        ss << "   coord " << c << ": start index " << pat.start_array_index << " local "
           << pat.start_packed_local << ", period " << pat.length;
        gaps(pat.gaps);
        continue;
      }
      const SectionPlan plan = AddressEngine::global().plan(dm.dist, image, c);
      if (plan.empty()) {
        ss << "   coord " << c << ": no elements\n";
        continue;
      }
      const AccessPattern pat = plan.make_pattern();
      ss << "   coord " << c << ": start cell " << pat.start_global << " local "
         << pat.start_local << ", period " << pat.length;
      gaps(pat.gaps);
    }
  }
  output_ += ss.str();
}

}  // namespace cyclick::dsl
