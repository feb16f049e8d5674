#include "cyclick/compiler/interp.hpp"

#include <cstdlib>
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

std::unique_ptr<DistributedArray<double>> Machine::acquire_temp(
    const DistributedArray<double>& like) {
  return acquire_temp(like.dist(), like.size(), like.alignment());
}

namespace {

constexpr std::size_t kTempPoolCap = 16;

/// Pop the first pooled temporary `match` accepts, or null on a miss.
template <typename Arr, typename Match>
std::unique_ptr<Arr> take_pooled(std::vector<std::unique_ptr<Arr>>& pool, Match&& match) {
  for (auto it = pool.begin(); it != pool.end(); ++it) {
    if (match(**it)) {
      auto out = std::move(*it);
      pool.erase(it);
      CYCLICK_COUNT("dsl.temp_pool_hits", 0, 1);
      // Stale values are fine: every consumer fully writes the owned slots
      // it later reads (plan unpacks, ramps, and shifts cover the section
      // or region).
      return out;
    }
  }
  CYCLICK_COUNT("dsl.temp_pool_misses", 0, 1);
  return nullptr;
}

template <typename Arr>
void give_pooled(std::vector<std::unique_ptr<Arr>>& pool, std::unique_ptr<Arr> temp) {
  if (temp && pool.size() < kTempPoolCap) pool.push_back(std::move(temp));
}

}  // namespace

std::unique_ptr<DistributedArray<double>> Machine::acquire_temp(
    const BlockCyclic& dist, i64 n, const AffineAlignment& align) {
  auto out = take_pooled(temp_pool_, [&](const DistributedArray<double>& t) {
    return t.dist() == dist && t.size() == n && t.alignment() == align;
  });
  if (!out) out = std::make_unique<DistributedArray<double>>(dist, n, align);
  return out;
}

void Machine::release_temp(std::unique_ptr<DistributedArray<double>> temp) {
  give_pooled(temp_pool_, std::move(temp));
}

std::unique_ptr<MultiDimArray<double>> Machine::acquire_temp(const MultiDimMapping& map) {
  auto out = take_pooled(temp_pool_nd_,
                         [&](const MultiDimArray<double>& t) { return t.mapping() == map; });
  if (!out) out = std::make_unique<MultiDimArray<double>>(map);
  return out;
}

void Machine::release_temp(std::unique_ptr<MultiDimArray<double>> temp) {
  give_pooled(temp_pool_nd_, std::move(temp));
}

const DistributedArray<double>& Machine::array(const std::string& name) const {
  const ArrayInfo& info = lookup(name, 0);
  if (!info.is_1d()) throw dsl_error("array '" + name + "' is multidimensional", 0);
  return *info.d1;
}

const MultiDimArray<double>& Machine::nd_array(const std::string& name) const {
  const ArrayInfo& info = lookup(name, 0);
  if (info.is_1d()) throw dsl_error("array '" + name + "' is one-dimensional", 0);
  return *info.dn;
}

std::vector<double> Machine::global_image(const std::string& name) const {
  const ArrayInfo& info = lookup(name, 0);
  return info.is_1d() ? info.d1->gather() : info.dn->gather();
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

  ArrayInfo info;
  info.tmpl = d.tmpl;
  if (dims == 1) {
    info.d1 = std::make_unique<DistributedArray<double>>(t->second.dists[0], d.extents[0],
                                                         aligns[0]);
  } else {
    std::vector<DimMapping> mapping;
    std::vector<i64> grid_extents;
    for (std::size_t dim = 0; dim < dims; ++dim) {
      mapping.emplace_back(d.extents[dim], aligns[dim], t->second.dists[dim]);
      grid_extents.push_back(t->second.dists[dim].procs());
    }
    info.dn = std::make_unique<MultiDimArray<double>>(
        MultiDimMapping{std::move(mapping), ProcessorGrid{grid_extents}});
  }
  arrays_[d.name] = std::move(info);
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

RegularSection Machine::make_section(const SectionRef& ref,
                                     const DistributedArray<double>& arr) {
  if (ref.subs.size() != 1)
    throw dsl_error("array '" + ref.array + "' is one-dimensional", ref.line);
  const Triplet& t = ref.dim0();
  if (t.stride == 0) throw dsl_error("section stride must be nonzero", ref.line);
  const RegularSection sec{t.lower, t.upper, t.stride};
  if (sec.empty()) throw dsl_error("section " + sec.to_string() + " is empty", ref.line);
  if (sec.lower < 0 || sec.lower >= arr.size() || sec.last() < 0 || sec.last() >= arr.size())
    throw dsl_error("section " + sec.to_string() + " out of bounds for array of size " +
                        std::to_string(arr.size()),
                    ref.line);
  return sec;
}

Region Machine::make_region(const SectionRef& ref, const MultiDimArray<double>& arr) {
  if (ref.subs.size() != arr.dims())
    throw dsl_error("array '" + ref.array + "' has " + std::to_string(arr.dims()) +
                        " dimensions, reference has " + std::to_string(ref.subs.size()),
                    ref.line);
  Region region;
  for (std::size_t dim = 0; dim < ref.subs.size(); ++dim) {
    const Triplet& t = ref.subs[dim];
    if (t.stride == 0) throw dsl_error("section stride must be nonzero", ref.line);
    const RegularSection sec{t.lower, t.upper, t.stride};
    const i64 extent = arr.mapping().dim(dim).extent;
    if (sec.empty())
      throw dsl_error("empty section in dimension " + std::to_string(dim), ref.line);
    if (sec.lower < 0 || sec.lower >= extent || sec.last() < 0 || sec.last() >= extent)
      throw dsl_error("section " + sec.to_string() + " out of bounds in dimension " +
                          std::to_string(dim),
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
        const ArrayInfo& ainfo = lookup(anchor->array, e.line);
        if (!ainfo.is_1d())
          throw dsl_error("reduction over expressions supports one-dimensional arrays",
                          e.line);
        const DistributedArray<double>& arr = *ainfo.d1;
        const RegularSection sec = make_section(*anchor, arr);
        const SpmdExecutor exec_ctx(arr.dist().procs(), mode_);
        Value v = eval1(*e.lhs, arr, sec, exec_ctx);
        if (v.is_scalar())
          throw dsl_error("reduction over an expression needs an array section operand",
                          e.line);
        const auto sum = [](double a, double b) { return a + b; };
        const auto mn = [](double a, double b) { return a < b ? a : b; };
        const auto mx = [](double a, double b) { return a > b ? a : b; };
        double out = 0.0;
        if (e.reduce_op == "sum") {
          out = reduce_section(*v.temp, sec, 0.0, sum, exec_ctx);
        } else if (e.reduce_op == "min") {
          out = reduce_section(*v.temp, sec, std::numeric_limits<double>::infinity(), mn,
                               exec_ctx);
        } else {
          out = reduce_section(*v.temp, sec, -std::numeric_limits<double>::infinity(), mx,
                               exec_ctx);
        }
        release_temp(std::move(v.temp));
        return out;
      }
      const ArrayInfo& info = lookup(e.section.array, e.line);
      const auto sum = [](double a, double b) { return a + b; };
      const auto mn = [](double a, double b) { return a < b ? a : b; };
      const auto mx = [](double a, double b) { return a > b ? a : b; };
      if (info.is_1d()) {
        const RegularSection sec = make_section(e.section, *info.d1);
        const SpmdExecutor exec_ctx(info.d1->dist().procs(), mode_);
        if (e.reduce_op == "sum") return reduce_section(*info.d1, sec, 0.0, sum, exec_ctx);
        if (e.reduce_op == "min")
          return reduce_section(*info.d1, sec, std::numeric_limits<double>::infinity(), mn,
                                exec_ctx);
        return reduce_section(*info.d1, sec, -std::numeric_limits<double>::infinity(), mx,
                              exec_ctx);
      }
      const Region region = make_region(e.section, *info.dn);
      const SpmdExecutor exec_ctx(info.dn->mapping().grid().rank_count(), mode_);
      if (e.reduce_op == "sum") return reduce_region(*info.dn, region, 0.0, sum, exec_ctx);
      if (e.reduce_op == "min")
        return reduce_region(*info.dn, region, std::numeric_limits<double>::infinity(), mn,
                             exec_ctx);
      return reduce_region(*info.dn, region, -std::numeric_limits<double>::infinity(), mx,
                           exec_ctx);
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

Machine::Value Machine::eval1(const Expr& e, const DistributedArray<double>& dst,
                              const RegularSection& dsec, const SpmdExecutor& exec_ctx) {
  switch (e.kind) {
    case Expr::Kind::kScalar:
    case Expr::Kind::kScalarVar:
    case Expr::Kind::kReduce: {
      Value v;
      v.scalar = eval_scalar(e, e.line);
      return v;
    }
    case Expr::Kind::kShift: {
      const ArrayInfo& info = lookup(e.name, e.line);
      if (!info.is_1d())
        throw dsl_error("cshift/eoshift require a one-dimensional array", e.line);
      const DistributedArray<double>& src = *info.d1;
      const i64 n = src.size();
      if (dsec.size() != n)
        throw dsl_error("shift expression has " + std::to_string(n) +
                            " elements, statement needs " + std::to_string(dsec.size()),
                        e.line);
      auto shifted = acquire_temp(src.dist(), n, AffineAlignment::identity());
      trace(std::string("  ") + (e.circular ? "cshift " : "eoshift ") + e.name + " by " +
            std::to_string(e.shift));
      if (e.circular) {
        cshift(src, *shifted, e.shift, exec_ctx);
      } else {
        eoshift(src, *shifted, e.shift, e.scalar, exec_ctx);
      }
      Value v;
      v.temp = acquire_temp(dst);
      copy_section(*shifted, RegularSection{0, n - 1, 1}, *v.temp, dsec, exec_ctx);
      release_temp(std::move(shifted));
      return v;
    }
    case Expr::Kind::kSection: {
      const auto [src, ssec] = operand1(e, dst, dsec);
      Value v;
      v.temp = acquire_temp(dst);
      // One cached plan serves both the trace diagnostics and the copy;
      // repeated statements with the same shape replay it from the cache.
      const auto plan = cached_copy_plan(src, ssec, *v.temp, dsec, exec_ctx);
      if (tracing_) {
        trace("  copy " + e.section.array + ssec.to_string() + " -> temp@" +
              dsec.to_string() + "  [messages=" + std::to_string(plan->message_count()) +
              ", remote=" + std::to_string(plan->remote_elements()) + "/" +
              std::to_string(ssec.size()) + "]");
      }
      execute_copy_plan(*plan, src, *v.temp, exec_ctx);
      return v;
    }
    case Expr::Kind::kRamp: {
      // forall index as a value: the t-th element of the statement is the
      // index value ramp_lower + t*ramp_stride.
      Value v;
      v.temp = acquire_temp(dst);
      exec_ctx.run([&](i64 rank) {
        auto local = v.temp->local(rank);
        for_each_owned(*v.temp, dsec, rank, [&](i64 t, i64 addr) {
          local[static_cast<std::size_t>(addr)] =
              static_cast<double>(e.ramp_lower + t * e.ramp_stride);
        });
      });
      return v;
    }
    case Expr::Kind::kUnaryMinus: {
      Value v = eval1(*e.lhs, dst, dsec, exec_ctx);
      if (v.is_scalar()) {
        v.scalar = -v.scalar;
        return v;
      }
      transform_section(*v.temp, dsec, [](double x) { return -x; }, exec_ctx);
      return v;
    }
    case Expr::Kind::kBinary: {
      Value a = eval1(*e.lhs, dst, dsec, exec_ctx);
      Value b = eval1(*e.rhs, dst, dsec, exec_ctx);
      const char op = e.op;
      const int line = e.line;
      if (a.is_scalar() && b.is_scalar()) {
        a.scalar = apply_op(op, a.scalar, b.scalar, line);
        return a;
      }
      if (!a.is_scalar() && b.is_scalar()) {
        transform_section(*a.temp, dsec,
                          [&](double x) { return apply_op(op, x, b.scalar, line); },
                          exec_ctx);
        return a;
      }
      if (a.is_scalar() && !b.is_scalar()) {
        transform_section(*b.temp, dsec,
                          [&](double y) { return apply_op(op, a.scalar, y, line); },
                          exec_ctx);
        return b;
      }
      trace(std::string("  combine local '") + op + "' over " + dsec.to_string());
      exec_ctx.run([&](i64 rank) {
        auto la = a.temp->local(rank);
        auto lb = b.temp->local(rank);
        for_each_owned(*a.temp, dsec, rank, [&](i64, i64 addr) {
          const auto i = static_cast<std::size_t>(addr);
          la[i] = apply_op(op, la[i], lb[i], line);
        });
      });
      release_temp(std::move(b.temp));
      return a;
    }
  }
  throw dsl_error("bad expression", e.line);
}

std::pair<const DistributedArray<double>&, RegularSection> Machine::operand1(
    const Expr& e, const DistributedArray<double>& dst, const RegularSection& dsec) {
  const ArrayInfo& info = lookup(e.section.array, e.line);
  if (!info.is_1d())
    throw dsl_error("cannot mix array dimensionalities in one statement", e.line);
  const DistributedArray<double>& src = *info.d1;
  const RegularSection ssec = make_section(e.section, src);
  if (ssec.size() != dsec.size())
    throw dsl_error("section length mismatch: " + ssec.to_string() + " has " +
                        std::to_string(ssec.size()) + " elements, statement needs " +
                        std::to_string(dsec.size()),
                    e.line);
  if (src.dist().procs() != dst.dist().procs())
    throw dsl_error("arrays in one statement must share a processor arrangement", e.line);
  return {src, ssec};
}

std::pair<const MultiDimArray<double>&, Region> Machine::operandn(
    const Expr& e, const MultiDimArray<double>& dst, const Region& dregion) {
  const ArrayInfo& info = lookup(e.section.array, e.line);
  if (info.is_1d())
    throw dsl_error("cannot mix array dimensionalities in one statement", e.line);
  const MultiDimArray<double>& src = *info.dn;
  Region sregion = make_region(e.section, src);
  if (sregion.size() != dregion.size())
    throw dsl_error("operand dimensionality mismatch", e.line);
  for (std::size_t d = 0; d < sregion.size(); ++d)
    if (sregion[d].size() != dregion[d].size())
      throw dsl_error("section extent mismatch in dimension " + std::to_string(d), e.line);
  if (src.mapping().grid().rank_count() != dst.mapping().grid().rank_count())
    throw dsl_error("arrays in one statement must share a processor arrangement", e.line);
  return {src, std::move(sregion)};
}

Machine::Value Machine::evaln(const Expr& e, const MultiDimArray<double>& dst,
                              const Region& dregion, const SpmdExecutor& exec_ctx) {
  switch (e.kind) {
    case Expr::Kind::kScalar:
    case Expr::Kind::kScalarVar:
    case Expr::Kind::kReduce: {
      Value v;
      v.scalar = eval_scalar(e, e.line);
      return v;
    }
    case Expr::Kind::kShift:
      throw dsl_error("cshift/eoshift are not supported for multidimensional arrays",
                      e.line);
    case Expr::Kind::kRamp:
      throw dsl_error("forall is not supported for multidimensional arrays", e.line);
    case Expr::Kind::kSection: {
      const auto [src, sregion] = operandn(e, dst, dregion);
      Value v;
      v.temp_nd = acquire_temp(dst.mapping());
      copy_region(src, sregion, *v.temp_nd, dregion, exec_ctx);
      return v;
    }
    case Expr::Kind::kUnaryMinus: {
      Value v = evaln(*e.lhs, dst, dregion, exec_ctx);
      if (v.is_scalar()) {
        v.scalar = -v.scalar;
        return v;
      }
      transform_region(*v.temp_nd, dregion, [](double x) { return -x; }, exec_ctx);
      return v;
    }
    case Expr::Kind::kBinary: {
      Value a = evaln(*e.lhs, dst, dregion, exec_ctx);
      Value b = evaln(*e.rhs, dst, dregion, exec_ctx);
      const char op = e.op;
      const int line = e.line;
      if (a.is_scalar() && b.is_scalar()) {
        a.scalar = apply_op(op, a.scalar, b.scalar, line);
        return a;
      }
      if (!a.is_scalar() && b.is_scalar()) {
        transform_region(*a.temp_nd, dregion,
                         [&](double x) { return apply_op(op, x, b.scalar, line); },
                         exec_ctx);
        return a;
      }
      if (a.is_scalar() && !b.is_scalar()) {
        transform_region(*b.temp_nd, dregion,
                         [&](double y) { return apply_op(op, a.scalar, y, line); },
                         exec_ctx);
        return b;
      }
      exec_ctx.run([&](i64 rank) {
        auto la = a.temp_nd->local(rank);
        auto lb = b.temp_nd->local(rank);
        for_each_owned_region(*a.temp_nd, dregion, rank,
                              [&](const std::vector<i64>&, i64 addr) {
                                const auto i = static_cast<std::size_t>(addr);
                                la[i] = apply_op(op, la[i], lb[i], line);
                              });
      });
      release_temp(std::move(b.temp_nd));
      return a;
    }
  }
  throw dsl_error("bad expression", e.line);
}

void Machine::exec(const AssignStmt& s) {
  if (tier_ == Tier::kBytecode && jit().try_assign(s)) return;
  // A bare section copy is one copy_section/copy_region call on either
  // tier: no destination-shaped temporary, no store pass.
  const bool bare_copy = s.value->kind == Expr::Kind::kSection;
  ArrayInfo& info = lookup(s.target.array, s.line);
  if (info.is_1d()) {
    DistributedArray<double>& dst = *info.d1;
    const RegularSection dsec = make_section(s.target, dst);
    trace("assign " + s.target.array + dsec.to_string());
    const SpmdExecutor exec_ctx(dst.dist().procs(), mode_);
    if (bare_copy) {
      const auto [src, ssec] = operand1(*s.value, dst, dsec);
      if (tracing_) {
        const auto plan = cached_copy_plan(src, ssec, dst, dsec, exec_ctx);
        trace("  copy " + s.value->section.array + ssec.to_string() + " -> " +
              s.target.array + dsec.to_string() +
              "  [messages=" + std::to_string(plan->message_count()) +
              ", remote=" + std::to_string(plan->remote_elements()) + "/" +
              std::to_string(ssec.size()) + "]");
      }
      copy_section(src, ssec, dst, dsec, exec_ctx);
      return;
    }
    Value v = eval1(*s.value, dst, dsec, exec_ctx);
    if (v.is_scalar()) {
      trace("  fill scalar");
      fill_section(dst, dsec, v.scalar, exec_ctx);
      return;
    }
    trace("  store local from temp");
    exec_ctx.run([&](i64 rank) {
      auto out = dst.local(rank);
      auto in = v.temp->local(rank);
      for_each_owned(dst, dsec, rank, [&](i64, i64 addr) {
        out[static_cast<std::size_t>(addr)] = in[static_cast<std::size_t>(addr)];
      });
    });
    release_temp(std::move(v.temp));
    return;
  }

  MultiDimArray<double>& dst = *info.dn;
  const Region dregion = make_region(s.target, dst);
  const SpmdExecutor exec_ctx(dst.mapping().grid().rank_count(), mode_);
  if (bare_copy) {
    const auto [src, sregion] = operandn(*s.value, dst, dregion);
    copy_region(src, sregion, dst, dregion, exec_ctx);
    return;
  }
  Value v = evaln(*s.value, dst, dregion, exec_ctx);
  if (v.is_scalar()) {
    fill_region(dst, dregion, v.scalar, exec_ctx);
    return;
  }
  exec_ctx.run([&](i64 rank) {
    auto out = dst.local(rank);
    auto in = v.temp_nd->local(rank);
    for_each_owned_region(dst, dregion, rank, [&](const std::vector<i64>&, i64 addr) {
      out[static_cast<std::size_t>(addr)] = in[static_cast<std::size_t>(addr)];
    });
  });
  release_temp(std::move(v.temp_nd));
}

void Machine::exec(const ScalarAssignStmt& s) {
  if (tier_ == Tier::kBytecode && jit().try_scalar_assign(s)) return;
  scalars_[s.name] = eval_scalar(*s.value, s.line);
}

void Machine::exec(const RedistributeStmt& s) {
  const auto it = arrays_.find(s.array);
  if (it == arrays_.end()) throw dsl_error("unknown array '" + s.array + "'", s.line);
  if (!it->second.is_1d())
    throw dsl_error("redistribute supports one-dimensional arrays", s.line);
  const auto pr = procs_.find(s.procs);
  if (pr == procs_.end())
    throw dsl_error("unknown processor arrangement '" + s.procs + "'", s.line);
  if (pr->second.size() != 1)
    throw dsl_error("redistribute target must be a 1-D processor arrangement", s.line);
  DistributedArray<double>& old = *it->second.d1;
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
  it->second.d1 = std::move(fresh);
  it->second.tmpl.clear();  // the array now lives on an anonymous template
}

void Machine::exec(const WhereStmt& s) {
  if (tier_ == Tier::kBytecode && jit().try_where(s)) return;
  ArrayInfo& info = lookup(s.target.array, s.line);
  if (!info.is_1d())
    throw dsl_error("where supports one-dimensional arrays", s.line);
  DistributedArray<double>& dst = *info.d1;
  const RegularSection dsec = make_section(s.target, dst);
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
  Value ml = eval1(*s.mask_lhs, dst, dsec, exec_ctx);
  Value mr = eval1(*s.mask_rhs, dst, dsec, exec_ctx);
  Value v = eval1(*s.value, dst, dsec, exec_ctx);

  exec_ctx.run([&](i64 rank) {
    auto out = dst.local(rank);
    auto lml = ml.is_scalar() ? std::span<double>() : ml.temp->local(rank);
    auto lmr = mr.is_scalar() ? std::span<double>() : mr.temp->local(rank);
    auto lv = v.is_scalar() ? std::span<double>() : v.temp->local(rank);
    for_each_owned(dst, dsec, rank, [&](i64, i64 addr) {
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
  const ArrayInfo& info = lookup(s.section.array, s.line);
  if (info.is_1d()) {
    const DistributedArray<double>& arr = *info.d1;
    const RegularSection sec = make_section(s.section, arr);
    ss << s.section.array << sec.to_string() << " =";
    for (i64 t = 0; t < sec.size(); ++t) ss << ' ' << arr.get(sec.element(t));
    ss << '\n';
    output_ += ss.str();
    return;
  }
  const MultiDimArray<double>& arr = *info.dn;
  const Region region = make_region(s.section, arr);
  ss << s.section.array << '(';
  for (std::size_t d = 0; d < region.size(); ++d) {
    if (d) ss << ", ";
    ss << region[d].lower << ':' << region[d].upper << ':' << region[d].stride;
  }
  ss << ") =";
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
  const ArrayInfo& info = lookup(s.section.array, s.line);
  if (!info.is_1d()) {
    // Multidimensional arrays factor into one 1-D access problem per
    // dimension (paper, Section 2); dump each dimension's patterns per
    // grid coordinate.
    const MultiDimArray<double>& arr = *info.dn;
    const Region region = make_region(s.section, arr);
    std::ostringstream ss;
    ss << "explain " << s.section.array << " (" << arr.dims()
       << "-D; per-dimension patterns):\n";
    for (std::size_t d = 0; d < arr.dims(); ++d) {
      const DimMapping& dm = arr.mapping().dim(d);
      const RegularSection image = dm.align.image(region[d]).ascending();
      ss << " dim " << d << " " << region[d].to_string() << " over cyclic("
         << dm.dist.block_size() << ") x " << dm.dist.procs() << ", class "
         << access_class_name(AddressEngine::classify(dm.dist, image.stride)) << ":\n";
      for (i64 c = 0; c < dm.dist.procs(); ++c) {
        const SectionPlan plan = AddressEngine::global().plan(dm.dist, image, c);
        if (plan.empty()) {
          ss << "   coord " << c << ": no elements\n";
          continue;
        }
        const AccessPattern pat = plan.make_pattern();
        ss << "   coord " << c << ": start cell " << pat.start_global << " local "
           << pat.start_local << ", period " << pat.length << ", AM = [";
        for (std::size_t i = 0; i < pat.gaps.size(); ++i)
          ss << (i ? ", " : "") << pat.gaps[i];
        ss << "]\n";
      }
    }
    output_ += ss.str();
    return;
  }
  const DistributedArray<double>& arr = *info.d1;
  const RegularSection sec = make_section(s.section, arr);
  const BlockCyclic& dist = arr.dist();
  std::ostringstream ss;
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
       << ") local " << pat.start_packed_local << ", period " << pat.length << ", AM = [";
    for (std::size_t i = 0; i < pat.gaps.size(); ++i) ss << (i ? ", " : "") << pat.gaps[i];
    ss << "]\n";
  }
  output_ += ss.str();
}

}  // namespace cyclick::dsl
