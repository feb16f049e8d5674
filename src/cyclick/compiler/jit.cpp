// The bytecode tier: statement compiler (AST -> bc::CompiledProgram) and the
// dispatch loop that executes compiled programs over per-rank lane vectors.
//
// Compilation is all-or-nothing: any shape the compiler cannot prove
// equivalent to the interpreter raises BailOut, the ProgramCache records a
// negative entry for the statement key, and the tree walker runs the
// statement. Equivalence here means *bit-identical results*: the one fused
// superinstruction, adddiv.vvs, keeps the interpreter's per-element
// operation sequence (this file is built with -ffp-contract=off so no
// mul+add pair is ever contracted into an FMA), reductions fold in the
// same per-rank ascending-cell order reduce_section uses, and runtime
// errors carry the same message and source line the interpreter would
// report.
#include "cyclick/compiler/jit.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <sstream>

#include "cyclick/obs/metrics.hpp"
#include "cyclick/obs/trace.hpp"
#include "cyclick/runtime/intrinsics.hpp"
#include "cyclick/runtime/plan_cache.hpp"
#include "cyclick/runtime/section_ops.hpp"

namespace cyclick::dsl {
namespace {

/// Register-file limits. Lane registers are dense per-rank vectors (arena
/// slices), so the cap bounds VM memory at 16 x section elements per rank;
/// statements needing more fall back to the interpreter.
constexpr int kMaxLanes = 16;
constexpr int kMaxSregs = 64;
constexpr int kMaxScratch = 32;

/// Strip length of programs with a staged lane.shift, in local elements:
/// the staging copy, its halo patches and the arithmetic over them touch
/// the same few KiB of lane registers.
constexpr i64 kStripElems = 1024;

/// Raised for "not bytecode-compilable" (as opposed to dsl_error, which is
/// a real program error the interpreter would also raise).
struct BailOut {};

[[nodiscard]] bool scalar_shape(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kScalar:
    case Expr::Kind::kScalarVar:
    case Expr::Kind::kReduce:
      return true;
    case Expr::Kind::kSection:
    case Expr::Kind::kShift:
    case Expr::Kind::kRamp:
      return false;
    case Expr::Kind::kUnaryMinus:
      return scalar_shape(*e.lhs);
    case Expr::Kind::kBinary:
      return scalar_shape(*e.lhs) && scalar_shape(*e.rhs);
  }
  return false;
}

[[nodiscard]] u8 reduce_code(const std::string& op) {
  if (op == "sum") return bc::kRedSum;
  if (op == "min") return bc::kRedMin;
  if (op == "max") return bc::kRedMax;
  throw BailOut{};
}

[[nodiscard]] i32 relop_code(const std::string& op) {
  if (op == "<") return bc::kLT;
  if (op == ">") return bc::kGT;
  if (op == "<=") return bc::kLE;
  if (op == ">=") return bc::kGE;
  if (op == "==") return bc::kEQ;
  return bc::kNE;
}

}  // namespace

bool runtime_assign(const Expr& value) {
  return value.kind == Expr::Kind::kSection || scalar_shape(value);
}

// ---------------------------------------------------------------------------
// Statement compiler
// ---------------------------------------------------------------------------

struct JitCompiler {
  explicit JitCompiler(Machine& machine) : m(machine) {}

  Machine& m;
  bc::CompiledProgram p;
  std::vector<u8> free_lanes;
  std::vector<bool> skonst;  // sreg value known at compile time
  std::vector<double> sval;
  DistributedArray<double>* dst = nullptr;  // the target array
  std::optional<SpmdExecutor> exec;

  // -- lookup / validation ---------------------------------------------------

  DistributedArray<double>* find(const std::string& name) {
    const auto it = m.arrays_.find(name);
    return it == m.arrays_.end() ? nullptr : it->second.arr.get();
  }

  // -- cache keys ------------------------------------------------------------
  //
  // The key pins everything compilation depends on: statement structure,
  // operator characters, literal bits, source lines (so cached runtime
  // errors report the interpreter's line numbers), and — crucially — every
  // referenced array's mapping, so a redistribute makes the statement hash
  // to a different program.

  /// Mapping signature: per dimension extent, alignment, procs and block
  /// size (';'-separated); the grid axis extent is the procs.
  static void mapping_sig(std::ostringstream& ss, const DistributedArray<double>& a) {
    const MultiDimMapping& map = a.mapping();
    ss << '[';
    for (std::size_t d = 0; d < map.dims(); ++d) {
      const DimMapping& dm = map.dim(d);
      ss << (d ? ";" : "") << dm.extent << ',' << dm.align.a << ',' << dm.align.b << ','
         << dm.dist.procs() << ',' << dm.dist.block_size();
    }
    ss << ']';
  }

  /// Mapping signature of array `name`; false when it is unknown.
  bool array_sig(std::ostringstream& ss, const std::string& name) {
    const DistributedArray<double>* a = find(name);
    if (a != nullptr) mapping_sig(ss, *a);
    return a != nullptr;
  }

  static void triplet_sig(std::ostringstream& ss, const SectionRef& ref) {
    ss << '(';
    for (std::size_t d = 0; d < ref.subs.size(); ++d)
      ss << (d ? "," : "") << ref.subs[d].lower << ':' << ref.subs[d].upper << ':'
         << ref.subs[d].stride;
    ss << ')';
  }

  bool key_expr(std::ostringstream& ss, const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kScalar:
        ss << 'c' << std::hexfloat << e.scalar << std::defaultfloat << '@' << e.line << ';';
        return true;
      case Expr::Kind::kScalarVar:
        ss << 'v' << e.name << '@' << e.line << ';';
        return true;
      case Expr::Kind::kSection: {
        ss << 's' << e.section.array;
        if (!array_sig(ss, e.section.array)) return false;
        triplet_sig(ss, e.section);
        ss << '@' << e.line;
        return true;
      }
      case Expr::Kind::kReduce: {
        if (e.lhs) return false;  // expression reduces only fuse at statement root
        const DistributedArray<double>* a = find(e.section.array);
        // N-D reduces stay on the interpreter.
        if (a == nullptr || a->dims() != 1) return false;
        ss << 'r' << e.reduce_op << e.section.array;
        mapping_sig(ss, *a);
        triplet_sig(ss, e.section);
        ss << '@' << e.line;
        return true;
      }
      case Expr::Kind::kShift: {
        const DistributedArray<double>* a = find(e.name);
        if (a == nullptr || a->dims() != 1) return false;
        ss << 'h' << e.name << (e.circular ? 'c' : 'e') << e.shift << ':' << std::hexfloat
           << e.scalar << std::defaultfloat;
        mapping_sig(ss, *a);
        ss << '@' << e.line;
        return true;
      }
      case Expr::Kind::kRamp:
        ss << 'i' << e.ramp_lower << ':' << e.ramp_stride << '@' << e.line << ';';
        return true;
      case Expr::Kind::kUnaryMinus:
        ss << "n{";
        if (!key_expr(ss, *e.lhs)) return false;
        ss << '}';
        return true;
      case Expr::Kind::kBinary:
        ss << 'b' << e.op << '{';
        if (!key_expr(ss, *e.lhs) || !key_expr(ss, *e.rhs)) return false;
        ss << "}@" << e.line;
        return true;
    }
    return false;
  }

  bool key_target(std::ostringstream& ss, const SectionRef& target, int line) {
    ss << target.array;
    if (!array_sig(ss, target.array)) return false;
    triplet_sig(ss, target);
    ss << '@' << line << '=';
    return true;
  }

  std::optional<std::string> key_assign(const AssignStmt& s) {
    std::ostringstream ss;
    ss << "A|";
    if (!key_target(ss, s.target, s.line)) return std::nullopt;
    if (!key_expr(ss, *s.value)) return std::nullopt;
    return ss.str();
  }

  std::optional<std::string> key_where(const WhereStmt& s) {
    std::ostringstream ss;
    ss << "W|";
    if (!key_target(ss, s.target, s.line)) return std::nullopt;
    ss << s.relop << '{';
    if (!key_expr(ss, *s.mask_lhs)) return std::nullopt;
    ss << "}{";
    if (!key_expr(ss, *s.mask_rhs)) return std::nullopt;
    ss << "}{";
    if (!key_expr(ss, *s.value)) return std::nullopt;
    ss << '}';
    return ss.str();
  }

  std::optional<std::string> key_scalar(const ScalarAssignStmt& s) {
    // Only fused reductions over expressions compile; plain scalar
    // assignments are cheap on the tree walker.
    const Expr& root = *s.value;
    if (root.kind != Expr::Kind::kReduce || !root.lhs) return std::nullopt;
    std::ostringstream ss;
    ss << "S|" << s.name << '@' << s.line << '=' << 'R' << root.reduce_op << '{';
    if (!key_expr(ss, *root.lhs)) return std::nullopt;
    ss << "}@" << root.line;
    return ss.str();
  }

  // -- register allocation ---------------------------------------------------

  u8 new_sreg(double v, bool known) {
    if (p.n_sregs >= kMaxSregs) throw BailOut{};
    const u8 r = static_cast<u8>(p.n_sregs++);
    p.sreg_init.push_back(v);
    skonst.push_back(known);
    sval.push_back(v);
    return r;
  }

  u8 alloc_lane() {
    if (!free_lanes.empty()) {
      const u8 r = free_lanes.back();
      free_lanes.pop_back();
      return r;
    }
    if (p.n_lanes >= kMaxLanes) throw BailOut{};
    return static_cast<u8>(p.n_lanes++);
  }

  void free_lane(u8 r) { free_lanes.push_back(r); }

  i32 add_operand(bc::Operand op) {
    p.operands.push_back(std::move(op));
    return static_cast<i32>(p.operands.size() - 1);
  }

  // -- scalar subtree -> sreg ------------------------------------------------

  u8 compile_scalar(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kScalar:
        return new_sreg(e.scalar, true);
      case Expr::Kind::kScalarVar: {
        const u8 r = new_sreg(0.0, false);
        const i32 aux = add_operand(bc::Operand{.array = e.name, .plan = nullptr});
        p.prelude.push_back(
            bc::Instr{.op = bc::Op::kScalarVar, .a = r, .aux = aux, .line = e.line});
        return r;
      }
      case Expr::Kind::kReduce: {
        if (e.lhs) throw BailOut{};
        const DistributedArray<double>* a = find(e.section.array);
        if (a == nullptr || a->dims() != 1) throw BailOut{};
        const Region sec = Machine::make_region(e.section, *a);
        const u8 r = new_sreg(0.0, false);
        const i32 aux = add_operand(bc::Operand{.array = e.section.array, .region = sec});
        p.prelude.push_back(bc::Instr{.op = bc::Op::kReduceSec,
                                      .a = r,
                                      .b = reduce_code(e.reduce_op),
                                      .aux = aux,
                                      .line = e.line});
        return r;
      }
      case Expr::Kind::kUnaryMinus: {
        const u8 r = compile_scalar(*e.lhs);
        if (skonst[r]) {
          sval[r] = -sval[r];
          p.sreg_init[r] = sval[r];
          return r;
        }
        p.prelude.push_back(bc::Instr{.op = bc::Op::kScalarNeg, .a = r, .line = e.line});
        return r;
      }
      case Expr::Kind::kBinary: {
        const u8 rl = compile_scalar(*e.lhs);
        const u8 rr = compile_scalar(*e.rhs);
        if (skonst[rl] && skonst[rr]) {
          // Compile-time fold; a dsl_error here (division by zero in a
          // literal subtree) aborts compilation and the interpreter raises
          // the identical error at run time.
          const double v = Machine::apply_op(e.op, sval[rl], sval[rr], e.line);
          sval[rl] = v;
          p.sreg_init[rl] = v;
          return rl;
        }
        const u8 r = new_sreg(0.0, false);
        p.prelude.push_back(bc::Instr{
            .op = bc::Op::kScalarBin, .a = r, .b = rl, .c = rr, .x = e.op, .line = e.line});
        return r;
      }
      case Expr::Kind::kSection:
      case Expr::Kind::kShift:
      case Expr::Kind::kRamp:
        throw BailOut{};  // unreachable: callers check scalar_shape first
    }
    throw BailOut{};
  }

  /// True when sreg r is a compile-time constant equal to zero — the case
  /// where a division is *guaranteed* to throw (bail; the interpreter
  /// raises it) — and its complement, guaranteed-nonzero, where the
  /// division can never throw and the store may fuse.
  [[nodiscard]] bool const_zero(u8 r) const { return skonst[r] && sval[r] == 0.0; }
  [[nodiscard]] bool const_nonzero(u8 r) const { return skonst[r] && sval[r] != 0.0; }

  // -- vector subtree -> lane register --------------------------------------

  /// The source region of an operand, validated against the target region.
  /// Anything the interpreter would reject bails (or raises the same
  /// dsl_error), so the interpreter reports it at run time.
  Region operand_region(const SectionRef& ref, const DistributedArray<double>& src) const {
    const Region sreg = Machine::make_region(ref, src);
    for (std::size_t d = 0; d < sreg.size(); ++d)
      if (sreg[d].size() != p.region[d].size()) throw BailOut{};
    if (src.mapping().grid().rank_count() != p.ranks) throw BailOut{};
    return sreg;
  }

  u8 lane_from_section(const Expr& e) {
    const DistributedArray<double>* src = find(e.section.array);
    if (src == nullptr || src->dims() != dst->dims()) throw BailOut{};  // mixed dimensionality
    const Region sreg = operand_region(e.section, *src);
    const u8 lane = alloc_lane();
    const i32 aux = add_operand(bc::Operand{.array = e.section.array, .region = sreg});
    if (src->mapping() == dst->mapping() && sreg == p.region) {
      // Same mapping, same region: every element already sits at the
      // destination's local address — the lane aliases the source span.
      p.lanes.push_back(
          bc::Instr{.op = bc::Op::kLaneDirect, .a = lane, .aux = aux, .line = e.line});
      return lane;
    }
    std::size_t dim = sreg.size();
    const char* why = shift_blocker(*src, sreg, dim);
    if (why == nullptr) {
      // Provisional: resolve_shifts keeps it (halo plans) or demotes it to a
      // scratch load once the whole statement is known.
      bc::Operand& o = p.operands.back();
      o.shift = sreg[dim].lower - p.region[dim].lower;
      o.halo.dim = static_cast<i64>(dim);
      p.lanes.push_back(
          bc::Instr{.op = bc::Op::kLaneShift, .a = lane, .aux = aux, .line = e.line});
      return lane;
    }
    if (dim < sreg.size()) note_shift_fallback(e.line, p.operands.back(), why);
    p.lanes.push_back(load_operand(lane, aux, *src, e.line));
    return lane;
  }

  /// A plan copy of operand `aux` into a destination-mapped scratch slot;
  /// returns the lane instruction that reads the slot. The interpreter
  /// copies into the same kind of temporary, so the plan is the very cache
  /// entry its copy replays: the PlanCache's for a rank-1 region (load),
  /// the RegionPlanCache's for an N-D one (load.region).
  bc::Instr load_operand(u8 lane, i32 aux, const DistributedArray<double>& src, int line) {
    if (p.n_scratch >= kMaxScratch) throw BailOut{};
    const u8 slot = static_cast<u8>(p.n_scratch++);
    bc::Operand& o = p.operands[static_cast<std::size_t>(aux)];
    bc::Op op = bc::Op::kLoadRegion;
    if (o.region.size() == 1) {
      op = bc::Op::kLoadSection;
      o.plan = cached_copy_plan(src, o.region[0], *dst, p.region[0], *exec);
    } else {
      o.region_plan = cached_region_plan(src, o.region, *dst, p.region, *exec);
    }
    p.loads.push_back(bc::Instr{.op = op, .a = slot, .aux = aux, .line = line});
    return bc::Instr{.op = bc::Op::kLaneScratch, .a = lane, .b = slot, .line = line};
  }

  // -- target share ----------------------------------------------------------

  /// Rank `rank`'s share of the target region, from the runtime's owned
  /// walk: one row per local row, each holding the kernel's elements.
  bc::Share share_of(i64 rank) const {
    detail::OwnedShare sh = detail::owned_share(dst->mapping(), p.region, rank);
    bc::Share share;
    if (sh.empty) return share;
    detail::for_each_row(sh, [&](i64 base, const std::vector<std::size_t>&) {
      share.rows.push_back({base, sh.kernel.count()});
    });
    share.plan = std::move(sh.plan);
    share.kernel = std::move(sh.kernel);
    return share;
  }

  /// Merge the address-adjacent rows of every dense share, so one lane pass
  /// covers them. (A row's span starts at its base plus the kernel's first
  /// local address, so rows touch when one's base + len is the next base.)
  void merge_rows() {
    for (bc::Share& sh : p.shares) {
      if (sh.kernel.cls() != AccessClass::kRuns) continue;
      std::vector<bc::Row> merged;
      for (const bc::Row& row : sh.rows) {
        if (!merged.empty() && merged.back().base + merged.back().len == row.base) {
          merged.back().len += row.len;
        } else {
          merged.push_back(row);
        }
      }
      sh.rows = std::move(merged);
    }
  }

  // -- shifted operands (lane.shift) -----------------------------------------
  //
  // Under cyclic(k) in some dimension, an operand that is the target shifted
  // by a constant delta along that dimension alone (0 < |delta| < k), with
  // the target's mapping, sits on the same rank as the target element it
  // feeds, at local address la + delta * (the dimension's local stride) —
  // except at the |delta| block offsets per block whose source lies in the
  // neighbouring block, on another rank. Only those boundary elements move,
  // into a compact per-rank halo buffer. Along an outer dimension they are
  // whole local rows, and the lane picks a base pointer per row; along the
  // innermost dimension (and in 1-D) they are |delta| elements per block of
  // every row, and the lane stages its strip and patches them in (run_lanes).

  /// Why operand region `sreg` of `src` cannot be a lane.shift source, or
  /// null. `dim` is set only when `sreg` is the target region moved along
  /// some dimension with the same strides — a shift, whose demotion gets a
  /// note — to the (last) moved dimension. The innermost stride must be
  /// unit, so every rank's kernel is one dense run. The source needs the
  /// target's distribution and identity alignment in every dimension, and
  /// its extent in every dimension but the first: those set the local row
  /// strides, while the first one's extent only bounds the source's local
  /// span, which the staged read clips to.
  const char* shift_blocker(const DistributedArray<double>& src, const Region& sreg,
                            std::size_t& dim) {
    std::size_t moved = 0;
    std::size_t at = 0;
    for (std::size_t d = 0; d < sreg.size(); ++d) {
      if (sreg[d].stride != p.region[d].stride) return "not the target's stride";
      if (sreg[d].lower != p.region[d].lower) {
        ++moved;
        at = d;
      }
    }
    if (moved == 0) return "same region under another mapping";
    dim = at;
    if (sreg.back().stride != 1 && sreg.back().stride != -1) return "not unit stride";
    if (moved > 1) return "shifted in more than one dimension";
    if (&src == dst) return "reads the target array";
    const MultiDimMapping& map = dst->mapping();
    for (std::size_t d = 0; d < map.dims(); ++d) {
      const DimMapping& sd = src.mapping().dim(d);
      if (sd.dist != map.dim(d).dist || !sd.align.is_identity() ||
          (d > 0 && sd.extent != map.dim(d).extent))
        return "mapping differs from the target's";
    }
    const i64 delta = sreg[dim].lower - p.region[dim].lower;
    const i64 k = map.dim(dim).dist.block_size();
    if (delta <= -k || delta >= k) return "|delta| >= the block size";
    return nullptr;
  }

  void note_shift_fallback(int line, const bc::Operand& o, const char* why) {
    std::string delta;
    for (std::size_t d = 0; d < o.region.size(); ++d)
      delta += (d ? ", " : "") + std::to_string(o.region[d].lower - p.region[d].lower);
    note_fusion(line, "shifted operand " + bc::source_text(o) + " (delta " + delta +
                          ") stays a scratch copy: " + why);
  }

  /// Keep every provisional lane.shift (why == null: build its halo plan)
  /// or demote each to a scratch load, noting `why`. Without a kept
  /// lane.shift, whose halo read maps are per row, the rows merge.
  void resolve_shifts(const char* why) {
    bool kept = false;
    for (bc::Instr& in : p.lanes) {
      if (in.op != bc::Op::kLaneShift) continue;
      bc::Operand& o = p.operands[static_cast<std::size_t>(in.aux)];
      if (why != nullptr) {
        note_shift_fallback(in.line, o, why);
        in = load_operand(in.a, in.aux, *find(o.array), in.line);
        continue;
      }
      if (p.n_halo >= kMaxScratch) throw BailOut{};
      build_halo(o);
      if (o.halo.staged) p.strip = kStripElems;
      in.b = static_cast<u8>(p.n_halo++);
      kept = true;
    }
    if (!kept) merge_rows();
  }

  /// Why a store program may not read shifted operands through halos, or
  /// null. The lane pass writes the target row by row while later rows
  /// still read their sources, so nothing may read the target; guarded
  /// stores and strided kernels keep their own passes.
  const char* shift_statement_blocker() const {
    if (p.lanes_may_throw) return "a lane instruction may divide by zero";
    for (const bc::Instr& in : p.lanes) {
      if (in.op == bc::Op::kLaneDirect &&
          p.operands[static_cast<std::size_t>(in.aux)].array == p.target)
        return "the statement reads its target";
      if (in.op == bc::Op::kLaneRamp) return "the statement has a forall index ramp";
    }
    for (const bc::Share& sh : p.shares)
      if (sh.kernel.count() > 0 && sh.kernel.cls() != AccessClass::kRuns)
        return "a rank's share is not one dense run";
    return nullptr;
  }

  /// The halo of shifted operand `o` and its per-row read map. Along
  /// dimension d, target index g reads g + delta, which lies in the
  /// neighbouring block exactly when g's block offset is in [j0, j0 + w).
  /// Each rank's halo is one buffer of a block(len) array: for an outer d,
  /// every boundary row in turn; for the innermost d, every row in turn,
  /// one w-wide slot per local block from the first to the last block that
  /// holds a boundary element of the share.
  void build_halo(bc::Operand& o) const {
    bc::Halo& h = o.halo;
    const MultiDimMapping& map = dst->mapping();
    const std::size_t nd = map.dims();
    const auto d = static_cast<std::size_t>(h.dim);
    const BlockCyclic& dist = map.dim(d).dist;
    const i64 k = dist.block_size();
    const i64 delta = o.shift;
    const i64 w = delta < 0 ? -delta : delta;
    const i64 j0 = delta < 0 ? 0 : k - delta;
    i64 rank_step = 1;  // rank and local-address distance of one step along d
    i64 addr_step = 1;
    for (std::size_t e = d + 1; e < nd; ++e) {  // identity-aligned: one extent per dimension
      rank_step *= map.dim(e).dist.procs();
      addr_step *= map.local_extent(e, 0);
    }
    h.offset = delta * addr_step;
    h.block = k;
    h.staged = d + 1 == nd;
    // Local index l (block offset l % k, as under identity alignment) is a
    // boundary index.
    const auto boundary = [&](i64 l) { return l % k >= j0 && l % k < j0 + w; };
    // Rank and local-address distance from index g (local index l) to the
    // source index g + delta, which has the same mapping.
    const auto source = [&](i64 g, i64 l) {
      const i64 s = g + delta;
      return std::pair<i64, i64>{(dist.owner(s) - dist.owner(g)) * rank_step,
                                 (dist.local_index(s) - l) * addr_step};
    };
    // Each rank's share and, along the innermost dimension, the boundary
    // elements of one of its rows, found block by block along the share's
    // runs (global and local index advance together within a run).
    struct Edge {
      i64 at;     // local index in the row
      i64 rank;   // source rank
      i64 shift;  // source local address minus the target's
    };
    std::vector<detail::OwnedShare> shares;
    std::vector<std::vector<Edge>> row_edges(static_cast<std::size_t>(p.ranks));
    for (i64 r = 0; r < p.ranks; ++r) {
      shares.push_back(detail::owned_share(map, p.region, r));
      if (shares.back().empty || !h.staged) continue;
      shares.back().plan.for_each_run([&](i64 g, i64 la, i64 n) {
        for (i64 b = la - la % k; b < la + n; b += k)
          for (i64 l = std::max(b + j0, la); l < std::min(b + j0 + w, la + n); ++l) {
            const auto [dr, da] = source(g + l - la, l);
            row_edges[static_cast<std::size_t>(r)].push_back({l, r + dr, da});
          }
      });
    }
    // Two passes, counting then filling the streams, each laying the halo
    // out afresh; emit(channel, src, dst, n) adds n consecutive elements.
    const auto walk = [&](auto&& emit) {
      h.counts.assign(static_cast<std::size_t>(p.ranks), 0);
      h.rows.assign(static_cast<std::size_t>(p.ranks), {});
      i64 len = 1;
      for (i64 r = 0; r < p.ranks; ++r) {
        const detail::OwnedShare& sh = shares[static_cast<std::size_t>(r)];
        if (sh.empty) continue;
        std::vector<i64>& rows = h.rows[static_cast<std::size_t>(r)];
        i64& count = h.counts[static_cast<std::size_t>(r)];
        i64 used = 0;  // this rank's halo length so far
        if (!h.staged) {
          const i64 first = sh.plan.first_local();
          const i64 row_len = sh.kernel.count();  // one dense run (shift_statement_blocker)
          const detail::DimShare& sd = sh.outer[d];
          detail::for_each_row(sh, [&](i64 row, const std::vector<std::size_t>& pos) {
            const i64 base = row + first;
            const i64 l = sd.local_idx[pos[d]];
            if (!boundary(l)) {
              rows.push_back(-1);
              return;
            }
            const auto [dr, da] = source(sd.index[pos[d]], l);
            emit(r * p.ranks + r + dr, base + da, used, row_len);
            rows.push_back(used);
            used += row_len;
          });
          count = used;
        } else {
          const std::vector<Edge>& edges = row_edges[static_cast<std::size_t>(r)];
          // Slots run from the first block with a boundary element in the
          // share to the last, so full rows leave no gaps between them.
          const i64 first_block = edges.empty() ? 0 : edges.front().at / k;
          const i64 row_slots = edges.empty() ? 0 : (edges.back().at / k - first_block + 1) * w;
          detail::for_each_row(sh, [&](i64 row, const std::vector<std::size_t>&) {
            for (const Edge& e : edges)
              emit(r * p.ranks + e.rank, row + e.at + e.shift,
                   used + (e.at / k - first_block) * w + e.at % k - j0, i64{1});
            rows.push_back(used - first_block * w);
            count += static_cast<i64>(edges.size());
            used += row_slots;
          });
        }
        len = std::max(len, used);
      }
      h.len = len;
    };
    detail::ChannelStreams streams;
    streams.reset(p.ranks * p.ranks);
    walk([&](i64 c, i64, i64, i64 n) { streams.count(c, n); });
    streams.layout();
    walk([&](i64 c, i64 sa, i64 da, i64 n) { streams.put_run(c, sa, 1, da, 1, n); });
    o.plan = std::make_shared<const CommPlan>(CommPlan::from_streams(p.ranks, streams));
  }

  u8 lane_from_shift(const Expr& e) {
    if (p.region.size() != 1) throw BailOut{};  // the interpreter rejects N-D shifts
    const DistributedArray<double>* src = find(e.name);
    if (src == nullptr || src->dims() != 1) throw BailOut{};
    const i64 n = src->size();
    if (p.region[0].size() != n) throw BailOut{};  // interp raises at run time
    if (src->dist().procs() != dst->dist().procs()) throw BailOut{};
    if (p.n_scratch >= kMaxScratch) throw BailOut{};
    const u8 slot = static_cast<u8>(p.n_scratch++);
    // The shift lands in an identity-aligned src-distributed temporary, then
    // plan-copies whole-array -> the target section. Using a proxy with exactly the
    // interpreter's temporary mapping means both tiers share one PlanCache
    // entry for this copy.
    DistributedArray<double> proxy(src->dist(), n);
    auto plan = cached_copy_plan(proxy, RegularSection{0, n - 1, 1}, *dst, p.region[0], *exec);
    const i32 aux = add_operand(bc::Operand{.array = e.name,
                                            .shift = e.shift,
                                            .circular = e.circular,
                                            .boundary = e.scalar,
                                            .plan = std::move(plan)});
    p.loads.push_back(
        bc::Instr{.op = bc::Op::kLoadShift, .a = slot, .aux = aux, .line = e.line});
    const u8 lane = alloc_lane();
    p.lanes.push_back(
        bc::Instr{.op = bc::Op::kLaneScratch, .a = lane, .b = slot, .line = e.line});
    return lane;
  }

  void note_fusion(int line, const std::string& what) {
    p.notes.push_back("line " + std::to_string(line) + ": " + what);
  }

  u8 compile_vec(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kSection:
        return lane_from_section(e);
      case Expr::Kind::kShift:
        return lane_from_shift(e);
      case Expr::Kind::kRamp: {
        if (p.region.size() != 1) throw BailOut{};  // the interpreter rejects N-D forall
        const u8 lane = alloc_lane();
        bc::Operand ramp;
        ramp.ramp_lower = e.ramp_lower;
        ramp.ramp_stride = e.ramp_stride;
        const i32 aux = add_operand(std::move(ramp));
        p.lanes.push_back(
            bc::Instr{.op = bc::Op::kLaneRamp, .a = lane, .aux = aux, .line = e.line});
        return lane;
      }
      case Expr::Kind::kUnaryMinus: {
        const u8 r = compile_vec(*e.lhs);
        p.lanes.push_back(bc::Instr{.op = bc::Op::kLaneNeg, .a = r, .line = e.line});
        return r;
      }
      case Expr::Kind::kBinary:
        return compile_binary(e);
      case Expr::Kind::kScalar:
      case Expr::Kind::kScalarVar:
      case Expr::Kind::kReduce:
        throw BailOut{};  // unreachable: callers check scalar_shape first
    }
    throw BailOut{};
  }

  u8 compile_binary(const Expr& e) {
    const bool ls = scalar_shape(*e.lhs);
    const bool rs = scalar_shape(*e.rhs);

    // (X + Y) / s  ->  adddiv.vvs : the jacobi/stencil-average shape, the
    // one fused superinstruction.
    if (e.op == '/' && rs && !ls && e.lhs->kind == Expr::Kind::kBinary &&
        e.lhs->op == '+' && !scalar_shape(*e.lhs->lhs) && !scalar_shape(*e.lhs->rhs)) {
      const u8 x = compile_vec(*e.lhs->lhs);
      const u8 y = compile_vec(*e.lhs->rhs);
      const u8 s = compile_scalar(*e.rhs);
      if (const_zero(s)) throw BailOut{};
      if (!const_nonzero(s)) p.lanes_may_throw = true;
      p.lanes.push_back(bc::Instr{
          .op = bc::Op::kAddDivVVS, .a = x, .b = s, .c = y, .line = e.line});
      free_lane(y);
      note_fusion(e.line, "fused add+divide (stencil average): one pass over the lanes");
      return x;
    }

    // Everything else: one lane instruction per operator.
    if (!ls && !rs) {
      const u8 a = compile_vec(*e.lhs);
      const u8 b = compile_vec(*e.rhs);
      bc::Op op = bc::Op::kAddVV;
      switch (e.op) {
        case '+': op = bc::Op::kAddVV; break;
        case '-': op = bc::Op::kSubVV; break;
        case '*': op = bc::Op::kMulVV; break;
        case '/':
          op = bc::Op::kDivVV;
          p.lanes_may_throw = true;
          break;
        default: throw BailOut{};
      }
      p.lanes.push_back(bc::Instr{.op = op, .a = a, .b = b, .line = e.line});
      free_lane(b);
      return a;
    }
    if (!ls && rs) {
      const u8 a = compile_vec(*e.lhs);
      const u8 s = compile_scalar(*e.rhs);
      bc::Op op = bc::Op::kAddVS;
      switch (e.op) {
        case '+': op = bc::Op::kAddVS; break;
        case '-': op = bc::Op::kSubVS; break;
        case '*': op = bc::Op::kMulVS; break;
        case '/':
          op = bc::Op::kDivVS;
          if (const_zero(s)) throw BailOut{};
          if (!const_nonzero(s)) p.lanes_may_throw = true;
          break;
        default: throw BailOut{};
      }
      p.lanes.push_back(bc::Instr{.op = op, .a = a, .b = s, .line = e.line});
      return a;
    }
    // scalar op vector: + and * commute bit-exactly onto the vs forms;
    // - and / need the swapped-operand instructions.
    const u8 s = compile_scalar(*e.lhs);
    const u8 a = compile_vec(*e.rhs);
    bc::Op op = bc::Op::kAddVS;
    switch (e.op) {
      case '+': op = bc::Op::kAddVS; break;
      case '*': op = bc::Op::kMulVS; break;
      case '-': op = bc::Op::kSubSV; break;
      case '/':
        op = bc::Op::kDivSV;
        p.lanes_may_throw = true;  // any lane element may be zero
        break;
      default: throw BailOut{};
    }
    p.lanes.push_back(bc::Instr{.op = op, .a = a, .b = s, .line = e.line});
    return a;
  }

  // -- statement entry points ------------------------------------------------

  /// Target dst(section): compiles only under identity alignment in every
  /// dimension, at any rank. Each rank's share is its local rows plus the
  /// innermost dimension's plan and kernel; every other shape stays on the
  /// interpreter.
  void open_target(const SectionRef& section) {
    dst = find(section.array);
    if (dst == nullptr) throw BailOut{};
    const MultiDimMapping& map = dst->mapping();
    for (std::size_t d = 0; d < map.dims(); ++d)
      if (!map.dim(d).align.is_identity()) throw BailOut{};
    p.region = Machine::make_region(section, *dst);
    p.target = section.array;
    p.ranks = map.grid().rank_count();
    p.lane_count = region_size(p.region);
    exec.emplace(p.ranks, m.mode_);
    for (i64 r = 0; r < p.ranks; ++r) p.shares.push_back(share_of(r));
  }

  /// True when `in` writes lane register `r`'s backing buffer. kLaneDirect
  /// and kLaneScratch are excluded: in dense-run mode they only re-point the
  /// register at a source span, and fusion is a dense-run-only rewrite.
  [[nodiscard]] static bool writes_lane_buf(const bc::Instr& in, u8 r) {
    if (in.a != r) return false;
    return in.op == bc::Op::kLaneRamp ||
           (in.op >= bc::Op::kLaneNeg && in.op <= bc::Op::kAddDivVVS);
  }

  void finalize_store(u8 store_reg) {
    p.store_reg = store_reg;
    resolve_shifts(shift_statement_blocker());
    if (p.lanes_may_throw) return;
    // Store fusion redirects EVERY buffer write of the store register into
    // the destination span, so intermediate results become visible through
    // any kLaneDirect alias of the target before the statement completes
    // (A = B + C + A would read back B+C instead of A). It preserves the
    // interpreter's evaluate-whole-RHS-then-store semantics only when
    //   (a) the sole buffer write to the store register is the root pass —
    //       the last lane instruction before the terminal: everything
    //       reading the target runs before or inside that pass, sees its
    //       pristine values, and the root's same-index read-then-write
    //       aliasing within one element-wise loop is safe; or
    //   (b) no lane instruction aliases the target at all, so intermediates
    //       parked in the span are never observed.
    int writers = 0;
    std::size_t last_writer = 0;
    bool reads_target = false;
    const std::size_t body = p.lanes.size() - 1;  // exclude the terminal
    for (std::size_t i = 0; i < body; ++i) {
      const bc::Instr& in = p.lanes[i];
      if (writes_lane_buf(in, store_reg)) {
        ++writers;
        last_writer = i;
      }
      if (in.op == bc::Op::kLaneDirect &&
          p.operands[static_cast<std::size_t>(in.aux)].array == p.target)
        reads_target = true;
    }
    if (writers == 0) return;
    const bool sole_root_writer = writers == 1 && last_writer == body - 1;
    if (!sole_root_writer && reads_target) return;
    p.store_fused = true;
    p.notes.push_back("store fused into the final arithmetic pass (dense runs)");
  }

  std::shared_ptr<const bc::CompiledProgram> take() {
    return std::make_shared<const bc::CompiledProgram>(std::move(p));
  }

  /// Callers keep runtime assignments (fills, bare copies) away from here.
  std::shared_ptr<const bc::CompiledProgram> compile_assign(const SectionRef& target,
                                                            const Expr& value) {
    open_target(target);
    const u8 r = compile_vec(value);
    p.lanes.push_back(bc::Instr{.op = bc::Op::kStoreLanes, .a = r, .line = value.line});
    finalize_store(r);
    return take();
  }

  std::shared_ptr<const bc::CompiledProgram> compile_where(const WhereStmt& s) {
    open_target(s.target);
    if (p.region.size() != 1) throw BailOut{};  // the interpreter rejects N-D where
    u8 flags = 0;
    u8 ml = 0, mr = 0, v = 0;
    if (scalar_shape(*s.mask_lhs)) {
      ml = compile_scalar(*s.mask_lhs);
      flags |= bc::kMaskLhsScalar;
    } else {
      ml = compile_vec(*s.mask_lhs);
    }
    if (scalar_shape(*s.mask_rhs)) {
      mr = compile_scalar(*s.mask_rhs);
      flags |= bc::kMaskRhsScalar;
    } else {
      mr = compile_vec(*s.mask_rhs);
    }
    if (scalar_shape(*s.value)) {
      v = compile_scalar(*s.value);
      flags |= bc::kMaskValScalar;
    } else {
      v = compile_vec(*s.value);
    }
    p.lanes.push_back(bc::Instr{.op = bc::Op::kStoreMasked,
                                .a = v,
                                .b = ml,
                                .c = mr,
                                .flags = flags,
                                .aux = relop_code(s.relop),
                                .line = s.line});
    p.store_reg = v;
    resolve_shifts("masked store");
    return take();
  }

  std::shared_ptr<const bc::CompiledProgram> compile_reduce_assign(
      const ScalarAssignStmt& s) {
    const Expr& root = *s.value;
    if (root.kind != Expr::Kind::kReduce || !root.lhs) throw BailOut{};
    if (scalar_shape(*root.lhs)) throw BailOut{};
    const SectionRef* anchor = find_reduce_anchor(*root.lhs);
    if (anchor == nullptr) throw BailOut{};
    open_target(*anchor);
    if (p.region.size() != 1) throw BailOut{};  // the interpreter rejects N-D anchors
    const u8 r = compile_vec(*root.lhs);
    const u8 out = new_sreg(0.0, false);
    p.lanes.push_back(bc::Instr{.op = bc::Op::kReduceLanes,
                                .a = out,
                                .b = r,
                                .c = reduce_code(root.reduce_op),
                                .line = root.line});
    p.result_sreg = out;
    p.scalar_target = s.name;
    p.store_reg = r;
    resolve_shifts("reduction terminal");
    note_fusion(root.line, "fused transform+reduce: no materialized temporary array");
    return take();
  }
};

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

/// Which part of the lane phase to run. Programs whose lane arithmetic can
/// throw (divisions) run kArith then kTerminal under two barriers, so the
/// destination array is never mutated when a division by zero aborts the
/// statement — exactly the interpreter's all-or-nothing behavior.
enum class Phase { kAll, kArith, kTerminal };

void run_lanes(const bc::CompiledProgram& p, i64 rank, const std::vector<double>& s,
               const double* const* src, const i64* len, double* dloc,
               std::vector<double>& arena, double* partial, char* seen, Phase phase) {
  // The innermost kernel picks the mode at every rank: under the runs class
  // each row is one span the lane sources alias (span mode); under the
  // others they are gathered, and the store scattered, through the kernel
  // at the row base.
  const bc::Share& share = p.shares[static_cast<std::size_t>(rank)];
  if (share.rows.empty()) return;
  const KernelPlan& kp = share.kernel;
  const bool span_mode = kp.cls() == AccessClass::kRuns;
  const std::size_t scratch0 = p.operands.size();  // src index of scratch slot 0
  const std::size_t halo0 = scratch0 + static_cast<std::size_t>(p.n_scratch);
  std::size_t widest = 0;
  std::size_t total = 0;
  for (const bc::Row& row : share.rows) {
    widest = std::max(widest, static_cast<std::size_t>(row.len));
    total += static_cast<std::size_t>(row.len);
  }
  if (p.strip > 0) widest = std::min(widest, static_cast<std::size_t>(p.strip));
  // Guarded store programs keep the store register of every row in one
  // full-share stash, so kTerminal stores exactly what kArith computed.
  // (Masked stores and reductions are 1-D: one row, whose registers stay
  // in their arena slots between the phases.)
  const bool stash_store = phase != Phase::kAll && p.lanes.back().op == bc::Op::kStoreLanes;
  arena.resize(static_cast<std::size_t>(p.n_lanes) * widest + (stash_store ? total : 0));
  double* const stash = arena.data() + static_cast<std::size_t>(p.n_lanes) * widest;

  struct Reg {
    const double* cur;  // where the register's value lives right now
    double* buf;        // where the next write to it lands
  };
  Reg regs[kMaxLanes];
  std::size_t cnt = 0;  // current pass's length

  const auto materialize = [&](u8 r) {
    if (regs[r].cur != regs[r].buf) {
      std::memcpy(regs[r].buf, regs[r].cur, cnt * sizeof(double));
      regs[r].cur = regs[r].buf;
    }
  };

  // One pass of the lane program per row (a 1-D share is a single row),
  // or per strip of it when a staged lane.shift copies into a register.
  // Every pass dispatches its instructions through one switch; the
  // terminal is the program's last instruction and ends the pass.
  const bc::Instr* const first = phase == Phase::kTerminal ? &p.lanes.back() : p.lanes.data();
  const bc::Instr* const last = p.lanes.data() + p.lanes.size();
  std::size_t off = 0;  // current pass's offset in the stash
  for (std::size_t ri = 0; ri < share.rows.size(); ++ri) {
    const bc::Row& row = share.rows[ri];
    const i64 span = row.base + kp.first_local();  // span mode: the row's first address
    const i64 span_end = span + row.len;
    for (i64 base = span; base < span_end; base += static_cast<i64>(cnt)) {
      cnt = static_cast<std::size_t>(p.strip > 0 ? std::min(span_end - base, p.strip)
                                                 : span_end - base);
      double* const dspan = dloc + base;  // this pass's destination span
      for (int i = 0; i < p.n_lanes; ++i) {
        regs[i].buf = arena.data() + static_cast<std::size_t>(i) * widest;
        regs[i].cur = regs[i].buf;
      }
      if (stash_store) {
        regs[p.store_reg].buf = stash + off;
        regs[p.store_reg].cur = regs[p.store_reg].buf;
      } else if (p.store_fused && span_mode) {
        // Store fusion: the final arithmetic instruction targeting the
        // store register writes the destination span directly (span mode
        // only, and only when no lane instruction can throw).
        regs[p.store_reg].buf = dspan;
      }
      for (const bc::Instr* ip = first; ip != last; ++ip) {
        switch (ip->op) {
          case bc::Op::kLaneDirect: {
            Reg& r = regs[ip->a];
            const double* sl = src[ip->aux];
            if (span_mode) {
              r.cur = sl + base;
            } else {
              kernel_gather(kp, sl + row.base, r.buf);
              r.cur = r.buf;
            }
            break;
          }
          case bc::Op::kLaneScratch: {
            Reg& r = regs[ip->a];
            const double* sl = src[scratch0 + ip->b];
            if (span_mode) {
              r.cur = sl + base;
            } else {
              kernel_gather(kp, sl + row.base, r.buf);
              r.cur = r.buf;
            }
            break;
          }
          case bc::Op::kLaneShift: {
            Reg& r = regs[ip->a];
            const bc::Operand& o = p.operands[static_cast<std::size_t>(ip->aux)];
            const bc::Halo& h = o.halo;
            const i64 hr = h.rows[static_cast<std::size_t>(rank)][ri];
            const double* sl = src[ip->aux];
            const double* hl = src[halo0 + ip->b];
            if (!h.staged) {
              // Outer dimension: the row reads its own source row in place,
              // or its halo row at a block edge.
              r.cur = hr < 0 ? sl + base + h.offset : hl + hr + (base - span);
              break;
            }
            // Innermost dimension: stage the strip from base + offset,
            // clipped to this source's own local span (every clipped
            // position is a boundary position, whatever the source's
            // length), then patch boundary offset j0 + jj of every block
            // from its halo slot (block L's slots start at hr + L*w): one
            // strided loop per offset. The stage is the register's own
            // arena slot, even when store fusion points its writes at the
            // destination span: copying into the cold destination first is
            // measurably slower.
            double* const stage = arena.data() + static_cast<std::size_t>(ip->a) * widest;
            const i64 end = base + static_cast<i64>(cnt);
            const i64 from = base + h.offset;
            const i64 lo = std::max<i64>(from, 0);
            const i64 hi = std::min(end + h.offset, len[ip->aux]);
            if (hi > lo)
              std::memcpy(stage + (lo - from), sl + lo,
                          static_cast<std::size_t>(hi - lo) * sizeof(double));
            const i64 k = h.block;
            const i64 w = o.shift < 0 ? -o.shift : o.shift;
            const i64 blk = (base - row.base) / k;  // the block holding base
            const i64 at = row.base + blk * k + (o.shift < 0 ? 0 : k - o.shift);
            for (i64 jj = 0; jj < w; ++jj) {
              i64 a = at + jj;
              i64 slot = hr + blk * w + jj;
              if (a < base) {
                a += k;
                slot += w;
              }
              for (; a < end; a += k, slot += w) stage[a - base] = hl[slot];
            }
            r.cur = stage;
            break;
          }
          case bc::Op::kLaneRamp: {
            const bc::Operand& o = p.operands[static_cast<std::size_t>(ip->aux)];
            Reg& r = regs[ip->a];
            double* out = r.buf;
            std::size_t i = 0;
            const RegularSection& sec = p.region[0];  // forall ramps are rank-1
            share.plan.for_each([&](i64 cell, i64) {
              const i64 t = (cell - sec.lower) / sec.stride;
              out[i++] = static_cast<double>(o.ramp_lower + t * o.ramp_stride);
            });
            r.cur = r.buf;
            break;
          }
          case bc::Op::kLaneNeg: {
            Reg& r = regs[ip->a];
            const double* x = r.cur;
            double* o = r.buf;
            for (std::size_t i = 0; i < cnt; ++i) o[i] = -x[i];
            r.cur = o;
            break;
          }
          case bc::Op::kAddVV: {
            Reg& r = regs[ip->a];
            const double* x = r.cur;
            const double* y = regs[ip->b].cur;
            double* o = r.buf;
            for (std::size_t i = 0; i < cnt; ++i) o[i] = x[i] + y[i];
            r.cur = o;
            break;
          }
          case bc::Op::kSubVV: {
            Reg& r = regs[ip->a];
            const double* x = r.cur;
            const double* y = regs[ip->b].cur;
            double* o = r.buf;
            for (std::size_t i = 0; i < cnt; ++i) o[i] = x[i] - y[i];
            r.cur = o;
            break;
          }
          case bc::Op::kMulVV: {
            Reg& r = regs[ip->a];
            const double* x = r.cur;
            const double* y = regs[ip->b].cur;
            double* o = r.buf;
            for (std::size_t i = 0; i < cnt; ++i) o[i] = x[i] * y[i];
            r.cur = o;
            break;
          }
          case bc::Op::kDivVV: {
            Reg& r = regs[ip->a];
            const double* x = r.cur;
            const double* y = regs[ip->b].cur;
            double* o = r.buf;
            for (std::size_t i = 0; i < cnt; ++i) {
              if (y[i] == 0.0) throw dsl_error("division by zero", ip->line);
              o[i] = x[i] / y[i];
            }
            r.cur = o;
            break;
          }
          case bc::Op::kAddVS: {
            Reg& r = regs[ip->a];
            const double* x = r.cur;
            const double sv = s[ip->b];
            double* o = r.buf;
            for (std::size_t i = 0; i < cnt; ++i) o[i] = x[i] + sv;
            r.cur = o;
            break;
          }
          case bc::Op::kSubVS: {
            Reg& r = regs[ip->a];
            const double* x = r.cur;
            const double sv = s[ip->b];
            double* o = r.buf;
            for (std::size_t i = 0; i < cnt; ++i) o[i] = x[i] - sv;
            r.cur = o;
            break;
          }
          case bc::Op::kMulVS: {
            Reg& r = regs[ip->a];
            const double* x = r.cur;
            const double sv = s[ip->b];
            double* o = r.buf;
            for (std::size_t i = 0; i < cnt; ++i) o[i] = x[i] * sv;
            r.cur = o;
            break;
          }
          case bc::Op::kDivVS: {
            Reg& r = regs[ip->a];
            const double* x = r.cur;
            const double sv = s[ip->b];
            // Every rank that owns elements raises exactly what apply_op
            // would on its first element; the executor propagates the
            // lowest rank's error.
            if (sv == 0.0) throw dsl_error("division by zero", ip->line);
            double* o = r.buf;
            for (std::size_t i = 0; i < cnt; ++i) o[i] = x[i] / sv;
            r.cur = o;
            break;
          }
          case bc::Op::kSubSV: {
            Reg& r = regs[ip->a];
            const double* x = r.cur;
            const double sv = s[ip->b];
            double* o = r.buf;
            for (std::size_t i = 0; i < cnt; ++i) o[i] = sv - x[i];
            r.cur = o;
            break;
          }
          case bc::Op::kDivSV: {
            Reg& r = regs[ip->a];
            const double* x = r.cur;
            const double sv = s[ip->b];
            double* o = r.buf;
            for (std::size_t i = 0; i < cnt; ++i) {
              if (x[i] == 0.0) throw dsl_error("division by zero", ip->line);
              o[i] = sv / x[i];
            }
            r.cur = o;
            break;
          }
          case bc::Op::kAddDivVVS: {
            Reg& r = regs[ip->a];
            const double* x = r.cur;
            const double sv = s[ip->b];
            const double* y = regs[ip->c].cur;
            if (sv == 0.0) throw dsl_error("division by zero", ip->line);
            double* o = r.buf;
            for (std::size_t i = 0; i < cnt; ++i) {
              const double t = x[i] + y[i];
              o[i] = t / sv;
            }
            r.cur = o;
            break;
          }
          case bc::Op::kStoreLanes: {
            if (phase == Phase::kArith) {
              materialize(ip->a);
              break;
            }
            const double* x = regs[ip->a].cur;
            if (span_mode) {
              if (x != dspan) std::memcpy(dspan, x, cnt * sizeof(double));
            } else {
              kernel_scatter(kp, dloc + row.base, x);
            }
            break;
          }
          case bc::Op::kStoreMasked: {
            const u8 fl = ip->flags;
            const bool vs = (fl & bc::kMaskValScalar) != 0;
            const bool lsc = (fl & bc::kMaskLhsScalar) != 0;
            const bool rsc = (fl & bc::kMaskRhsScalar) != 0;
            if (phase == Phase::kArith) {
              if (!vs) materialize(ip->a);
              if (!lsc) materialize(ip->b);
              if (!rsc) materialize(ip->c);
              break;
            }
            const double* xv = vs ? nullptr : regs[ip->a].cur;
            const double* lv = lsc ? nullptr : regs[ip->b].cur;
            const double* rv = rsc ? nullptr : regs[ip->c].cur;
            const double xs = vs ? s[ip->a] : 0.0;
            const double lsv = lsc ? s[ip->b] : 0.0;
            const double rsv = rsc ? s[ip->c] : 0.0;
            const i32 rel = ip->aux;
            std::size_t i = 0;
            kernel_for_each_local(kp, [&](i64 la) {
              const double x = lsc ? lsv : lv[i];
              const double y = rsc ? rsv : rv[i];
              bool h = false;
              switch (rel) {
                case bc::kLT: h = x < y; break;
                case bc::kGT: h = x > y; break;
                case bc::kLE: h = x <= y; break;
                case bc::kGE: h = x >= y; break;
                case bc::kEQ: h = x == y; break;
                default: h = x != y; break;
              }
              if (h) dloc[row.base + la] = vs ? xs : xv[i];
              ++i;
            });
            break;
          }
          case bc::Op::kReduceLanes: {
            const double* x = regs[ip->b].cur;
            double acc = x[0];
            switch (ip->c) {
              case bc::kRedSum:
                for (std::size_t i = 1; i < cnt; ++i) acc = acc + x[i];
                break;
              case bc::kRedMin:
                for (std::size_t i = 1; i < cnt; ++i) acc = acc < x[i] ? acc : x[i];
                break;
              default:  // kRedMax
                for (std::size_t i = 1; i < cnt; ++i) acc = acc > x[i] ? acc : x[i];
                break;
            }
            *partial = acc;
            *seen = 1;
            break;
          }
          case bc::Op::kScalarVar:
          case bc::Op::kReduceSec:
          case bc::Op::kScalarNeg:
          case bc::Op::kScalarBin:
          case bc::Op::kLoadSection:
          case bc::Op::kLoadShift:
          case bc::Op::kLoadRegion:
            break;  // prelude and load ops: never placed in the lane stream
        }
      }
      off += cnt;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// JitEngine
// ---------------------------------------------------------------------------

std::shared_ptr<const bc::CompiledProgram> JitEngine::program_for(
    const std::string& key, const AssignStmt* assign, const WhereStmt* where,
    const ScalarAssignStmt* scalar_assign) {
  if (auto hit = bc::ProgramCache::global().find(key)) return std::move(*hit);
  std::shared_ptr<const bc::CompiledProgram> prog;
  CYCLICK_SPAN("jit.compile", obs::kMainTid);
  JitCompiler jc(m_);
  try {
    if (assign != nullptr) {
      prog = jc.compile_assign(assign->target, *assign->value);
    } else if (where != nullptr) {
      prog = jc.compile_where(*where);
    } else {
      prog = jc.compile_reduce_assign(*scalar_assign);
    }
  } catch (const BailOut&) {
    prog = nullptr;
  } catch (const dsl_error&) {
    // Real program error (bad section, constant division by zero): leave a
    // negative entry so the interpreter raises it, now and on every replay.
    prog = nullptr;
  }
  CYCLICK_COUNT("jit.compiles", 0, 1);
  bc::ProgramCache::global().insert(key, prog);
  return prog;
}

void JitEngine::execute(const bc::CompiledProgram& p) {
  CYCLICK_COUNT("jit.exec", 0, 1);
  Machine::ArrayInfo& dst = m_.lookup(p.target, 0);
  const SpmdExecutor exec(p.ranks, m_.mode_);

  // Scalar prelude (control thread).
  std::vector<double> s(p.sreg_init);
  for (const bc::Instr& in : p.prelude) {
    switch (in.op) {
      case bc::Op::kScalarVar: {
        const bc::Operand& o = p.operands[static_cast<std::size_t>(in.aux)];
        const auto it = m_.scalars_.find(o.array);
        if (it == m_.scalars_.end())
          throw dsl_error("unknown scalar '" + o.array + "'", in.line);
        s[in.a] = it->second;
        break;
      }
      case bc::Op::kReduceSec: {
        const bc::Operand& o = p.operands[static_cast<std::size_t>(in.aux)];
        const DistributedArray<double>& arr = *m_.lookup(o.array, in.line).arr;
        const SpmdExecutor rexec(arr.dist().procs(), m_.mode_);
        switch (in.b) {
          case bc::kRedSum:
            s[in.a] = reduce_section(
                arr, o.region[0], 0.0, [](double a, double b) { return a + b; }, rexec);
            break;
          case bc::kRedMin:
            s[in.a] = reduce_section(
                arr, o.region[0], std::numeric_limits<double>::infinity(),
                [](double a, double b) { return a < b ? a : b; }, rexec);
            break;
          default:
            s[in.a] = reduce_section(
                arr, o.region[0], -std::numeric_limits<double>::infinity(),
                [](double a, double b) { return a > b ? a : b; }, rexec);
            break;
        }
        break;
      }
      case bc::Op::kScalarNeg:
        s[in.a] = -s[in.a];
        break;
      case bc::Op::kScalarBin:
        s[in.a] = Machine::apply_op(in.x, s[in.b], s[in.c], in.line);
        break;
      default:
        break;
    }
  }

  if (m_.tracing_) {
    m_.trace("bytecode " +
             (p.scalar_target.empty() ? p.target + p.shape()
                                      : p.scalar_target + " = reduce " + p.target + p.shape()) +
             " [" + std::to_string(p.lanes.size()) + " lane instrs, " +
             std::to_string(p.loads.size()) + " loads]");
  }

  // Load phase: land remote operands in destination-shaped scratch arrays
  // through the compile-time plans.
  const DistributedArray<double>& target = *dst.arr;
  std::vector<std::unique_ptr<DistributedArray<double>>> scratch(
      static_cast<std::size_t>(p.n_scratch));
  for (const bc::Instr& in : p.loads) {
    const bc::Operand& o = p.operands[static_cast<std::size_t>(in.aux)];
    const DistributedArray<double>& src = *m_.lookup(o.array, in.line).arr;
    auto t = m_.acquire_temp(target.mapping());
    if (in.op == bc::Op::kLoadRegion) {
      execute_redistribution(*o.region_plan, src, *t, exec);
    } else if (in.op == bc::Op::kLoadSection) {
      execute_copy_plan(*o.plan, src, *t, exec);
    } else {  // kLoadShift
      auto sh = m_.acquire_temp(src.dist(), src.size());
      if (o.circular) {
        cshift(src, *sh, o.shift, exec);
      } else {
        eoshift(src, *sh, o.shift, o.boundary, exec);
      }
      execute_copy_plan(*o.plan, *sh, *t, exec);
      m_.release_temp(std::move(sh));
    }
    scratch[in.a] = std::move(t);
  }
  // Halo phase: each lane.shift operand's block-boundary elements, through
  // its compile-time halo plan, into a compact per-rank buffer.
  std::vector<std::unique_ptr<DistributedArray<double>>> halos(
      static_cast<std::size_t>(p.n_halo));
  for (const bc::Instr& in : p.lanes) {
    if (in.op != bc::Op::kLaneShift) continue;
    CYCLICK_SPAN("jit.halo", obs::kMainTid);
    const bc::Operand& o = p.operands[static_cast<std::size_t>(in.aux)];
    auto h = m_.acquire_temp(BlockCyclic(p.ranks, o.halo.len), p.ranks * o.halo.len);
    execute_copy_plan(*o.plan, *m_.lookup(o.array, in.line).arr, *h, exec);
    for (i64 r = 0; r < p.ranks; ++r)
      CYCLICK_COUNT("jit.halo_elems", r, o.halo.counts[static_cast<std::size_t>(r)]);
    halos[in.b] = std::move(h);
  }

  // Per-rank local bases of every lane source, resolved once: direct
  // operands at their operand index, scratch slots after them.
  const auto ranks = static_cast<std::size_t>(p.ranks);
  const std::size_t halo0 = p.operands.size() + static_cast<std::size_t>(p.n_scratch);
  const std::size_t nsrc = halo0 + static_cast<std::size_t>(p.n_halo);
  std::vector<const double*> src(ranks * nsrc, nullptr);
  std::vector<i64> len(ranks * nsrc, 0);  // local span lengths, read by lane.shift
  std::vector<double*> dloc(ranks);
  for (std::size_t r = 0; r < ranks; ++r) dloc[r] = dst.arr->local(static_cast<i64>(r)).data();
  for (const bc::Instr& in : p.lanes) {
    if (in.op != bc::Op::kLaneDirect && in.op != bc::Op::kLaneShift) continue;
    const auto aux = static_cast<std::size_t>(in.aux);
    DistributedArray<double>& a = *m_.lookup(p.operands[aux].array, in.line).arr;
    for (std::size_t r = 0; r < ranks; ++r) {
      const std::span<double> l = a.local(static_cast<i64>(r));
      src[r * nsrc + aux] = l.data();
      len[r * nsrc + aux] = static_cast<i64>(l.size());
    }
  }
  for (std::size_t slot = 0; slot < static_cast<std::size_t>(p.n_scratch); ++slot)
    for (std::size_t r = 0; r < ranks; ++r) {
      const auto rank = static_cast<i64>(r);
      src[r * nsrc + p.operands.size() + slot] = scratch[slot]->local(rank).data();
    }
  for (std::size_t h = 0; h < halos.size(); ++h)
    for (std::size_t r = 0; r < ranks; ++r)
      src[r * nsrc + halo0 + h] = halos[h]->local(static_cast<i64>(r)).data();

  if (arena_.size() < static_cast<std::size_t>(p.ranks))
    arena_.resize(static_cast<std::size_t>(p.ranks));
  std::vector<double> partial(static_cast<std::size_t>(p.ranks), 0.0);
  std::vector<char> seen(static_cast<std::size_t>(p.ranks), 0);

  const auto lanes = [&](i64 rank, Phase phase) {
    const auto r = static_cast<std::size_t>(rank);
    run_lanes(p, rank, s, src.data() + r * nsrc, len.data() + r * nsrc, dloc[r], arena_[r],
              partial.data() + rank, seen.data() + rank, phase);
  };
  const bc::Instr& term = p.lanes.back();
  const bool guarded = p.lanes_may_throw && term.op != bc::Op::kReduceLanes;
  CYCLICK_SPAN("jit.lanes", obs::kMainTid);
  if (guarded) {
    exec.run([&](i64 rank) { lanes(rank, Phase::kArith); });
    exec.run([&](i64 rank) { lanes(rank, Phase::kTerminal); });
  } else {
    exec.run([&](i64 rank) { lanes(rank, Phase::kAll); });
  }

  if (!p.scalar_target.empty()) {
    // Cross-rank fold, ascending rank order — reduce_section's exact
    // combination sequence.
    double out = 0.0;
    switch (term.c) {
      case bc::kRedSum: out = 0.0; break;
      case bc::kRedMin: out = std::numeric_limits<double>::infinity(); break;
      default: out = -std::numeric_limits<double>::infinity(); break;
    }
    for (i64 r = 0; r < p.ranks; ++r) {
      if (!seen[static_cast<std::size_t>(r)]) continue;
      const double v = partial[static_cast<std::size_t>(r)];
      switch (term.c) {
        case bc::kRedSum: out = out + v; break;
        case bc::kRedMin: out = out < v ? out : v; break;
        default: out = out > v ? out : v; break;
      }
    }
    m_.scalars_[p.scalar_target] = out;
  }

  for (auto& t : scratch) m_.release_temp(std::move(t));
  for (auto& t : halos) m_.release_temp(std::move(t));
}

bool JitEngine::try_assign(const AssignStmt& s) {
  // Fills and bare copies are one runtime call on either tier: no key, no
  // program, and no fallback to count.
  if (runtime_assign(*s.value)) return false;
  JitCompiler keyer(m_);
  const auto key = keyer.key_assign(s);
  if (!key) {
    CYCLICK_COUNT("jit.fallbacks", 0, 1);
    return false;
  }
  const auto prog = program_for(*key, &s, nullptr, nullptr);
  if (!prog) {
    CYCLICK_COUNT("jit.fallbacks", 0, 1);
    return false;
  }
  execute(*prog);
  return true;
}

bool JitEngine::try_where(const WhereStmt& s) {
  JitCompiler keyer(m_);
  const auto key = keyer.key_where(s);
  if (!key) {
    CYCLICK_COUNT("jit.fallbacks", 0, 1);
    return false;
  }
  const auto prog = program_for(*key, nullptr, &s, nullptr);
  if (!prog) {
    CYCLICK_COUNT("jit.fallbacks", 0, 1);
    return false;
  }
  execute(*prog);
  return true;
}

bool JitEngine::try_scalar_assign(const ScalarAssignStmt& s) {
  JitCompiler keyer(m_);
  const auto key = keyer.key_scalar(s);
  if (!key) {
    CYCLICK_COUNT("jit.fallbacks", 0, 1);
    return false;
  }
  const auto prog = program_for(*key, nullptr, nullptr, &s);
  if (!prog) {
    CYCLICK_COUNT("jit.fallbacks", 0, 1);
    return false;
  }
  execute(*prog);
  return true;
}

std::string JitEngine::listing_for(const SectionRef& target, const Expr& value) {
  if (runtime_assign(value)) return std::string();
  JitCompiler jc(m_);
  try {
    const auto prog = jc.compile_assign(target, value);
    return prog ? prog->listing() : std::string();
  } catch (const BailOut&) {
    return std::string();
  } catch (const dsl_error&) {
    return std::string();
  }
}

}  // namespace cyclick::dsl
