// Bytecode form of compiled DSL array statements: the portable program
// representation the jit tier lowers statements into, plus the process-wide
// statement-shape-keyed program cache.
//
// A compiled program is a small register machine split into three phases:
//
//   prelude  scalar registers — variable lookups, reductions over bare
//            sections, scalar arithmetic. Runs once, on the control thread,
//            before any array data moves (loop-invariant scalars are folded
//            into sreg_init at compile time and never re-evaluated).
//   loads    operand communication — each remote operand lands in a
//            destination-shaped scratch array through a CommPlan (rank 1)
//            or region plan (N-D) resolved at compile time and shared with
//            the interpreter's plan caches. An operand that is the target
//            section or region shifted by delta in one dimension (0 < |delta|
//            < k of that dimension) under the target's mapping instead reads
//            its own local span (lane.shift): only its block-boundary halo
//            moves, through one plan, into a compact per-rank buffer.
//   lanes    the per-rank phase — every rank walks its share of the
//            target region (a 1-D section is the rank-1 region {sec}) row by
//            row, materializes each row as contiguous "lane" vectors and
//            applies straight-line arithmetic, ending in a store / masked
//            store / reduction fold. The innermost dimension's kernel picks
//            the mode at every rank: under the runs class the lanes alias
//            the local span (address-adjacent rows merge into one run);
//            under the other classes they are gathered and scattered
//            through the kernel at the row base. A 1-D share is one row.
//            A lane.shift along an outer dimension picks a base pointer per
//            row (its own row at +delta rows, or the halo row at a block
//            edge); one along the innermost dimension (or in 1-D) is staged:
//            the strip is copied from +delta, then its block-boundary
//            offsets are patched from the halo, in the same single pass.
//
// One fused superinstruction, kAddDivVVS, runs the stencil average
// (X + Y) / s in one loop instead of two, without changing the per-element
// operation sequence, so results stay bit-identical with the interpreter
// tier. Fills and bare section copies compile to no program: both tiers
// run them as one fill_*/copy_section/copy_region call.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cyclick/core/engine.hpp"
#include "cyclick/core/kernels.hpp"
#include "cyclick/runtime/section_ops.hpp"
#include "cyclick/runtime/redistribute.hpp"
#include "cyclick/support/lru_cache.hpp"
#include "cyclick/support/types.hpp"

namespace cyclick::dsl {
// Narrow register / operand-index types used by the bytecode tier.
using u8 = std::uint8_t;
using i32 = std::int32_t;
}  // namespace cyclick::dsl

namespace cyclick::dsl::bc {

enum class Op : u8 {
  // scalar prelude
  kScalarVar,   ///< s[a] = value of scalar variable operands[aux]
  kReduceSec,   ///< s[a] = reduce_section over operands[aux]; b = Reduce code
  kScalarNeg,   ///< s[a] = -s[a]
  kScalarBin,   ///< s[a] = s[b] <x> s[c]
  // operand loads
  kLoadSection,  ///< scratch[a] = plan copy of operands[aux]
  kLoadShift,    ///< scratch[a] = plan copy of cshift/eoshift(operands[aux])
  kLoadRegion,   ///< scratch[a] = region-plan copy of operands[aux] (N-D)
  // lane phase
  kLaneDirect,   ///< l[a] = owned lanes of operands[aux] (alias when dense)
  kLaneScratch,  ///< l[a] = owned lanes of scratch[b]   (alias when dense)
  kLaneShift,    ///< l[a] = local span of operands[aux] at +shift; halo[b] at block edges
  kLaneRamp,     ///< l[a] = forall index ramp operands[aux]
  kLaneNeg,      ///< l[a] = -l[a]
  kAddVV,        ///< l[a] = l[a] + l[b]
  kSubVV,        ///< l[a] = l[a] - l[b]
  kMulVV,        ///< l[a] = l[a] * l[b]
  kDivVV,        ///< l[a] = l[a] / l[b]   (throws on zero element)
  kAddVS,        ///< l[a] = l[a] + s[b]
  kSubVS,        ///< l[a] = l[a] - s[b]
  kMulVS,        ///< l[a] = l[a] * s[b]
  kDivVS,        ///< l[a] = l[a] / s[b]   (throws when s[b] == 0)
  kSubSV,        ///< l[a] = s[b] - l[a]
  kDivSV,        ///< l[a] = s[b] / l[a]   (throws on zero element)
  // fused superinstruction (one pass instead of two)
  kAddDivVVS,  ///< l[a] = (l[a] + l[c]) / s[b]    (stencil average shape)
  // terminals
  kStoreLanes,   ///< dst owned lanes = l[a]
  kStoreMasked,  ///< dst lanes where mask holds; a=value b=maskL c=maskR
  kReduceLanes,  ///< s[a] = rank-ordered fold of l[b]; c = Reduce code
};

[[nodiscard]] const char* op_name(Op op) noexcept;

/// Reduction codes (Instr::b for kReduceSec, Instr::c for kReduceLanes).
enum Reduce : u8 { kRedSum = 0, kRedMin = 1, kRedMax = 2 };

/// Relational codes for kStoreMasked (Instr::aux).
enum Relop : i32 { kLT = 0, kGT, kLE, kGE, kEQ, kNE };

/// kStoreMasked flag bits: which inputs are scalar registers (else lanes).
inline constexpr u8 kMaskValScalar = 1;
inline constexpr u8 kMaskLhsScalar = 2;
inline constexpr u8 kMaskRhsScalar = 4;

/// How a lane.shift operand reads its source: in place at local address
/// la + offset, except where the shifted element sits in a neighbouring
/// block, whose values the halo plan moves into a per-rank buffer.
struct Halo {
  i64 dim = 0;          // shifted dimension (0 for 1-D)
  i64 offset = 0;       // delta times the dimension's local address stride
  i64 block = 1;        // block size k of the shifted dimension
  bool staged = false;  // innermost dimension or 1-D: copy, then patch
  i64 len = 0;          // per-rank halo buffer length (block(len) array)
  std::vector<i64> counts;  // halo elements filled per rank
  /// Per rank, per share row. Staged shifts: the halo index of the row's
  /// block 0 boundary slots (block L's start L*|delta| later; may be
  /// negative, since blocks before the share have no slots). Outer shifts:
  /// the row's offset in the halo, or -1 when the whole row reads its own
  /// source row in place.
  std::vector<std::vector<i64>> rows;
};

/// Resolved operand: everything a load or lane-source instruction needs,
/// including the communication plan built (and cached process-wide) at
/// compile time. Plans depend only on array mappings, which the program
/// cache key pins, so a cached program's plans stay valid.
struct Operand {
  std::string array;              // source array / scalar-variable name
  Region region{};                // source region (a 1-D section: rank 1)
  i64 shift = 0;                  // kLoadShift; kLaneShift: the constant delta
  bool circular = true;           // kLoadShift: cshift vs eoshift
  double boundary = 0.0;          // kLoadShift: eoshift boundary value
  i64 ramp_lower = 0;             // kLaneRamp
  i64 ramp_stride = 1;            // kLaneRamp
  /// kLoadSection / kLoadShift: the operand copy. kLaneShift: the halo
  /// plan, moving the source elements whose target position sits in a
  /// neighbouring block into each rank's halo buffer.
  std::shared_ptr<const CommPlan> plan{};
  std::shared_ptr<const RedistributionPlan> region_plan{};  // kLoadRegion
  Halo halo{};                                              // kLaneShift
};

/// `A(region)`; a rank-1 region prints as its section does.
[[nodiscard]] std::string source_text(const Operand& o);

struct Instr {
  Op op = Op::kStoreLanes;
  u8 a = 0;       // destination register
  u8 b = 0;       // source register / scratch slot / reduce code
  u8 c = 0;       // second source register / reduce code
  u8 flags = 0;   // kStoreMasked scalar-input bits
  char x = 0;     // kScalarBin operator character
  i32 aux = -1;   // operand table index, or Relop for kStoreMasked
  i32 line = 0;   // source line for runtime diagnostics
};

/// One local row of a rank's destination share: the local address `base`
/// of the row's innermost local index 0, and its `len` elements. Under the
/// runs class, address-adjacent rows merge into one longer row.
struct Row {
  i64 base = 0;
  i64 len = 0;
};

/// One rank's share of the target region, from the runtime's owned walk
/// (detail::owned_share): its rows, plus the innermost dimension's engine
/// plan and kernel, whose local addresses are relative to a row base. A 1-D
/// share is one row.
struct Share {
  std::vector<Row> rows;
  SectionPlan plan;  // ramps walk it
  KernelPlan kernel;
};

struct CompiledProgram {
  std::string target;         // array whose mapping shapes the lane phase
  std::string scalar_target;  // nonempty for reduction programs: result var
  Region region;              // target region; a 1-D section is {sec}
  i64 ranks = 0;
  i64 lane_count = 0;  // elements in region

  std::vector<double> sreg_init;  // compile-time-folded scalar registers
  std::vector<Instr> prelude;
  std::vector<Instr> loads;
  std::vector<Instr> lanes;  // includes the terminal instruction
  std::vector<Operand> operands;

  /// Per rank; the lane program executes once per row. Programs with
  /// lane.shift operands keep their rows unmerged.
  std::vector<Share> shares;
  /// Strip length the lane pass splits each row into (0: whole rows), set
  /// when a staged lane.shift copies its operand into a lane register.
  i64 strip = 0;

  int n_sregs = 0;
  int n_lanes = 0;
  int n_scratch = 0;
  int n_halo = 0;  // lane.shift halo buffers
  u8 store_reg = 0;        // lane register consumed by the terminal
  u8 result_sreg = 0;      // kReduceLanes result register
  bool store_fused = false;      // final arith op may write the dst span
  bool lanes_may_throw = false;  // a lane instruction can raise (div by 0)
  std::vector<std::string> notes;  // fusion decisions, for listings

  /// The target region as text, e.g. "(1:30:1, 1:34:1)".
  [[nodiscard]] std::string shape() const;

  /// Human-readable disassembly: per-phase instructions, each rank's share
  /// (kernel class, rows, lanes), each lane.shift's dimension (N-D), delta,
  /// per-rank halo counts and messages, and the fusion decisions.
  [[nodiscard]] std::string listing() const;
};

/// Process-wide LRU of compiled programs keyed by statement shape (structure
/// + every referenced array's mapping), mirroring the PlanCache discipline.
/// A present-but-null entry is a negative result: the statement shape was
/// seen and declined, so repeat loops don't re-attempt compilation.
class ProgramCache {
 public:
  using Stats = LruStats;

  explicit ProgramCache(std::size_t capacity = 128) : cache_(capacity) {}

  /// The cached entry for `key` (possibly null: negative entry), or nullopt
  /// on a miss.
  [[nodiscard]] std::optional<std::shared_ptr<const CompiledProgram>> find(
      const std::string& key);
  void insert(const std::string& key, std::shared_ptr<const CompiledProgram> program);

  [[nodiscard]] Stats stats() const { return cache_.stats(); }
  /// Drop every program and zero the counters.
  void clear() { cache_.clear(); }

  static ProgramCache& global();

 private:
  LruCache<std::string, std::shared_ptr<const CompiledProgram>> cache_;
};

}  // namespace cyclick::dsl::bc
