// Executor for mini-HPF DSL programs: binds declarations to cyclick runtime
// objects and lowers array-assignment statements onto the region operation
// engine (communicate into destination-shaped temporaries, then compute
// locally) — the shape of node code an HPF compiler would emit.
//
// Every array is one DistributedArray of its declared rank, and every
// statement is evaluated over a Region (a 1-D section is the rank-1
// region): fills, copies, elementwise expressions, reductions, print and
// explain take one path at every rank, and so does the -v lowering trace.
// Shifts, forall index ramps, where and redistribute are rank-1 only.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cyclick/compiler/ast.hpp"
#include "cyclick/compiler/lexer.hpp"  // dsl_error
#include "cyclick/runtime/distributed_array.hpp"
#include "cyclick/runtime/spmd.hpp"

namespace cyclick::dsl {

class JitEngine;
struct JitCompiler;

/// First array-section operand of an expression tree (lhs before rhs;
/// shifts and reductions do not count) — the section a fused
/// reduction-over-expression anchors its element ordering to. Shared by
/// the interpreter and the bytecode compiler so both tiers pick the same
/// anchor. Null when the tree holds no section.
[[nodiscard]] const SectionRef* find_reduce_anchor(const Expr& e) noexcept;

/// Execution tiers for array statements. kBytecode compiles statements into
/// compact register programs (compiler/bytecode.hpp) executed by the jit
/// dispatch loop, falling back to the tree-walking interpreter for any
/// statement shape the compiler declines; kInterp forces the tree walker.
enum class Tier {
  kInterp,
  kBytecode,
};

/// Tier selected by the CYCLICK_TIER environment variable ("interp" or
/// "bytecode"), or `fallback` when unset/unrecognized.
[[nodiscard]] Tier tier_from_env(Tier fallback) noexcept;

/// Parse a --tier=interp|bytecode command-line flag. Returns false when the
/// argument is not a tier flag; throws nothing (unknown values are ignored
/// and leave `out` untouched, returning true so callers can warn).
bool parse_tier_flag(const std::string& arg, Tier& out) noexcept;

[[nodiscard]] const char* tier_name(Tier tier) noexcept;

class Machine {
 public:
  explicit Machine(SpmdExecutor::Mode mode = SpmdExecutor::Mode::kSequential);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Select the execution tier for subsequent statements (default: bytecode,
  /// or whatever CYCLICK_TIER says).
  void set_tier(Tier tier) noexcept { tier_ = tier; }
  [[nodiscard]] Tier tier() const noexcept { return tier_; }

  /// Parse and execute a program; print output accumulates in output().
  void run_source(std::string_view source);

  /// Execute an already-parsed program.
  void run(const Program& program);

  /// Text produced by print/explain statements so far.
  [[nodiscard]] const std::string& output() const noexcept { return output_; }

  /// Record a lowering trace: one line per runtime operation each statement
  /// lowers to (fills, copies, local combines, shifts, reductions). The
  /// compiler's "-v" view of what it emits.
  void enable_trace() noexcept { tracing_ = true; }
  [[nodiscard]] const std::string& trace_log() const noexcept { return trace_; }

  /// Access a declared array of any rank (throws dsl_error if unknown).
  [[nodiscard]] const DistributedArray<double>& array(const std::string& name) const;

  /// The assembled global image (row-major for N-D arrays).
  [[nodiscard]] std::vector<double> global_image(const std::string& name) const;

  /// Value of a scalar variable (throws dsl_error if unknown).
  [[nodiscard]] double scalar(const std::string& name) const;

 private:
  struct TemplateInfo {
    std::vector<i64> extents;
    std::vector<BlockCyclic> dists;  // set by a distribute statement (one per dim)
    int line = 0;
    [[nodiscard]] bool distributed() const noexcept { return !dists.empty(); }
  };

  struct ArrayInfo {
    std::unique_ptr<DistributedArray<double>> arr;
    std::string tmpl;
  };

  void exec(const ProcsDecl& d);
  void exec(const TemplateDecl& d);
  void exec(const DistributeDecl& d);
  void exec(const ArrayDecl& d);
  void exec(const AssignStmt& s);
  void exec(const ScalarAssignStmt& s);
  void exec(const PrintStmt& s);
  void exec(const ExplainStmt& s);
  void exec(const RedistributeStmt& s);
  void exec(const WhereStmt& s);
  void exec(const RepeatStmt& s);

  ArrayInfo& lookup(const std::string& name, int line);
  const ArrayInfo& lookup(const std::string& name, int line) const;
  /// The region a section reference names in `arr`, with the dsl_error
  /// checks every reference passes (arity, stride, emptiness, bounds).
  static Region make_region(const SectionRef& ref, const DistributedArray<double>& arr);

  /// Evaluation result: scalar, or a destination-shaped temporary holding
  /// per-element values at the destination region's local slots.
  struct Value {
    double scalar = 0.0;
    std::unique_ptr<DistributedArray<double>> temp;
    [[nodiscard]] bool is_scalar() const noexcept { return !temp; }
  };

  Value eval(const Expr& e, const DistributedArray<double>& dst, const Region& dregion,
             const SpmdExecutor& exec_ctx);
  /// Section operand `e` of a statement over dst(dregion): its array and
  /// region, with the dsl_error checks every operand passes
  /// (dimensionality, extent, processor arrangement).
  std::pair<const DistributedArray<double>&, Region> operand(const Expr& e,
                                                            const DistributedArray<double>& dst,
                                                            const Region& dregion);
  /// dst(dregion) = src(sregion) through the runtime copy, first logging
  /// the copy and its plan's message counts when tracing.
  void copy_traced(const std::string& src_name, const DistributedArray<double>& src,
                   const Region& sregion, const std::string& dst_text,
                   DistributedArray<double>& dst, const Region& dregion,
                   const SpmdExecutor& exec_ctx);

  /// Evaluate an expression that must come out scalar (no free sections).
  /// Memoizes literal-closed subtrees (see const_memo_); the uncached
  /// variant is the raw tree walk.
  double eval_scalar(const Expr& e, int line);
  double eval_scalar_uncached(const Expr& e, int line);

  static double apply_op(char op, double x, double y, int line);
  void trace(const std::string& line);

  /// True when `e` is a literal-closed scalar subtree (no variables,
  /// sections, or reductions) whose value cannot change between statements.
  static bool is_const_scalar(const Expr& e) noexcept;

  /// Scratch-temporary pool: destination-shaped temporaries are recycled
  /// across statements instead of reallocated (and re-zeroed) per operand.
  /// Safe because every consumer fully writes the region-owned slots it
  /// later reads. Temporaries match on mapping equality; the (dist, n)
  /// form is an identity-aligned rank-1 temporary.
  std::unique_ptr<DistributedArray<double>> acquire_temp(const MultiDimMapping& map);
  std::unique_ptr<DistributedArray<double>> acquire_temp(const BlockCyclic& dist, i64 n);
  void release_temp(std::unique_ptr<DistributedArray<double>> temp);

  JitEngine& jit();

  friend class JitEngine;
  friend struct JitCompiler;

  bool tracing_ = false;
  std::string trace_;
  SpmdExecutor::Mode mode_;
  Tier tier_;
  std::map<std::string, std::vector<i64>> procs_;
  std::map<std::string, TemplateInfo> templates_;
  std::map<std::string, ArrayInfo> arrays_;
  std::map<std::string, double> scalars_;
  std::string output_;

  /// Memo for loop-invariant (literal-closed) scalar subexpressions, keyed
  /// by AST node address. Cleared at the start of every top-level run() so
  /// node addresses from a destroyed Program can never be confused with a
  /// new one; inside repeat bodies (run_depth_ > 0) entries persist, which
  /// is where the hoisting pays off.
  std::unordered_map<const Expr*, double> const_memo_;
  int run_depth_ = 0;
  std::vector<std::unique_ptr<DistributedArray<double>>> temp_pool_;
  std::unique_ptr<JitEngine> jit_;
};

}  // namespace cyclick::dsl
