// Jit tier driver: compiles DSL statements into bytecode programs
// (compiler/bytecode.hpp) keyed in the process-wide ProgramCache, and
// executes them with a switch dispatch loop over per-rank lane vectors
// backed by the pattern kernels. Fills and bare section copies compile to
// nothing: both tiers run them as one fill_*/copy_section/copy_region call.
//
// Stencil operands — the target section or region shifted by less than a
// block along one dimension, like heat2d's U(i±1, j) and U(i, j±1) — read
// their own local rows (lane.shift); only the block-boundary halo moves,
// and the lane pass takes it in the same single pass over each row.
//
// Every statement compiles over one target region (a 1-D section is the
// rank-1 region {sec}) and runs one lane pass per row of each rank's share.
// The engine is deliberately conservative: any statement shape it cannot
// prove equivalent to the interpreter (non-identity-aligned targets, N-D
// reductions, mismatched processor arrangements, invalid sections, ...)
// makes try_* return false and the caller falls back to the tree walker, so
// the bytecode tier never changes results — only the number of passes taken
// to produce them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cyclick/compiler/bytecode.hpp"
#include "cyclick/compiler/interp.hpp"

namespace cyclick::dsl {

/// True when `target = value` is a fill (scalar-shaped value) or a bare
/// section copy: one runtime call on either tier, with no bytecode program.
[[nodiscard]] bool runtime_assign(const Expr& value);

class JitEngine {
 public:
  explicit JitEngine(Machine& machine) : m_(machine) {}

  /// Compile (or fetch from cache) and execute a statement under the
  /// bytecode tier. Returns false — with no side effects — when the
  /// statement is not bytecode-compilable, or is a runtime assignment;
  /// runtime errors (division by zero, unknown scalars) throw the same
  /// dsl_error the interpreter would.
  bool try_assign(const AssignStmt& s);
  bool try_where(const WhereStmt& s);
  bool try_scalar_assign(const ScalarAssignStmt& s);

  /// Disassembly of the program `target = value` compiles to, or "" when
  /// it compiles to none.
  std::string listing_for(const SectionRef& target, const Expr& value);

 private:
  std::shared_ptr<const bc::CompiledProgram> program_for(
      const std::string& key, const AssignStmt* assign, const WhereStmt* where,
      const ScalarAssignStmt* scalar_assign);
  void execute(const bc::CompiledProgram& p);

  Machine& m_;
  std::vector<std::vector<double>> arena_;  // per-rank lane buffers, reused
};

}  // namespace cyclick::dsl
