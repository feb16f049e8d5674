// End-to-end tests for the mini-HPF DSL interpreter: programs execute to
// the same global state as sequential reference semantics.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "cyclick/compiler/interp.hpp"

namespace cyclick::dsl {
namespace {

constexpr const char* kPrologue = R"(
processors P(4)
template T(320)
distribute T onto P cyclic(8)
array A(320) align with T(i)
array B(320) align with T(i)
)";

TEST(Interp, PaperAssignment) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + "A(4:300:9) = 100\n");
  const auto image = machine.global_image("A");
  const RegularSection sec{4, 300, 9};
  for (i64 g = 0; g < 320; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], sec.contains(g) ? 100.0 : 0.0) << g;
}

TEST(Interp, ExpressionArithmetic) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 3
B(0:319) = 2 * A(0:319) + 4
B(0:9) = B(0:9) / 2 - 1
)");
  const auto image = machine.global_image("B");
  for (i64 g = 0; g < 320; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], g < 10 ? 4.0 : 10.0) << g;
}

TEST(Interp, StridedCopyBetweenArrays) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 7
A(0:318:2) = 1
B(0:159) = A(0:318:2) * 10
)");
  const auto image = machine.global_image("B");
  for (i64 g = 0; g < 160; ++g) EXPECT_EQ(image[static_cast<std::size_t>(g)], 10.0) << g;
  for (i64 g = 160; g < 320; ++g) EXPECT_EQ(image[static_cast<std::size_t>(g)], 0.0) << g;
}

TEST(Interp, ReversalWithNegativeStride) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 1
A(0:9) = 5
B(319:310:-1) = A(0:9)
)");
  const auto image = machine.global_image("B");
  for (i64 g = 310; g < 320; ++g) EXPECT_EQ(image[static_cast<std::size_t>(g)], 5.0) << g;
}

TEST(Interp, SelfAssignmentWithShiftedSections) {
  // A(1:319) = A(0:318) — a shift; temporaries make it safe.
  Machine machine;
  machine.run_source(std::string(kPrologue) + "A(0:319) = 0\nA(0:0) = 9\n");
  for (int round = 0; round < 3; ++round)
    machine.run_source("A(1:319) = A(0:318)\n");
  const auto image = machine.global_image("A");
  // After 3 shifts the 9 has propagated: positions 0..3 are all 9 (position
  // 0 never overwritten, each shift copies old values rightward once).
  EXPECT_EQ(image[0], 9.0);
  EXPECT_EQ(image[1], 9.0);
  EXPECT_EQ(image[2], 9.0);
  EXPECT_EQ(image[3], 9.0);
  EXPECT_EQ(image[4], 0.0);
}

TEST(Interp, AlignedArraysAndDifferentDistributions) {
  Machine machine;
  machine.run_source(R"(
processors P(3)
template T(400)
template U(100)
distribute T onto P cyclic(5)
distribute U onto P block
array A(100) align with T(3*i+2)
array C(100) align with U(i)
A(0:99) = 4
C(0:99) = A(0:99) * A(0:99)
)");
  const auto image = machine.global_image("C");
  for (i64 g = 0; g < 100; ++g) EXPECT_EQ(image[static_cast<std::size_t>(g)], 16.0) << g;
}

TEST(Interp, PrintOutput) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + "A(0:319) = 2\nprint A(0:8:4)\n");
  EXPECT_EQ(machine.output(), "A(0:8:4) = 2 2 2\n");
}

TEST(Interp, ThreadedModeMatchesSequential) {
  const std::string program = std::string(kPrologue) + R"(
A(0:319) = 1
B(4:300:9) = A(8:304:9) + 2
B(0:99) = B(0:99) * 3 - A(100:199)
)";
  Machine seq(SpmdExecutor::Mode::kSequential);
  seq.run_source(program);
  Machine thr(SpmdExecutor::Mode::kThreads);
  thr.run_source(program);
  EXPECT_EQ(seq.global_image("A"), thr.global_image("A"));
  EXPECT_EQ(seq.global_image("B"), thr.global_image("B"));
}

TEST(Interp, SemanticErrors) {
  Machine machine;
  EXPECT_THROW((void)machine.run_source("distribute T onto P cyclic(8)"), dsl_error);
  EXPECT_THROW((void)machine.run_source("processors P(4)\narray A(10) align with T(i)"), dsl_error);
  EXPECT_THROW((void)machine.run_source(R"(
processors P(4)
template T(10)
array A(10) align with T(i)
)"),
               dsl_error);  // template not distributed
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) + "A(0:999) = 1\n"), dsl_error);
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) + "A(0:9) = B(0:19)\n"), dsl_error);
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) + "A(0:9) = 1 / 0\n"), dsl_error);
  EXPECT_THROW((void)machine.run_source(R"(
processors P(2)
template T(10)
distribute T onto P cyclic(2)
array A(20) align with T(i)
)"),
               dsl_error);  // alignment escapes template
}

TEST(Interp, ScalarVariablesAndReductions) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 2
total = sum(A(0:319))
lo = min(A(0:319))
hi = max(A(0:319))
A(0:0) = 9
hi2 = max(A(0:319))
B(0:319) = A(0:319) * total + hi2
print total
)");
  EXPECT_EQ(machine.scalar("total"), 640.0);
  EXPECT_EQ(machine.scalar("lo"), 2.0);
  EXPECT_EQ(machine.scalar("hi"), 2.0);
  EXPECT_EQ(machine.scalar("hi2"), 9.0);
  EXPECT_EQ(machine.global_image("B")[1], 2.0 * 640.0 + 9.0);
  EXPECT_EQ(machine.global_image("B")[0], 9.0 * 640.0 + 9.0);
  EXPECT_EQ(machine.output(), "total = 640\n");
}

TEST(Interp, ScalarArithmeticBetweenVariables) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
x = 10
y = x * 3 - 4
z = -y / 2
A(0:319) = z
)");
  EXPECT_EQ(machine.scalar("y"), 26.0);
  EXPECT_EQ(machine.scalar("z"), -13.0);
  EXPECT_EQ(machine.global_image("A")[100], -13.0);
}

TEST(Interp, ReductionOverStridedSection) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 1
A(4:300:9) = 100
hot = sum(A(4:300:9))
all = sum(A(0:319))
)");
  EXPECT_EQ(machine.scalar("hot"), 3300.0);       // 33 elements of 100
  EXPECT_EQ(machine.scalar("all"), 3300.0 + 287);  // rest are 1
}

TEST(Interp, ExplainDumpsPaperExample) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + "explain A(4:300:9)\n");
  const std::string& out = machine.output();
  EXPECT_NE(out.find("explain A(4:300:9) on 4 processors [cyclic(8)]"), std::string::npos)
      << out;
  // Processor 1's pattern from Figure 6.
  EXPECT_NE(out.find("proc 1: start A(13) local 5, period 8, AM = [3, 12, 15, 12, 3, 12, 3, 12]"),
            std::string::npos)
      << out;
}

TEST(Interp, SectionInScalarContextRejected) {
  Machine machine;
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) + "x = A(0:9)\n"), dsl_error);
}

TEST(Interp, UnknownScalarRejected) {
  Machine machine;
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) + "A(0:9) = nope\n"),
               dsl_error);
  EXPECT_THROW((void)machine.run_source("print nope\n"), dsl_error);
}

TEST(Interp, RedistributePreservesDataAndChangesMapping) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 1
A(4:300:9) = 100
redistribute A onto P cyclic(3)
)");
  const auto& arr = machine.array("A");
  EXPECT_EQ(arr.dist().block_size(), 3);
  const RegularSection sec{4, 300, 9};
  const auto image = machine.global_image("A");
  for (i64 g = 0; g < 320; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], sec.contains(g) ? 100.0 : 1.0) << g;
  // And it still computes correctly afterwards.
  machine.run_source("x = sum(A(4:300:9))\n");
  EXPECT_EQ(machine.scalar("x"), 3300.0);
}

TEST(Interp, RedistributeBlockAndCyclic) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 7
redistribute A onto P block
)");
  EXPECT_EQ(machine.array("A").dist().block_size(), 80);  // ceil(320/4)
  machine.run_source("redistribute A onto P cyclic\n");
  EXPECT_EQ(machine.array("A").dist().block_size(), 1);
  for (const double v : machine.global_image("A")) EXPECT_EQ(v, 7.0);
}

TEST(Interp, RedistributeErrors) {
  Machine machine;
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) +
                                        "redistribute Z onto P cyclic(2)\n"),
               dsl_error);
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) +
                                        "redistribute A onto Q cyclic(2)\n"),
               dsl_error);
}

TEST(Interp, CshiftIntrinsic) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 0
A(0:0) = 1
B(0:319) = cshift(A, 1)
)");
  const auto image = machine.global_image("B");
  for (i64 g = 0; g < 320; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], g == 319 ? 1.0 : 0.0) << g;
}

TEST(Interp, EoshiftIntrinsic) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 2
B(0:319) = eoshift(A, 300, -7)
)");
  const auto image = machine.global_image("B");
  for (i64 g = 0; g < 320; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], g < 20 ? 2.0 : -7.0) << g;
}

TEST(Interp, ShiftCombinesWithArithmetic) {
  // A smoothing step written with shifts: B = (cshift(A,1) + cshift(A,-1)) / 2.
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 0
A(10:10) = 100
B(0:319) = (cshift(A, 1) + cshift(A, -1)) / 2
)");
  const auto image = machine.global_image("B");
  EXPECT_EQ(image[9], 50.0);
  EXPECT_EQ(image[11], 50.0);
  EXPECT_EQ(image[10], 0.0);
}

TEST(Interp, ShiftSizeMismatchRejected) {
  Machine machine;
  EXPECT_THROW(
      (void)machine.run_source(std::string(kPrologue) + "B(0:9) = cshift(A, 1)\n"),
      dsl_error);
  EXPECT_THROW(
      (void)machine.run_source(std::string(kPrologue) + "x = cshift(A, 1)\n"),
      dsl_error);
}

TEST(Interp, ForallIdentitySubscript) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + "forall (i = 0:319) A(i) = i\n");
  const auto image = machine.global_image("A");
  for (i64 g = 0; g < 320; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], static_cast<double>(g)) << g;
}

TEST(Interp, ForallAffineSubscripts) {
  // forall (i = 0:99) A(2*i+1) = B(3*i) + i  — coupled affine references.
  Machine machine;
  machine.run_source(R"(
processors P(4)
template T(400)
distribute T onto P cyclic(8)
array A(400) align with T(i)
array B(400) align with T(i)
forall (i = 0:399) B(i) = 2 * i
forall (i = 0:99) A(2*i+1) = B(3*i) + i
)");
  const auto image = machine.global_image("A");
  for (i64 i = 0; i < 100; ++i)
    EXPECT_EQ(image[static_cast<std::size_t>(2 * i + 1)],
              static_cast<double>(2 * (3 * i) + i))
        << i;
  EXPECT_EQ(image[0], 0.0);  // untouched even element
}

TEST(Interp, ForallReversedRange) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 0
forall (i = 319:0:-1) A(i) = 319 - i
)");
  const auto image = machine.global_image("A");
  for (i64 g = 0; g < 320; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], static_cast<double>(319 - g)) << g;
}

TEST(Interp, ForallStridedRange) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = -1
forall (i = 4:300:9) A(i) = i * i
)");
  const auto image = machine.global_image("A");
  const RegularSection sec{4, 300, 9};
  for (i64 g = 0; g < 320; ++g) {
    const double want = sec.contains(g) ? static_cast<double>(g * g) : -1.0;
    EXPECT_EQ(image[static_cast<std::size_t>(g)], want) << g;
  }
}

TEST(Interp, ForallErrors) {
  Machine machine;
  // Constant subscripts in the body are not supported.
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) +
                                        "forall (i = 0:9) A(i) = B(5)\n"),
               dsl_error);
  // Target must depend on the index.
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) +
                                        "forall (i = 0:9) A(3) = i\n"),
               dsl_error);
  // Out-of-bounds normalized section.
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) +
                                        "forall (i = 0:319) A(2*i) = i\n"),
               dsl_error);
}

TEST(Interp, WhereMaskedFill) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
forall (i = 0:319) A(i) = i
where (A(0:319) >= 200) A(0:319) = 0
)");
  const auto image = machine.global_image("A");
  for (i64 g = 0; g < 320; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], g >= 200 ? 0.0 : static_cast<double>(g))
        << g;
}

TEST(Interp, WhereWithSectionOperandsAndValue) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
forall (i = 0:319) A(i) = i
B(0:319) = 1000
where (A(0:319) != B(0:319) - 1000 + A(0:319)) A(0:319) = B(0:319) * 2
)");
  // Mask is A != A -> never true; A unchanged.
  const auto image = machine.global_image("A");
  for (i64 g = 0; g < 320; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], static_cast<double>(g)) << g;
}

TEST(Interp, WhereOnStridedTarget) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
forall (i = 0:319) A(i) = i
where (A(4:300:9) < 150) A(4:300:9) = A(4:300:9) + 1000
)");
  const auto image = machine.global_image("A");
  const RegularSection sec{4, 300, 9};
  for (i64 g = 0; g < 320; ++g) {
    double want = static_cast<double>(g);
    if (sec.contains(g) && g < 150) want += 1000.0;
    EXPECT_EQ(image[static_cast<std::size_t>(g)], want) << g;
  }
}

TEST(Interp, WhereRelopsAll) {
  const struct {
    const char* relop;
    i64 match_count;  // of values 0..9 compared against 5
  } cases[] = {{"<", 5}, {"<=", 6}, {">", 4}, {">=", 5}, {"==", 1}, {"!=", 9}};
  for (const auto& c : cases) {
    Machine machine;
    machine.run_source(std::string(kPrologue) + "forall (i = 0:9) A(i) = i\n" +
                       "where (A(0:9) " + c.relop + " 5) A(0:9) = -1\n" +
                       "hits = sum(A(0:9))\n");
    // Sum = (sum 0..9) - (sum of matched values) + (-1 * match_count).
    const auto image = machine.global_image("A");
    i64 matched = 0;
    for (i64 g = 0; g < 10; ++g)
      if (image[static_cast<std::size_t>(g)] == -1.0) ++matched;
    EXPECT_EQ(matched, c.match_count) << c.relop;
  }
}

TEST(Interp, RepeatBlockIterates) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 0
A(0:0) = 1
repeat 5
  A(1:319) = A(0:318)
end
)");
  const auto image = machine.global_image("A");
  for (i64 g = 0; g < 320; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], g <= 5 ? 1.0 : 0.0) << g;
}

TEST(Interp, RepeatZeroRunsNothing) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 3
repeat 0
  A(0:319) = 99
end
)");
  EXPECT_EQ(machine.global_image("A")[0], 3.0);
}

TEST(Interp, NestedRepeat) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
x = 0
repeat 3
  repeat 4
    x = x + 1
  end
  x = x + 100
end
)");
  EXPECT_EQ(machine.scalar("x"), 312.0);
}

TEST(Interp, RepeatErrors) {
  Machine machine;
  EXPECT_THROW((void)machine.run_source("repeat 3\nA(0:1) = 1\n"), dsl_error);  // no end
}

TEST(Interp, LoweringTraceRecordsRuntimeOps) {
  Machine machine;
  machine.set_tier(Tier::kInterp);  // the trace lines below are interp-tier lowering
  machine.enable_trace();
  machine.run_source(std::string(kPrologue) + R"(
A(0:319) = 1
B(1:318) = (A(0:317) + A(2:319)) / 2
A(0:317) = B(2:319)
redistribute B onto P cyclic(5)
)");
  const std::string& tr = machine.trace_log();
  EXPECT_NE(tr.find("assign A(0:319:1)"), std::string::npos) << tr;
  EXPECT_NE(tr.find("fill scalar"), std::string::npos) << tr;
  EXPECT_NE(tr.find("copy A(0:317:1) -> temp@(1:318:1)"), std::string::npos) << tr;
  EXPECT_NE(tr.find("combine local '+'"), std::string::npos) << tr;
  EXPECT_NE(tr.find("store local from temp"), std::string::npos) << tr;
  EXPECT_NE(tr.find("messages="), std::string::npos) << tr;
  // A bare copy is one copy_section: a single copy line with its plan, and
  // no temporary to store from.
  const std::size_t copy_at = tr.find("assign A(0:317:1)");
  ASSERT_NE(copy_at, std::string::npos) << tr;
  const std::string copy = tr.substr(copy_at, tr.find("redistribute", copy_at) - copy_at);
  const std::size_t copy_line = copy.find("  copy B(2:319:1) -> A(0:317:1)  [messages=");
  EXPECT_NE(copy_line, std::string::npos) << copy;
  EXPECT_EQ(copy.find("copy ", copy_line + 3), std::string::npos) << copy;
  EXPECT_EQ(copy.find("store local from temp"), std::string::npos) << copy;
  // The remap runs a plan too, and its own line reports that plan.
  const std::size_t at = tr.find("redistribute B -> cyclic(5)");
  ASSERT_NE(at, std::string::npos) << tr;
  const std::string line = tr.substr(at, tr.find('\n', at) - at);
  EXPECT_NE(line.find("[messages="), std::string::npos) << line;
  EXPECT_NE(line.find("remote="), std::string::npos) << line;
  EXPECT_NE(line.find("/320"), std::string::npos) << line;
  EXPECT_NE(line.find("phases="), std::string::npos) << line;
}

TEST(Interp, TraceOffByDefault) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + "A(0:319) = 1\n");
  EXPECT_TRUE(machine.trace_log().empty());
}

TEST(Interp, ScalarFoldingWorks) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + "A(0:319) = (2 + 3) * 4 - 6 / 3\n");
  EXPECT_EQ(machine.global_image("A")[0], 18.0);
}

TEST(Interp, UnknownArrayLookupThrows) {
  const Machine machine;
  EXPECT_THROW((void)machine.array("nope"), dsl_error);
}

// ---------------------------------------------------------------------------
// Execution tiers: the bytecode tier must agree with the interpreter bit for
// bit, fall back cleanly on shapes it declines, and be selectable through
// the --tier flag and the CYCLICK_TIER environment variable.

TEST(Tier, FlagParsing) {
  Tier t = Tier::kInterp;
  EXPECT_TRUE(parse_tier_flag("--tier=bytecode", t));
  EXPECT_EQ(t, Tier::kBytecode);
  EXPECT_TRUE(parse_tier_flag("--tier=interp", t));
  EXPECT_EQ(t, Tier::kInterp);
  // Unknown values are recognized as tier flags but leave the tier alone.
  t = Tier::kBytecode;
  EXPECT_TRUE(parse_tier_flag("--tier=warp", t));
  EXPECT_EQ(t, Tier::kBytecode);
  EXPECT_FALSE(parse_tier_flag("--backend=proc", t));
  EXPECT_FALSE(parse_tier_flag("--tierless", t));
}

TEST(Tier, EnvSelection) {
  // Restore any ambient CYCLICK_TIER (CI sets it for whole-suite tier legs).
  const char* prior = std::getenv("CYCLICK_TIER");
  const std::string saved = prior ? prior : "";
  ASSERT_EQ(setenv("CYCLICK_TIER", "interp", 1), 0);
  EXPECT_EQ(tier_from_env(Tier::kBytecode), Tier::kInterp);
  ASSERT_EQ(setenv("CYCLICK_TIER", "bytecode", 1), 0);
  EXPECT_EQ(tier_from_env(Tier::kInterp), Tier::kBytecode);
  ASSERT_EQ(setenv("CYCLICK_TIER", "nonsense", 1), 0);
  EXPECT_EQ(tier_from_env(Tier::kBytecode), Tier::kBytecode);
  ASSERT_EQ(unsetenv("CYCLICK_TIER"), 0);
  EXPECT_EQ(tier_from_env(Tier::kBytecode), Tier::kBytecode);
  EXPECT_STREQ(tier_name(Tier::kInterp), "interp");
  EXPECT_STREQ(tier_name(Tier::kBytecode), "bytecode");
  if (prior) {
    ASSERT_EQ(setenv("CYCLICK_TIER", saved.c_str(), 1), 0);
  }
}

TEST(Tier, ExplainListsCompiledBytecode) {
  Machine machine;
  machine.run_source(std::string(kPrologue) +
                     "explain B(0:318:2) = A(0:318:2) * 2 + 1\n");
  const std::string& out = machine.output();
  // a*s + c is two lane passes, mul.vs then add.vs.
  const std::size_t mul = out.find("mul.vs");
  ASSERT_NE(mul, std::string::npos) << out;
  EXPECT_NE(out.find("add.vs", mul), std::string::npos) << out;
  EXPECT_NE(out.find("lanes:"), std::string::npos) << out;
  // One share line per rank: B(0:318:2) under cyclic(8) on four ranks is a
  // periodic kernel over one row of 40 elements.
  EXPECT_NE(out.find("shares:\n"), std::string::npos) << out;
  EXPECT_NE(out.find("rank 0: periodic, 1 rows, 40 lanes"), std::string::npos) << out;
  EXPECT_NE(out.find("fusion:"), std::string::npos) << out;
}

TEST(Tier, ExplainListsShiftedOperands) {
  // The stencil's neighbours are the target section shifted by -1 and +1
  // under the target's cyclic(8) mapping: both read their own local spans
  // in place and move only the block-boundary halo, one element per block.
  Machine machine;
  machine.run_source(std::string(kPrologue) +
                     "explain B(1:318) = (A(0:317) + A(2:319)) / 2\n"
                     "explain A(1:318) = (A(0:317) + A(2:319)) / 2\n");
  const std::string& out = machine.output();
  const std::string halo_program = out.substr(0, out.find("bytecode program for A"));
  EXPECT_NE(halo_program.find("lane.shift   l0 = A(0:317:1)  [delta=-1, halo h0 per rank: "
                              "9 10 10 10, messages=4, remote=39]"),
            std::string::npos)
      << out;
  EXPECT_NE(halo_program.find("lane.shift   l1 = A(2:319:1)  [delta=1, halo h1 per rank: "
                              "10 10 10 9, messages=4, remote=39]"),
            std::string::npos)
      << out;
  EXPECT_EQ(halo_program.find("loads:"), std::string::npos) << out;
  // A statement that reads its own target keeps the scratch copies and
  // says why.
  EXPECT_NE(out.find("shifted operand A(0:317:1) (delta -1) stays a scratch copy: reads the "
                     "target array"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("load       t0 = A(0:317:1)"), std::string::npos) << out;

  // N-D: under cyclic(2) on two ranks per axis, a shift along the outer
  // dimension moves whole boundary rows (rank 0 owns rows {1, 4, 5}, of
  // which 1 and 5 end a block: two rows of three), one along the innermost
  // dimension one element per row and block. The listing names the
  // shifted dimension.
  Machine grid;
  grid.run_source(R"(
processors G(2, 2)
template T(8, 8)
distribute T onto G cyclic(2) cyclic(2)
array M(8, 8) align with T(i, j)
array N(8, 8) align with T(i, j)
explain M(1:6, 1:6) = (N(2:7, 1:6) + N(1:6, 0:5)) / 3
explain M(1:6, 1:6) = (M(1:6, 0:5) + N(1:6, 2:7)) / 3
)");
  const std::string& nd = grid.output();
  const std::string shifted = nd.substr(0, nd.find("bytecode program for", 1));
  EXPECT_NE(shifted.find("lane.shift   l0 = N(2:7:1, 1:6:1)  [dim=0, delta=1, halo h0 per rank: "
                         "6 6 3 3, messages=4, remote=18]"),
            std::string::npos)
      << nd;
  EXPECT_NE(shifted.find("lane.shift   l1 = N(1:6:1, 0:5:1)  [dim=1, delta=-1, halo h1 per rank: "
                         "3 6 3 6, messages=4, remote=18]"),
            std::string::npos)
      << nd;
  EXPECT_EQ(shifted.find("loads:"), std::string::npos) << nd;
  // Reading the target array demotes the whole statement's shifts, each
  // with its reason.
  EXPECT_NE(nd.find("shifted operand M(1:6:1, 0:5:1) (delta 0, -1) stays a scratch copy: "
                    "reads the target array"),
            std::string::npos)
      << nd;
  EXPECT_NE(nd.find("load.region t0 = M(1:6:1, 0:5:1)"), std::string::npos) << nd;
}

TEST(Tier, ExplainReportsInterpreterFallback) {
  // Targets with a non-identity alignment are not compiled; the explain
  // form says so instead of printing a listing. Fills and bare copies
  // compile on no target: both tiers run them as one runtime call.
  Machine machine;
  machine.run_source(R"(
processors G(2, 2)
template T(8, 16)
distribute T onto G cyclic(2) cyclic(2)
array M(8, 8) align with T(i, 2*j)
explain M(0:7, 0:7) = M(0:7, 0:7) + 5
explain M(0:7, 0:7) = 5
explain M(1:7, 0:7) = M(0:6, 0:7)
)");
  const std::string& out = machine.output();
  EXPECT_NE(out.find("explain M: statement falls back to the interpreter tier\n"
                     "explain M: statement runs as a runtime fill/copy (no bytecode program)\n"
                     "explain M: statement runs as a runtime fill/copy (no bytecode program)\n"),
            std::string::npos)
      << out;
}

TEST(Tier, ExplainListsRegionProgram) {
  // An identity-aligned N-D target with a dense innermost share compiles:
  // the listing shows each rank's run count and the region loads.
  Machine machine;
  machine.run_source(R"(
processors G(2, 2)
template T(8, 8)
distribute T onto G cyclic(2) cyclic(2)
array M(8, 8) align with T(i, j)
array N(8, 8) align with T(i, j)
explain M(1:6, 1:6) = (N(0:5, 0:5) + N(2:7, 2:7)) / 3
)");
  const std::string& out = machine.output();
  EXPECT_NE(out.find("bytecode program for M(1:6:1, 1:6:1) on 4 ranks (36 lanes"),
            std::string::npos)
      << out;
  // Under cyclic(2) on two ranks per axis, rank 0 owns rows {1, 4, 5} and
  // columns {1, 4, 5} (local columns 1..3): three local rows of one run.
  EXPECT_NE(out.find("shares:\n"), std::string::npos) << out;
  EXPECT_NE(out.find("rank 0: runs, 3 rows, 9 lanes"), std::string::npos) << out;
  // Diagonal shifts stay region loads, and say why.
  EXPECT_NE(out.find("load.region t0 = N(0:5:1, 0:5:1)"), std::string::npos) << out;
  EXPECT_NE(out.find("load.region t1 = N(2:7:1, 2:7:1)"), std::string::npos) << out;
  EXPECT_NE(out.find("shifted operand N(2:7:1, 2:7:1) (delta 1, 1) stays a scratch copy: "
                     "shifted in more than one dimension"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("adddiv.vvs"), std::string::npos) << out;
}

TEST(Tier, DivisionByZeroParityAcrossTiers) {
  const std::string program = std::string(kPrologue) + R"(
A(0:319) = 7
B(0:319) = 3
B(10:19) = B(10:19) / A(10:19)
A(12:12) = 0
B(10:19) = B(10:19) / A(10:19)
)";
  auto run_tier = [&](Tier tier, std::string& what) {
    Machine machine;
    machine.set_tier(tier);
    try {
      machine.run_source(program);
      ADD_FAILURE() << "expected division by zero under " << tier_name(tier);
    } catch (const dsl_error& e) {
      what = e.what();
    }
    return machine.global_image("B");
  };
  std::string interp_what, bytecode_what;
  const auto interp_b = run_tier(Tier::kInterp, interp_what);
  const auto bytecode_b = run_tier(Tier::kBytecode, bytecode_what);
  EXPECT_EQ(interp_what, bytecode_what);
  EXPECT_NE(interp_what.find("division by zero"), std::string::npos) << interp_what;
  // The failed statement must not have mutated the destination in either
  // tier (all-or-nothing store discipline), so the images still agree.
  EXPECT_EQ(interp_b, bytecode_b);
  EXPECT_EQ(bytecode_b[10], 3.0 / 7.0);  // first divide landed, second aborted
}

TEST(Tier, GuardedMaskedStoreWithManyScalarRegisters) {
  // The mask divides by an array (a guarded, two-phase program) and the
  // stored value is a scalar register numbered past the lane-register
  // file: the lane phase must never index lane registers with it.
  std::string ones = "1";
  for (int i = 0; i < 17; ++i) ones += " + 1";
  const std::string program = std::string(kPrologue) +
                              "A(0:319) = 2\nB(0:319) = 3\n"
                              "where (B(0:99) / A(0:99) > " + ones + " - 17) B(0:99) = 5\n";
  Machine interp;
  interp.set_tier(Tier::kInterp);
  interp.run_source(program);
  Machine bytecode;
  bytecode.set_tier(Tier::kBytecode);
  bytecode.run_source(program);
  EXPECT_EQ(bytecode.global_image("B"), interp.global_image("B"));
  EXPECT_EQ(bytecode.global_image("B")[0], 5.0);
  EXPECT_EQ(bytecode.global_image("B")[100], 3.0);
}

TEST(Tier, FallbackMatchesInterpOnAlignedTargets) {
  // Non-identity alignment makes the bytecode compiler decline the
  // statement; execution falls back to the interpreter and must produce
  // the same values a forced-interp machine does.
  const std::string program = R"(
processors P(3)
template T(400)
distribute T onto P cyclic(5)
array A(100) align with T(3*i+2)
array B(100) align with T(3*i+2)
A(0:99) = 4
B(0:99) = A(0:99) * A(0:99)
B(0:98:2) = B(0:98:2) - A(0:98:2)
)";
  Machine interp;
  interp.set_tier(Tier::kInterp);
  interp.run_source(program);
  Machine bytecode;
  bytecode.set_tier(Tier::kBytecode);
  bytecode.run_source(program);
  EXPECT_EQ(interp.global_image("A"), bytecode.global_image("A"));
  EXPECT_EQ(interp.global_image("B"), bytecode.global_image("B"));
  EXPECT_EQ(bytecode.global_image("B")[0], 12.0);
}

TEST(Tier, ReductionOverExpressionBothTiers) {
  const std::string program = std::string(kPrologue) + R"(
A(0:319) = 2
B(0:319) = 3
dot = sum(A(0:63) * B(0:63))
lo = min(A(0:63) - B(0:63))
hi = max(A(0:63) * B(0:63) + 1)
)";
  for (const Tier tier : {Tier::kInterp, Tier::kBytecode}) {
    Machine machine;
    machine.set_tier(tier);
    machine.run_source(program);
    EXPECT_EQ(machine.scalar("dot"), 384.0) << tier_name(tier);
    EXPECT_EQ(machine.scalar("lo"), -1.0) << tier_name(tier);
    EXPECT_EQ(machine.scalar("hi"), 7.0) << tier_name(tier);
  }
}

TEST(Tier, ReductionOverExpressionErrors) {
  Machine machine;
  // No section operand to anchor the element ordering.
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) + "x = sum(1 + 2)\n"),
               dsl_error);
}

TEST(Tier, RepeatReusesCachedProgram) {
  // The same statement shape inside a repeat must keep producing interp
  // results while being served from the program cache.
  const std::string program = std::string(kPrologue) + R"(
A(0:319) = 1
B(0:319) = 0
repeat 8
B(1:318) = (A(0:317) + A(2:319)) / 2
A(1:318) = B(1:318)
end
)";
  Machine interp;
  interp.set_tier(Tier::kInterp);
  interp.run_source(program);
  Machine bytecode;
  bytecode.set_tier(Tier::kBytecode);
  bytecode.run_source(program);
  EXPECT_EQ(interp.global_image("A"), bytecode.global_image("A"));
  EXPECT_EQ(interp.global_image("B"), bytecode.global_image("B"));
}

TEST(Tier, ThreadedBytecodeMatchesSequential) {
  // The bytecode dispatch loop runs per rank inside exec.run; under the
  // threaded executor those are real concurrent threads (this is the
  // tier-differential case the TSan CI leg watches).
  const std::string program = std::string(kPrologue) + R"(
A(0:319) = 1
B(0:319) = 0
repeat 6
B(1:318) = (A(0:317) + A(2:319)) / 2
A(1:318) = B(1:318) * 2 - A(1:318)
end
total = sum(A(0:319) * B(0:319))
)";
  Machine seq(SpmdExecutor::Mode::kSequential);
  seq.set_tier(Tier::kBytecode);
  seq.run_source(program);
  Machine thr(SpmdExecutor::Mode::kThreads);
  thr.set_tier(Tier::kBytecode);
  thr.run_source(program);
  EXPECT_EQ(seq.global_image("A"), thr.global_image("A"));
  EXPECT_EQ(seq.global_image("B"), thr.global_image("B"));
  EXPECT_EQ(seq.scalar("total"), thr.scalar("total"));
}

TEST(Tier, RedistributeInvalidatesStatementShape) {
  // Redistribution changes the mapping signature in the cache key, so the
  // cached program for the old mapping must not be reused.
  const std::string program = std::string(kPrologue) + R"(
A(0:319) = 1
B(0:319) = A(0:319) * 3 + 1
redistribute A onto P cyclic(3)
B(0:319) = A(0:319) * 3 + 1
)";
  Machine bytecode;
  bytecode.set_tier(Tier::kBytecode);
  bytecode.run_source(program);
  const auto image = bytecode.global_image("B");
  for (i64 g = 0; g < 320; ++g) EXPECT_EQ(image[static_cast<std::size_t>(g)], 4.0) << g;
}

}  // namespace
}  // namespace cyclick::dsl
