// End-to-end tests for multidimensional arrays in the mini-HPF DSL.
#include <gtest/gtest.h>

#include <string>

#include "cyclick/compiler/interp.hpp"
#include "cyclick/core/aligned.hpp"

namespace cyclick::dsl {
namespace {

constexpr const char* kPrologue = R"(
processors G(2, 3)
template T(24, 30)
distribute T onto G cyclic(4) cyclic(5)
array M(24, 30) align with T(i, j)
array N(24, 30) align with T(i, j)
)";

TEST(Interp2D, FillAndGather) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + "M(0:23, 0:29) = 7\n");
  const auto image = machine.global_image("M");
  ASSERT_EQ(image.size(), 24u * 30u);
  for (const double v : image) EXPECT_EQ(v, 7.0);
}

TEST(Interp2D, StridedSubBoxFill) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
M(0:23, 0:29) = 1
M(2:22:4, 3:27:6) = 9
)");
  const auto image = machine.global_image("M");
  for (i64 i = 0; i < 24; ++i)
    for (i64 j = 0; j < 30; ++j) {
      const bool in_box = i >= 2 && (i - 2) % 4 == 0 && i <= 22 &&
                          j >= 3 && (j - 3) % 6 == 0 && j <= 27;
      EXPECT_EQ(image[static_cast<std::size_t>(i * 30 + j)], in_box ? 9.0 : 1.0)
          << i << "," << j;
    }
}

TEST(Interp2D, RegionCopyAndArithmetic) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
M(0:23, 0:29) = 2
N(0:23, 0:29) = 0
N(0:21, 0:27) = M(2:23, 2:29) * 3 + 1
)");
  const auto image = machine.global_image("N");
  for (i64 i = 0; i < 24; ++i)
    for (i64 j = 0; j < 30; ++j) {
      const double want = (i <= 21 && j <= 27) ? 7.0 : 0.0;
      EXPECT_EQ(image[static_cast<std::size_t>(i * 30 + j)], want) << i << "," << j;
    }
}

TEST(Interp2D, DiagonalShiftStencil) {
  // N(interior) = (M(north) + M(south) + M(west) + M(east)) / 4.
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
M(0:23, 0:29) = 0
M(0:23, 0:0) = 100
N(1:22, 1:28) = (M(0:21, 1:28) + M(2:23, 1:28) + M(1:22, 0:27) + M(1:22, 2:29)) / 4
)");
  const auto image = machine.global_image("N");
  for (i64 i = 1; i <= 22; ++i) {
    EXPECT_EQ(image[static_cast<std::size_t>(i * 30 + 1)], 25.0) << i;  // west neighbour hot
    EXPECT_EQ(image[static_cast<std::size_t>(i * 30 + 2)], 0.0) << i;
  }
}

TEST(Interp2D, ReductionsOverRegions) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
M(0:23, 0:29) = 1
M(0:0, 0:29) = 5
total = sum(M(0:23, 0:29))
top = sum(M(0:0, 0:29))
peak = max(M(0:23, 0:29))
low = min(M(5:10, 5:10))
)");
  EXPECT_EQ(machine.scalar("total"), 23 * 30 + 5 * 30);
  EXPECT_EQ(machine.scalar("top"), 150.0);
  EXPECT_EQ(machine.scalar("peak"), 5.0);
  EXPECT_EQ(machine.scalar("low"), 1.0);
}

TEST(Interp2D, PrintFormatsRows) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
M(0:23, 0:29) = 3
print M(0:1, 0:2)
)");
  EXPECT_EQ(machine.output(), "M(0:1:1, 0:2:1) =\n  3 3 3\n  3 3 3\n");
}

TEST(Interp2D, AlignedDimensionInDsl) {
  Machine machine;
  machine.run_source(R"(
processors G(2, 2)
template T(20, 50)
distribute T onto G cyclic(3) cyclic(7)
array A(20, 24) align with T(i, 2*j+1)
A(0:19, 0:23) = 4
A(1:19:2, 0:22:2) = 8
s = sum(A(0:19, 0:23))
)");
  const auto image = machine.global_image("A");
  double want = 0.0;
  for (i64 i = 0; i < 20; ++i)
    for (i64 j = 0; j < 24; ++j) {
      const bool marked = i % 2 == 1 && j % 2 == 0;
      const double v = marked ? 8.0 : 4.0;
      EXPECT_EQ(image[static_cast<std::size_t>(i * 24 + j)], v) << i << "," << j;
      want += v;
    }
  EXPECT_EQ(machine.scalar("s"), want);
}

TEST(Interp2D, MixedDimensionalityRejected) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + R"(
processors P(6)
template U(100)
distribute U onto P cyclic(4)
array V(100) align with U(i)
)");
  EXPECT_THROW((void)machine.run_source("M(0:23, 0:29) = V(0:99)\n"), dsl_error);
  EXPECT_THROW((void)machine.run_source("M(0:23) = 1\n"), dsl_error);
  EXPECT_THROW((void)machine.run_source("V(0:9, 0:9) = 1\n"), dsl_error);
  EXPECT_THROW((void)machine.run_source("redistribute M onto G cyclic(2)\n"), dsl_error);
  EXPECT_THROW((void)machine.run_source("N(0:23, 0:29) = cshift(M, 1)\n"), dsl_error);
}

TEST(Interp2D, ExplainDumpsPerDimensionPatterns) {
  Machine machine;
  machine.run_source(std::string(kPrologue) + "explain M(2:22:4, 3:27:6)\n");
  const std::string& out = machine.output();
  EXPECT_NE(out.find("2-D; per-dimension patterns"), std::string::npos) << out;
  EXPECT_NE(out.find("dim 0 (2:22:4) over cyclic(4) x 2"), std::string::npos) << out;
  EXPECT_NE(out.find("dim 1 (3:27:6) over cyclic(5) x 3"), std::string::npos) << out;
  // Every grid coordinate appears.
  EXPECT_NE(out.find("coord 0:"), std::string::npos) << out;
  EXPECT_NE(out.find("coord 2:"), std::string::npos) << out;
}

TEST(Interp2D, ExplainReportsPackedStartsOfAlignedDimensions) {
  // A non-identity-aligned dimension is stored packed, so explain reports
  // its starts in packed storage through the two-application solver.
  Machine machine;
  machine.run_source(R"(
processors G(2, 3)
template T(24, 30)
distribute T onto G cyclic(4) cyclic(5)
array W(10, 30) align with T(2*i+1, j)
explain W(1:9:2, 0:29:3)
)");
  const std::string& out = machine.output();
  for (i64 c = 0; c < 2; ++c) {
    const AlignedAccessPattern pat = compute_aligned_pattern(
        BlockCyclic(2, 4), AffineAlignment{2, 1}, 10, RegularSection{1, 9, 2}, c);
    ASSERT_FALSE(pat.empty());
    std::string want = "coord " + std::to_string(c) + ": start index " +
                       std::to_string(pat.start_array_index) + " local " +
                       std::to_string(pat.start_packed_local) + ", period " +
                       std::to_string(pat.length) + ", AM = [";
    for (std::size_t i = 0; i < pat.gaps.size(); ++i)
      want += (i ? ", " : "") + std::to_string(pat.gaps[i]);
    EXPECT_NE(out.find(want + "]"), std::string::npos) << want << "\n" << out;
  }
  // The identity dimension keeps its template-cell report.
  EXPECT_NE(out.find("dim 1 (0:29:3) over cyclic(5) x 3"), std::string::npos) << out;
  EXPECT_NE(out.find(": start cell "), std::string::npos) << out;
}

TEST(Interp2D, TraceLinesMatchTheOneDimensionalForm) {
  // N-D statements lower through the same evaluator as 1-D ones and print
  // the same -v trace lines.
  Machine machine;
  machine.set_tier(Tier::kInterp);
  machine.enable_trace();
  machine.run_source(std::string(kPrologue) + R"(
M(0:23, 0:29) = 2
N(1:22, 1:28) = M(0:21, 1:28) + M(2:23, 1:28)
N(0:3, 0:3) = M(4:7, 0:3)
)");
  const std::string& trace = machine.trace_log();
  for (const char* line : {
           "assign M(0:23:1, 0:29:1)\n  fill scalar\n",
           "assign N(1:22:1, 1:28:1)\n  copy M(0:21:1, 1:28:1) -> temp@(1:22:1, 1:28:1)  "
           "[messages=",
           "  combine local '+' over (1:22:1, 1:28:1)\n  store local from temp\n",
           "assign N(0:3:1, 0:3:1)\n  copy M(4:7:1, 0:3:1) -> N(0:3:1, 0:3:1)  [messages=",
       })
    EXPECT_NE(trace.find(line), std::string::npos) << line << "\n" << trace;
  const auto image = machine.global_image("N");
  EXPECT_EQ(image[static_cast<std::size_t>(5 * 30 + 5)], 4.0);
}

TEST(Interp2D, ShapeMismatchRejected) {
  Machine machine;
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) +
                                        "N(0:5, 0:5) = M(0:5, 0:6)\n"),
               dsl_error);
  EXPECT_THROW((void)machine.run_source(std::string(kPrologue) + "M(0:40, 0:29) = 1\n"),
               dsl_error);
}

TEST(Interp2D, DistributeClauseArityChecked) {
  Machine machine;
  EXPECT_THROW((void)machine.run_source(R"(
processors G(2, 3)
template T(24, 30)
distribute T onto G cyclic(4)
)"),
               dsl_error);
  EXPECT_THROW((void)machine.run_source(R"(
processors P(6)
template T(24, 30)
distribute T onto P cyclic(4) cyclic(5)
)"),
               dsl_error);
}

TEST(Interp2D, BlockAndCyclicMix) {
  Machine machine;
  machine.run_source(R"(
processors G(3, 2)
template T(27, 16)
distribute T onto G block cyclic
array A(27, 16) align with T(i, j)
A(0:26, 0:15) = 1
A(0:26:3, 0:15:5) = 6
s = sum(A(0:26, 0:15))
)");
  const double marked = 9 * 4;  // i in {0,3,..,24} (9), j in {0,5,10,15} (4)
  EXPECT_EQ(machine.scalar("s"), (27 * 16 - marked) + 6 * marked);
}

TEST(Interp2D, ThreadedMatchesSequential) {
  const std::string program = std::string(kPrologue) + R"(
M(0:23, 0:29) = 1
N(1:22, 1:28) = (M(0:21, 1:28) + M(2:23, 1:28)) / 2 + M(1:22, 1:28)
M(0:11, 0:14) = N(12:23, 15:29) * 2
)";
  Machine seq(SpmdExecutor::Mode::kSequential);
  seq.run_source(program);
  Machine thr(SpmdExecutor::Mode::kThreads);
  thr.run_source(program);
  EXPECT_EQ(seq.global_image("M"), thr.global_image("M"));
  EXPECT_EQ(seq.global_image("N"), thr.global_image("N"));
}

}  // namespace
}  // namespace cyclick::dsl
