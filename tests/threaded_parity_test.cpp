// Threaded-vs-sequential parity for every SPMD engine: the one-thread-per-
// rank executor must produce bit-identical results to the sequential
// schedule across the whole operation surface (races would show up as
// nondeterminism; ThreadSanitizer builds catch the rest).
#include <gtest/gtest.h>

#include <numeric>

#include "cyclick/runtime/intrinsics.hpp"
#include "cyclick/runtime/multidim_array.hpp"
#include "cyclick/runtime/section_ops.hpp"
#include "support/symmetric_copy.hpp"

namespace cyclick {
namespace {

std::vector<double> iota_image(i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0.0);
  return v;
}

TEST(ThreadedParity, SectionEngines) {
  for (int round = 0; round < 5; ++round) {  // repeat to shake out races
    const BlockCyclic dist(6, 5);
    std::vector<std::vector<double>> results;
    for (const auto mode : {SpmdExecutor::Mode::kSequential, SpmdExecutor::Mode::kThreads}) {
      const SpmdExecutor exec(6, mode);
      DistributedArray<double> a(dist, 300), b(dist, 300);
      a.scatter(iota_image(300));
      fill_section(b, {0, 299, 1}, 1.0, exec);
      copy_section(a, {0, 298, 2}, b, {1, 299, 2}, exec);
      transform_section(b, {0, 299, 3}, [](double x) { return 2.0 * x - 1.0; }, exec);
      zip_sections(b, {10, 109, 1}, a, {0, 198, 2}, b, {200, 299, 1},
                   [](double x, double y) { return x + y; }, exec);
      cshift(a, b, 17, exec);
      DistributedArray<double> c(BlockCyclic(6, 3), 300);
      sum_prefix_section(a, {0, 299, 1}, c, {0, 299, 1}, exec);
      std::vector<double> merged = b.gather();
      const auto ci = c.gather();
      merged.insert(merged.end(), ci.begin(), ci.end());
      merged.push_back(
          reduce_section(a, {3, 297, 7}, 0.0, [](double x, double y) { return x + y; }, exec));
      results.push_back(std::move(merged));
    }
    ASSERT_EQ(results[0], results[1]) << "round " << round;
  }
}

TEST(ThreadedParity, RegionEngines) {
  const auto make = [] {
    std::vector<DimMapping> dims;
    dims.emplace_back(18, AffineAlignment::identity(), BlockCyclic(3, 2));
    dims.emplace_back(20, AffineAlignment::identity(), BlockCyclic(2, 3));
    return MultiDimArray<double>(MultiDimMapping{std::move(dims), ProcessorGrid({3, 2})});
  };
  std::vector<std::vector<double>> results;
  for (const auto mode : {SpmdExecutor::Mode::kSequential, SpmdExecutor::Mode::kThreads}) {
    const SpmdExecutor exec(6, mode);
    MultiDimArray<double> a = make();
    MultiDimArray<double> b = make();
    a.scatter(iota_image(18 * 20));
    fill_region(b, Region{{0, 17, 1}, {0, 19, 1}}, 3.0, exec);
    copy_region(a, Region{{1, 17, 2}, {0, 18, 2}}, b, Region{{0, 16, 2}, {1, 19, 2}}, exec);
    transform_region(b, Region{{0, 17, 3}, {0, 19, 1}}, [](double x) { return -x; }, exec);
    auto merged = b.gather();
    merged.push_back(reduce_region(a, Region{{2, 15, 1}, {3, 18, 5}}, 0.0,
                                   [](double x, double y) { return x + y; }, exec));
    results.push_back(std::move(merged));
  }
  ASSERT_EQ(results[0], results[1]);
}

TEST(ThreadedParity, SymmetricAndTransportCopies) {
  const BlockCyclic src_dist(5, 4), dst_dist(5, 7);
  std::vector<std::vector<double>> results;
  for (const auto mode : {SpmdExecutor::Mode::kSequential, SpmdExecutor::Mode::kThreads}) {
    const SpmdExecutor exec(5, mode);
    DistributedArray<double> src(src_dist, 240), d1(dst_dist, 240), d2(dst_dist, 240);
    src.scatter(iota_image(240));
    const RegularSection ssec{0, 238, 2};
    const RegularSection dsec{1, 239, 2};
    symmetric_copy_section(src, ssec, d1, dsec, exec);
    InProcessTransport tr(5);
    const CommPlan plan = build_copy_plan(src, ssec, d2, dsec, exec);
    execute_copy_plan_over(plan, src, d2, exec, tr);
    auto merged = d1.gather();
    const auto d2i = d2.gather();
    merged.insert(merged.end(), d2i.begin(), d2i.end());
    results.push_back(std::move(merged));
  }
  ASSERT_EQ(results[0], results[1]);
}

}  // namespace
}  // namespace cyclick
