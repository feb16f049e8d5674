// Tests for the SPMD section-operation engine: fills, transforms,
// reductions, copies with communication plans — all verified against
// sequential reference semantics on the gathered global image.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "cyclick/runtime/section_ops.hpp"
#include "support/symmetric_copy.hpp"

namespace cyclick {
namespace {

std::vector<double> iota_image(i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0.0);
  return v;
}

TEST(SectionOps, FillMatchesReference) {
  for (const auto mode : {SpmdExecutor::Mode::kSequential, SpmdExecutor::Mode::kThreads}) {
    const BlockCyclic dist(4, 8);
    const SpmdExecutor exec(4, mode);
    DistributedArray<double> arr(dist, 320);
    arr.scatter(iota_image(320));
    const RegularSection sec{4, 300, 9};
    fill_section(arr, sec, 100.0, exec);

    std::vector<double> want = iota_image(320);
    for (i64 t = 0; t < sec.size(); ++t) want[static_cast<std::size_t>(sec.element(t))] = 100.0;
    EXPECT_EQ(arr.gather(), want);
  }
}

TEST(SectionOps, FillDescendingSection) {
  const BlockCyclic dist(3, 4);
  const SpmdExecutor exec(3);
  DistributedArray<double> arr(dist, 100);
  const RegularSection sec{90, 6, -7};
  fill_section(arr, sec, 5.0, exec);
  const auto image = arr.gather();
  for (i64 g = 0; g < 100; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], sec.contains(g) ? 5.0 : 0.0) << g;
}

TEST(SectionOps, FillAlignedArray) {
  const BlockCyclic dist(2, 4);
  const SpmdExecutor exec(2);
  DistributedArray<double> arr(dist, 40, AffineAlignment{2, 3});
  const RegularSection sec{1, 37, 3};
  fill_section(arr, sec, 7.0, exec);
  const auto image = arr.gather();
  for (i64 g = 0; g < 40; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], sec.contains(g) ? 7.0 : 0.0) << g;
}

TEST(SectionOps, TransformMatchesReference) {
  const BlockCyclic dist(4, 2);
  const SpmdExecutor exec(4);
  DistributedArray<double> arr(dist, 64);
  arr.scatter(iota_image(64));
  const RegularSection sec{0, 63, 5};
  transform_section(arr, sec, [](double x) { return 2.0 * x + 1.0; }, exec);
  const auto image = arr.gather();
  for (i64 g = 0; g < 64; ++g) {
    const double want = sec.contains(g) ? 2.0 * static_cast<double>(g) + 1.0
                                        : static_cast<double>(g);
    EXPECT_EQ(image[static_cast<std::size_t>(g)], want) << g;
  }
}

TEST(SectionOps, ReduceSumsSection) {
  const BlockCyclic dist(4, 8);
  const SpmdExecutor exec(4);
  DistributedArray<double> arr(dist, 320);
  arr.scatter(iota_image(320));
  const RegularSection sec{4, 300, 9};
  const double got =
      reduce_section(arr, sec, 0.0, [](double a, double b) { return a + b; }, exec);
  double want = 0.0;
  for (i64 t = 0; t < sec.size(); ++t) want += static_cast<double>(sec.element(t));
  EXPECT_EQ(got, want);
}

TEST(SectionOps, ReduceEmptyOwnershipIsInit) {
  // s = pk from l = 0: only rank 0 owns anything; reduce still works.
  const BlockCyclic dist(4, 8);
  const SpmdExecutor exec(4);
  DistributedArray<double> arr(dist, 320);
  arr.scatter(iota_image(320));
  const RegularSection sec{0, 319, 32};
  const double got =
      reduce_section(arr, sec, 0.0, [](double a, double b) { return a + b; }, exec);
  double want = 0.0;
  for (i64 t = 0; t < sec.size(); ++t) want += static_cast<double>(sec.element(t));
  EXPECT_EQ(got, want);
}

TEST(SectionOps, CopySameDistribution) {
  const BlockCyclic dist(4, 8);
  const SpmdExecutor exec(4);
  DistributedArray<double> a(dist, 320), b(dist, 320);
  a.scatter(iota_image(320));
  // b(1:64:1) = a(5:320:5)
  const RegularSection ssec{5, 319, 5};
  const RegularSection dsec{1, ssec.size(), 1};
  copy_section(a, ssec, b, dsec, exec);
  const auto image = b.gather();
  for (i64 t = 0; t < dsec.size(); ++t)
    EXPECT_EQ(image[static_cast<std::size_t>(dsec.element(t))],
              static_cast<double>(ssec.element(t)))
        << t;
}

TEST(SectionOps, CopyAcrossDifferentBlockSizes) {
  // Source cyclic(3), destination cyclic(8): genuinely redistributes.
  const SpmdExecutor exec(4);
  DistributedArray<double> a(BlockCyclic(4, 3), 200), b(BlockCyclic(4, 8), 320);
  a.scatter(iota_image(200));
  const RegularSection ssec{0, 199, 2};   // 100 elements
  const RegularSection dsec{10, 307, 3};  // 100 elements
  copy_section(a, ssec, b, dsec, exec);
  const auto image = b.gather();
  for (i64 t = 0; t < dsec.size(); ++t)
    EXPECT_EQ(image[static_cast<std::size_t>(dsec.element(t))],
              static_cast<double>(ssec.element(t)))
        << t;
}

TEST(SectionOps, CopyReversesWithOpposedStrides) {
  const SpmdExecutor exec(2);
  DistributedArray<double> a(BlockCyclic(2, 4), 50), b(BlockCyclic(2, 4), 50);
  a.scatter(iota_image(50));
  const RegularSection ssec{49, 0, -1};  // descending source
  const RegularSection dsec{0, 49, 1};
  copy_section(a, ssec, b, dsec, exec);
  const auto image = b.gather();
  for (i64 g = 0; g < 50; ++g)
    EXPECT_EQ(image[static_cast<std::size_t>(g)], static_cast<double>(49 - g)) << g;
}

TEST(SectionOps, CommPlanAccountsEveryElement) {
  const SpmdExecutor exec(4);
  DistributedArray<double> a(BlockCyclic(4, 3), 200), b(BlockCyclic(4, 8), 320);
  const RegularSection ssec{0, 199, 2};
  const RegularSection dsec{10, 307, 3};
  const CommPlan plan = build_copy_plan(a, ssec, b, dsec, exec);
  i64 total = 0;
  for (i64 m = 0; m < 4; ++m)
    for (i64 q = 0; q < 4; ++q) total += plan.channel_size(m, q);
  EXPECT_EQ(total, ssec.size());
  EXPECT_EQ(plan.total_elements(), ssec.size());
  EXPECT_EQ(plan.remote_elements() <= total, true);
  EXPECT_GE(plan.message_count(), 1);  // redistribution must communicate
}

TEST(SectionOps, IdenticalSectionsNeedNoCommunication) {
  const SpmdExecutor exec(4);
  DistributedArray<double> a(BlockCyclic(4, 8), 320), b(BlockCyclic(4, 8), 320);
  const RegularSection sec{4, 300, 9};
  const CommPlan plan = build_copy_plan(a, sec, b, sec, exec);
  EXPECT_EQ(plan.message_count(), 0);
  EXPECT_EQ(plan.remote_elements(), 0);
}

TEST(SectionOps, PlanReuseAcrossExecutions) {
  const SpmdExecutor exec(2);
  DistributedArray<double> a(BlockCyclic(2, 4), 60), b(BlockCyclic(2, 4), 60);
  const RegularSection ssec{0, 58, 2};
  const RegularSection dsec{1, 59, 2};
  const CommPlan plan = build_copy_plan(a, ssec, b, dsec, exec);
  for (int round = 0; round < 3; ++round) {
    auto image = iota_image(60);
    for (auto& v : image) v += round * 100;
    a.scatter(image);
    execute_copy_plan(plan, a, b, exec);
    const auto out = b.gather();
    for (i64 t = 0; t < dsec.size(); ++t)
      EXPECT_EQ(out[static_cast<std::size_t>(dsec.element(t))],
                image[static_cast<std::size_t>(ssec.element(t))])
          << round << " " << t;
  }
}

TEST(SectionOps, ZipCombinesTwoSections) {
  const SpmdExecutor exec(4);
  const BlockCyclic dist(4, 8);
  DistributedArray<double> dst(dist, 320), a(dist, 320), b(dist, 320);
  a.scatter(iota_image(320));
  std::vector<double> bi(320);
  for (std::size_t i = 0; i < 320; ++i) bi[i] = 1000.0 - static_cast<double>(i);
  b.scatter(bi);
  // dst(0:99:1) = a(0:198:2) + b(100:1:-1)
  const RegularSection dsec{0, 99, 1};
  const RegularSection asec{0, 198, 2};
  const RegularSection bsec{100, 1, -1};
  zip_sections(dst, dsec, a, asec, b, bsec, [](double x, double y) { return x + y; }, exec);
  const auto image = dst.gather();
  for (i64 t = 0; t < 100; ++t) {
    const double want = static_cast<double>(asec.element(t)) +
                        (1000.0 - static_cast<double>(bsec.element(t)));
    EXPECT_EQ(image[static_cast<std::size_t>(t)], want) << t;
  }
}

TEST(SectionOps, CopyBetweenAlignedArrays) {
  const SpmdExecutor exec(2);
  DistributedArray<double> a(BlockCyclic(2, 4), 40, AffineAlignment{2, 1});
  DistributedArray<double> b(BlockCyclic(2, 4), 40, AffineAlignment{1, 7});
  a.scatter(iota_image(40));
  const RegularSection ssec{0, 39, 1};
  const RegularSection dsec{0, 39, 1};
  copy_section(a, ssec, b, dsec, exec);
  EXPECT_EQ(b.gather(), iota_image(40));
}


TEST(SectionOps, SymmetricCopyMatchesPlanCopy) {
  const SpmdExecutor exec(4);
  DistributedArray<double> a(BlockCyclic(4, 3), 200);
  DistributedArray<double> b1(BlockCyclic(4, 8), 320), b2(BlockCyclic(4, 8), 320);
  auto image = iota_image(200);
  a.scatter(image);
  const RegularSection ssec{0, 199, 2};
  const RegularSection dsec{10, 307, 3};
  copy_section(a, ssec, b1, dsec, exec);
  symmetric_copy_section(a, ssec, b2, dsec, exec);
  EXPECT_EQ(b1.gather(), b2.gather());
}

TEST(SectionOps, SymmetricCopyWithReversalAndAlignment) {
  const SpmdExecutor exec(2);
  DistributedArray<double> a(BlockCyclic(2, 4), 50, AffineAlignment{2, 1});
  DistributedArray<double> b(BlockCyclic(2, 4), 50, AffineAlignment{-1, 60});
  a.scatter(iota_image(50));
  const RegularSection ssec{49, 0, -1};
  const RegularSection dsec{0, 49, 1};
  symmetric_copy_section(a, ssec, b, dsec, exec);
  const auto out = b.gather();
  for (i64 g = 0; g < 50; ++g)
    EXPECT_EQ(out[static_cast<std::size_t>(g)], static_cast<double>(49 - g)) << g;
}

TEST(SectionOps, SymmetricCopyThreadedMatchesSequential) {
  DistributedArray<double> a(BlockCyclic(4, 5), 300);
  a.scatter(iota_image(300));
  const RegularSection ssec{3, 297, 7};
  const RegularSection dsec{1, 295, 7};
  DistributedArray<double> bs(BlockCyclic(4, 2), 300), bt(BlockCyclic(4, 2), 300);
  symmetric_copy_section(a, ssec, bs, dsec, SpmdExecutor(4, SpmdExecutor::Mode::kSequential));
  symmetric_copy_section(a, ssec, bt, dsec, SpmdExecutor(4, SpmdExecutor::Mode::kThreads));
  EXPECT_EQ(bs.gather(), bt.gather());
}

TEST(SectionOps, SizeMismatchRejected) {
  const SpmdExecutor exec(2);
  DistributedArray<double> a(BlockCyclic(2, 4), 60), b(BlockCyclic(2, 4), 60);
  EXPECT_THROW(copy_section(a, RegularSection{0, 10, 1}, b, RegularSection{0, 20, 1}, exec),
               precondition_error);
}


// --- the one owned walk, at every rank ---------------------------------------

MultiDimMapping mapping_of(std::vector<DimMapping> dims) {
  std::vector<i64> grid;
  for (const DimMapping& dm : dims) grid.push_back(dm.dist.procs());
  return MultiDimMapping{std::move(dims), ProcessorGrid{grid}};
}

struct WalkCase {
  std::string what;
  MultiDimMapping map;
  Region region;
};

std::vector<WalkCase> walk_cases() {
  const AffineAlignment id = AffineAlignment::identity();
  std::vector<WalkCase> cases;
  // Rank 1: strided, descending and aligned (the paper's periodic-gap
  // class, the reversed walk, and packed storage).
  cases.push_back({"1-D strided", mapping_of({DimMapping(97, id, BlockCyclic(4, 5))}),
                   {{3, 95, 7}}});
  cases.push_back({"1-D descending", mapping_of({DimMapping(97, id, BlockCyclic(3, 4))}),
                   {{90, 2, -3}}});
  cases.push_back({"1-D aligned", mapping_of({DimMapping(60, {2, 1}, BlockCyclic(3, 4))}),
                   {{1, 58, 3}}});
  cases.push_back({"1-D aligned descending",
                   mapping_of({DimMapping(50, {-1, 60}, BlockCyclic(2, 4))}), {{49, 0, -2}}});
  // Rank 2: unit, strided and descending dimensions; one packed dimension.
  cases.push_back({"2-D strided",
                   mapping_of({DimMapping(14, id, BlockCyclic(3, 2)),
                               DimMapping(17, id, BlockCyclic(2, 3))}),
                   {{1, 13, 2}, {0, 16, 1}}});
  cases.push_back({"2-D descending",
                   mapping_of({DimMapping(14, id, BlockCyclic(3, 2)),
                               DimMapping(17, id, BlockCyclic(2, 3))}),
                   {{12, 0, -3}, {16, 1, -2}}});
  cases.push_back({"2-D aligned",
                   mapping_of({DimMapping(12, {3, 2}, BlockCyclic(2, 4)),
                               DimMapping(11, {-2, 25}, BlockCyclic(3, 2))}),
                   {{0, 11, 2}, {10, 0, -1}}});
  // Rank 3: a packed middle dimension.
  cases.push_back({"3-D mixed",
                   mapping_of({DimMapping(6, id, BlockCyclic(2, 1)),
                               DimMapping(9, {2, 3}, BlockCyclic(2, 3)),
                               DimMapping(8, id, BlockCyclic(2, 2))}),
                   {{5, 0, -2}, {1, 8, 3}, {0, 7, 1}}});
  return cases;
}

/// The region's elements in row-major order, as subscript tuples.
std::vector<std::vector<i64>> region_elements(const Region& region) {
  std::vector<std::vector<i64>> out;
  std::vector<i64> pos(region.size(), 0);
  while (true) {
    std::vector<i64> idx;
    for (std::size_t d = 0; d < region.size(); ++d) idx.push_back(region[d].element(pos[d]));
    out.push_back(idx);
    std::size_t d = region.size();
    while (d-- > 0) {
      if (++pos[d] < region[d].size()) break;
      pos[d] = 0;
      if (d == 0) return out;
    }
  }
}

TEST(SharedWalk, RegionOpsMatchSerialReferenceAtEveryRank) {
  // fill, transform, reduce (fold order included) and the same-mapping
  // local copy, against a serial image; the rank-1 cases also run through
  // the *_section spellings.
  const auto fold = [](i64 acc, i64 v) { return (acc * 31 + v) % 1000003; };
  for (const auto mode : {SpmdExecutor::Mode::kSequential, SpmdExecutor::Mode::kThreads}) {
    for (const WalkCase& c : walk_cases()) {
      const std::string what =
          c.what + (mode == SpmdExecutor::Mode::kThreads ? " threads" : "");
      const SpmdExecutor exec(c.map.grid().rank_count(), mode);
      const i64 total = c.map.total_elements();
      std::vector<i64> image(static_cast<std::size_t>(total));
      std::iota(image.begin(), image.end(), i64{1});
      const auto flat = [&](const std::vector<i64>& idx) {
        i64 f = 0;
        for (std::size_t d = 0; d < idx.size(); ++d) f = f * c.map.dim(d).extent + idx[d];
        return static_cast<std::size_t>(f);
      };
      const std::vector<std::vector<i64>> elems = region_elements(c.region);

      MultiDimArray<i64> arr(c.map);
      arr.scatter(image);
      transform_region(arr, c.region, [](i64 x) { return 2 * x + 1; }, exec);
      std::vector<i64> want = image;
      for (const auto& idx : elems) want[flat(idx)] = 2 * want[flat(idx)] + 1;
      ASSERT_EQ(arr.gather(), want) << what << " transform";

      // Reduce: each rank folds in ascending local-address order, then the
      // partials fold in rank order.
      std::map<i64, std::map<i64, i64>> by_rank;
      for (const auto& idx : elems)
        by_rank[c.map.owner_rank(idx)][c.map.local_address(idx)] = want[flat(idx)];
      i64 want_fold = 7;
      for (const auto& [rank, vals] : by_rank) {
        i64 part = vals.begin()->second;
        for (auto it = std::next(vals.begin()); it != vals.end(); ++it)
          part = fold(part, it->second);
        want_fold = fold(want_fold, part);
      }
      EXPECT_EQ(reduce_region(arr, c.region, i64{7}, fold, exec), want_fold) << what;

      MultiDimArray<i64> copy(c.map);
      copy_region(arr, c.region, copy, c.region, exec);
      std::vector<i64> want_copy(static_cast<std::size_t>(total), 0);
      for (const auto& idx : elems) want_copy[flat(idx)] = want[flat(idx)];
      EXPECT_EQ(copy.gather(), want_copy) << what << " local copy";

      fill_region(arr, c.region, i64{-5}, exec);
      for (const auto& idx : elems) want[flat(idx)] = -5;
      EXPECT_EQ(arr.gather(), want) << what << " fill";

      if (c.region.size() != 1) continue;
      const RegularSection& sec = c.region[0];
      MultiDimArray<i64> one(c.map);
      one.scatter(image);
      transform_section(one, sec, [](i64 x) { return 2 * x + 1; }, exec);
      EXPECT_EQ(reduce_section(one, sec, i64{7}, fold, exec), want_fold) << what;
      fill_section(one, sec, i64{-5}, exec);
      EXPECT_EQ(one.gather(), want) << what << " section ops";
      i64 visits = 0;
      for (i64 r = 0; r < exec.ranks(); ++r)
        visits += for_each_owned(one, sec, r, [&](i64 t, i64 la) {
          EXPECT_EQ(c.map.local_address({sec.element(t)}), la) << what;
          EXPECT_EQ(c.map.owner_rank({sec.element(t)}), r) << what;
        });
      EXPECT_EQ(visits, sec.size()) << what;
    }
  }
}

}  // namespace
}  // namespace cyclick
