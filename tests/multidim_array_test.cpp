// Tests for multidimensional distributed arrays and region operations.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "cyclick/runtime/multidim_array.hpp"

namespace cyclick {
namespace {

MultiDimMapping map_2d(i64 rows, i64 cols) {
  std::vector<DimMapping> dims;
  dims.emplace_back(rows, AffineAlignment::identity(), BlockCyclic(3, 2));
  dims.emplace_back(cols, AffineAlignment::identity(), BlockCyclic(2, 3));
  return {std::move(dims), ProcessorGrid({3, 2})};
}

TEST(MultiDimArray, GatherScatterRoundTrip) {
  MultiDimArray<double> arr(map_2d(12, 10));
  std::vector<double> image(120);
  std::iota(image.begin(), image.end(), 0.0);
  arr.scatter(image);
  EXPECT_EQ(arr.gather(), image);
}

TEST(MultiDimArray, GetSetThroughOwners) {
  MultiDimArray<int> arr(map_2d(8, 9));
  for (i64 i = 0; i < 8; ++i)
    for (i64 j = 0; j < 9; ++j) arr.set({i, j}, static_cast<int>(10 * i + j));
  for (i64 i = 0; i < 8; ++i)
    for (i64 j = 0; j < 9; ++j) EXPECT_EQ(arr.get({i, j}), 10 * i + j);
}

TEST(ForEachOwnedRegion, PartitionsTheRegion) {
  MultiDimArray<int> arr(map_2d(12, 10));
  const Region region{{1, 10, 2}, {0, 9, 3}};  // 5 x 4 elements
  const SpmdExecutor exec(6);
  i64 total = 0;
  std::set<std::pair<i64, i64>> seen;
  for (i64 r = 0; r < 6; ++r) {
    total += for_each_owned_region(arr, region, r, [&](const std::vector<i64>& idx, i64) {
      const bool inserted = seen.insert({idx[0], idx[1]}).second;
      EXPECT_TRUE(inserted) << idx[0] << "," << idx[1];
      EXPECT_EQ(arr.mapping().owner_rank(idx), r);
    });
  }
  EXPECT_EQ(total, region_size(region));
  EXPECT_EQ(static_cast<i64>(seen.size()), region_size(region));
}

TEST(ForEachOwnedRegion, LocalAddressesMatchMapping) {
  MultiDimArray<int> arr(map_2d(12, 10));
  const Region region{{0, 11, 1}, {0, 9, 1}};
  for (i64 r = 0; r < 6; ++r) {
    for_each_owned_region(arr, region, r, [&](const std::vector<i64>& idx, i64 addr) {
      EXPECT_EQ(addr, arr.mapping().local_address(idx));
    });
  }
}

TEST(FillRegion, MatchesReference) {
  MultiDimArray<double> arr(map_2d(12, 10));
  std::vector<double> ref(120, 0.0);
  arr.scatter(ref);
  const Region region{{2, 11, 3}, {1, 8, 2}};
  const SpmdExecutor exec(6);
  fill_region(arr, region, 7.0, exec);
  for (i64 t0 = 0; t0 < region[0].size(); ++t0)
    for (i64 t1 = 0; t1 < region[1].size(); ++t1)
      ref[static_cast<std::size_t>(region[0].element(t0) * 10 + region[1].element(t1))] = 7.0;
  EXPECT_EQ(arr.gather(), ref);
}

TEST(TransformRegion, MatchesReference) {
  MultiDimArray<double> arr(map_2d(12, 10));
  std::vector<double> ref(120);
  std::iota(ref.begin(), ref.end(), 0.0);
  arr.scatter(ref);
  const Region region{{0, 11, 2}, {0, 9, 1}};
  const SpmdExecutor exec(6);
  transform_region(arr, region, [](double x) { return 3.0 * x; }, exec);
  for (i64 i = 0; i < 12; i += 2)
    for (i64 j = 0; j < 10; ++j) ref[static_cast<std::size_t>(i * 10 + j)] *= 3.0;
  EXPECT_EQ(arr.gather(), ref);
}

TEST(CopyRegion, ShiftWithinOneArrayShape) {
  MultiDimArray<double> a(map_2d(12, 10)), b(map_2d(12, 10));
  std::vector<double> image(120);
  std::iota(image.begin(), image.end(), 0.0);
  a.scatter(image);
  const SpmdExecutor exec(6);
  // b(0:10, 0:8) = a(1:11, 1:9)  — a diagonal shift.
  copy_region(a, Region{{1, 11, 1}, {1, 9, 1}}, b, Region{{0, 10, 1}, {0, 8, 1}}, exec);
  for (i64 i = 0; i <= 10; ++i)
    for (i64 j = 0; j <= 8; ++j)
      EXPECT_EQ(b.get({i, j}), image[static_cast<std::size_t>((i + 1) * 10 + (j + 1))])
          << i << "," << j;
}

TEST(CopyRegion, AcrossDifferentGridShapesRejected) {
  MultiDimArray<double> a(map_2d(12, 10));
  std::vector<DimMapping> dims;
  dims.emplace_back(12, AffineAlignment::identity(), BlockCyclic(2, 2));
  dims.emplace_back(10, AffineAlignment::identity(), BlockCyclic(3, 2));
  MultiDimArray<double> b(MultiDimMapping{std::move(dims), ProcessorGrid({2, 3})});
  const SpmdExecutor exec(6);
  // Same rank count, different grid: the copy is still well-defined (pull
  // model reads through global addressing) and must produce correct data.
  std::vector<double> image(120);
  std::iota(image.begin(), image.end(), 0.0);
  a.scatter(image);
  copy_region(a, Region{{0, 11, 1}, {0, 9, 1}}, b, Region{{0, 11, 1}, {0, 9, 1}}, exec);
  EXPECT_EQ(b.gather(), image);
}

TEST(CopyRegion, MismatchedExtentsRejected) {
  MultiDimArray<double> a(map_2d(12, 10)), b(map_2d(12, 10));
  const SpmdExecutor exec(6);
  EXPECT_THROW(
      copy_region(a, Region{{0, 5, 1}, {0, 9, 1}}, b, Region{{0, 4, 1}, {0, 9, 1}}, exec),
      precondition_error);
}

TEST(ReduceRegion, SumsRegion) {
  MultiDimArray<double> arr(map_2d(12, 10));
  std::vector<double> image(120);
  std::iota(image.begin(), image.end(), 0.0);
  arr.scatter(image);
  const Region region{{1, 10, 2}, {2, 8, 3}};
  const SpmdExecutor exec(6);
  const double got =
      reduce_region(arr, region, 0.0, [](double a, double b) { return a + b; }, exec);
  double want = 0.0;
  for (i64 t0 = 0; t0 < region[0].size(); ++t0)
    for (i64 t1 = 0; t1 < region[1].size(); ++t1)
      want += image[static_cast<std::size_t>(region[0].element(t0) * 10 +
                                             region[1].element(t1))];
  EXPECT_EQ(got, want);
}

TEST(MultiDimArray, ThreeDimensional) {
  std::vector<DimMapping> dims;
  dims.emplace_back(6, AffineAlignment::identity(), BlockCyclic(2, 1));
  dims.emplace_back(5, AffineAlignment::identity(), BlockCyclic(1, 5));
  dims.emplace_back(8, AffineAlignment::identity(), BlockCyclic(2, 2));
  MultiDimArray<int> arr(MultiDimMapping{std::move(dims), ProcessorGrid({2, 1, 2})});
  const SpmdExecutor exec(4);
  fill_region(arr, Region{{0, 5, 1}, {0, 4, 1}, {0, 7, 1}}, 1, exec);
  const int total =
      reduce_region(arr, Region{{0, 5, 1}, {0, 4, 1}, {0, 7, 1}}, 0,
                    [](int a, int b) { return a + b; }, exec);
  EXPECT_EQ(total, 6 * 5 * 8);
  // Strided sub-box.
  fill_region(arr, Region{{1, 5, 2}, {0, 4, 2}, {3, 7, 4}}, 10, exec);
  const int boxed =
      reduce_region(arr, Region{{1, 5, 2}, {0, 4, 2}, {3, 7, 4}}, 0,
                    [](int a, int b) { return a + b; }, exec);
  EXPECT_EQ(boxed, 10 * 3 * 3 * 2);
}

TEST(MultiDimArray, AlignedDimension) {
  std::vector<DimMapping> dims;
  dims.emplace_back(10, AffineAlignment{2, 1}, BlockCyclic(2, 4));
  MultiDimArray<double> arr(MultiDimMapping{std::move(dims), ProcessorGrid({2})});
  const SpmdExecutor exec(2);
  fill_region(arr, Region{{0, 9, 1}}, 5.0, exec);
  for (i64 i = 0; i < 10; ++i) EXPECT_EQ(arr.get({i}), 5.0) << i;
  fill_region(arr, Region{{1, 9, 3}}, 9.0, exec);
  for (i64 i = 0; i < 10; ++i)
    EXPECT_EQ(arr.get({i}), (i >= 1 && (i - 1) % 3 == 0) ? 9.0 : 5.0) << i;
}


// --- one array type: a 1-D array is a rank-1 region ---------------------------

TEST(OneArrayType, Rank1StorageMatchesTheOneDimensionalLayout) {
  // The 1-D constructor and a rank-1 MultiDimMapping build the same array,
  // and both store exactly the 1-D layout: identity alignment at the
  // distribution's local index over local_capacity(n) slots per rank, any
  // other alignment packed through PackedLayout, one slot per owned element.
  for (const i64 a : {1, 2, 3, -1, -2})
    for (const i64 b0 : {0, 1, 5})
      for (i64 p = 1; p <= 5; ++p)
        for (const i64 k : {1, 3, 8})
          for (const i64 n : {p * k + 1, 3 * p * k - 1, i64{17}}) {
            // A negative coefficient needs an offset that keeps every cell
            // inside the template.
            const i64 b = b0 + (a < 0 ? -a * (n - 1) : 0);
            const BlockCyclic dist(p, k);
            const AffineAlignment al{a, b};
            const std::string what = "a=" + std::to_string(a) + " b=" + std::to_string(b) +
                                     " p=" + std::to_string(p) + " k=" + std::to_string(k) +
                                     " n=" + std::to_string(n);
            const DistributedArray<int> one(dist, n, al);
            const DistributedArray<int> rank1(
                MultiDimMapping({DimMapping(n, al, dist)}, ProcessorGrid({p})));
            ASSERT_EQ(one.mapping(), rank1.mapping()) << what;
            std::vector<i64> owned(static_cast<std::size_t>(p), 0);
            for (i64 i = 0; i < n; ++i) {
              const i64 cell = al.cell(i);
              const i64 owner = dist.owner(cell);
              const i64 addr = al.is_identity()
                                   ? dist.local_index(cell)
                                   : PackedLayout(dist, al, n, owner).rank(cell);
              ++owned[static_cast<std::size_t>(owner)];
              ASSERT_EQ(one.owner_of(i), owner) << what << " i=" << i;
              ASSERT_EQ(rank1.mapping().owner_rank({i}), owner) << what << " i=" << i;
              ASSERT_EQ(one.local_address(i), addr) << what << " i=" << i;
              ASSERT_EQ(rank1.mapping().local_address({i}), addr) << what << " i=" << i;
              if (!al.is_identity()) {
                ASSERT_EQ(rank1.packed_layout(owner).rank(cell), addr) << what << " i=" << i;
              }
            }
            for (i64 m = 0; m < p; ++m) {
              const i64 want = al.is_identity() ? dist.local_capacity(n)
                                                : owned[static_cast<std::size_t>(m)];
              EXPECT_EQ(static_cast<i64>(one.local(m).size()), want) << what << " m=" << m;
              EXPECT_EQ(static_cast<i64>(rank1.local(m).size()), want) << what << " m=" << m;
              if (!al.is_identity()) {
                EXPECT_EQ(PackedLayout(dist, al, n, m).size(), want) << what << " m=" << m;
              }
            }
          }
}

TEST(OneArrayType, NonIdentityDimensionsArePacked) {
  // N-D arrays pack every non-identity-aligned dimension to exactly its
  // owned elements; every element sits at a distinct address below its
  // rank's storage size.
  std::vector<DimMapping> dims;
  dims.emplace_back(10, AffineAlignment{2, 1}, BlockCyclic(2, 4));
  dims.emplace_back(7, AffineAlignment::identity(), BlockCyclic(3, 2));
  dims.emplace_back(9, AffineAlignment{-3, 30}, BlockCyclic(2, 5));
  const MultiDimArray<int> arr(MultiDimMapping{std::move(dims), ProcessorGrid({2, 3, 2})});
  const MultiDimMapping& map = arr.mapping();
  std::map<i64, std::set<i64>> addrs;
  for (i64 i = 0; i < 10; ++i)
    for (i64 j = 0; j < 7; ++j)
      for (i64 l = 0; l < 9; ++l) {
        const std::vector<i64> idx{i, j, l};
        const i64 addr = map.local_address(idx);
        EXPECT_TRUE(addrs[map.owner_rank(idx)].insert(addr).second)
            << i << "," << j << "," << l;
      }
  const i64 identity_extent = BlockCyclic(3, 2).local_capacity(7);
  for (i64 r = 0; r < map.grid().rank_count(); ++r) {
    const std::vector<i64> c = map.grid().coords_of(r);
    // Packed dimensions hold exactly their owned count; the identity one
    // keeps its template capacity.
    const i64 want = map.packed_layout(0, c[0])->size() * identity_extent *
                     map.packed_layout(2, c[2])->size();
    ASSERT_EQ(static_cast<i64>(arr.local(r).size()), want) << r;
    EXPECT_EQ(map.local_size(r), want) << r;
    for (const i64 a : addrs[r]) EXPECT_LT(a, want) << r;
    EXPECT_LE(want, map.local_capacity());
  }
  EXPECT_EQ(map.packed_layout(1, 0), nullptr);
}

}  // namespace
}  // namespace cyclick
