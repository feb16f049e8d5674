// Randomized differential testing for the extension layers: aligned access
// patterns, coupled-subscript nests, and the runtime copy engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "cyclick/core/aligned.hpp"
#include "cyclick/core/coupled.hpp"
#include "cyclick/runtime/section_ops.hpp"
#include "support/symmetric_copy.hpp"

namespace cyclick {
namespace {

TEST(FuzzAligned, PatternsWalkBruteForceSequences) {
  std::mt19937_64 rng(0xA11617ED);
  for (int trial = 0; trial < 400; ++trial) {
    const i64 p = 1 + static_cast<i64>(rng() % 5);
    const i64 k = 1 + static_cast<i64>(rng() % 7);
    const BlockCyclic dist(p, k);
    i64 a = 1 + static_cast<i64>(rng() % 4);
    if (rng() % 3 == 0) a = -a;
    const i64 b = static_cast<i64>(rng() % 200) + (a < 0 ? 4 * 64 : 0);
    const AffineAlignment al{a, b};
    const i64 n = 30 + static_cast<i64>(rng() % 60);
    // Random in-bounds ascending section.
    const i64 lo = static_cast<i64>(rng() % static_cast<u64>(n - 1));
    const i64 st = 1 + static_cast<i64>(rng() % 9);
    const i64 count = 1 + static_cast<i64>(rng() % static_cast<u64>((n - lo + st - 1) / st));
    const RegularSection sec{lo, lo + (count - 1) * st, st};
    const i64 m = static_cast<i64>(rng() % static_cast<u64>(p));

    // Brute force: packed addresses in traversal order.
    std::vector<i64> cells;
    for (i64 i = 0; i < n; ++i)
      if (dist.owner(al.cell(i)) == m) cells.push_back(al.cell(i));
    std::sort(cells.begin(), cells.end());
    std::vector<i64> addrs;
    std::vector<i64> t_of;
    for (i64 t = 0; t < sec.size(); ++t) {
      const i64 cell = al.cell(sec.element(t));
      if (dist.owner(cell) == m) {
        addrs.push_back(static_cast<i64>(
            std::lower_bound(cells.begin(), cells.end(), cell) - cells.begin()));
        t_of.push_back(t);
      }
    }

    const AlignedAccessPattern pat = compute_aligned_pattern(dist, al, n, sec, m);
    if (addrs.empty()) {
      EXPECT_TRUE(pat.empty() || !sec.contains(pat.start_array_index))
          << "trial " << trial;
      continue;
    }
    ASSERT_FALSE(pat.empty()) << "trial " << trial << " p=" << p << " k=" << k
                              << " a=" << a << " b=" << b << " n=" << n
                              << " sec=" << sec.to_string() << " m=" << m;
    ASSERT_EQ(pat.start_packed_local, addrs.front()) << "trial " << trial;
    ASSERT_EQ(pat.start_array_index, sec.element(t_of.front())) << "trial " << trial;
    for (std::size_t i = 0; i + 1 < addrs.size(); ++i) {
      const i64 want_gap = addrs[i + 1] - addrs[i];
      ASSERT_EQ(pat.gaps[i % static_cast<std::size_t>(pat.length)], want_gap)
          << "trial " << trial << " i=" << i << " p=" << p << " k=" << k << " a=" << a
          << " b=" << b << " n=" << n << " sec=" << sec.to_string() << " m=" << m;
    }
  }
}

TEST(FuzzCoupled, NestEnumerationMatchesBruteForce) {
  std::mt19937_64 rng(0xC0091ED);
  for (int trial = 0; trial < 400; ++trial) {
    const i64 p = 1 + static_cast<i64>(rng() % 5);
    const i64 k = 1 + static_cast<i64>(rng() % 8);
    const BlockCyclic dist(p, k);
    const i64 o_len = 1 + static_cast<i64>(rng() % 8);
    const i64 i_len = 1 + static_cast<i64>(rng() % 12);
    const LoopNest2 nest{{static_cast<i64>(rng() % 10), 0, 1 + static_cast<i64>(rng() % 3)},
                         {static_cast<i64>(rng() % 10), 0, 1 + static_cast<i64>(rng() % 3)}};
    LoopNest2 fixed{
        {nest.outer.lower, nest.outer.lower + (o_len - 1) * nest.outer.stride,
         nest.outer.stride},
        {nest.inner.lower, nest.inner.lower + (i_len - 1) * nest.inner.stride,
         nest.inner.stride}};
    i64 c2 = 1 + static_cast<i64>(rng() % 6);
    if (rng() % 4 == 0) c2 = -c2;
    const CoupledSubscript sub{static_cast<i64>(rng() % 20) - 5, c2,
                               static_cast<i64>(rng() % 50) + 100};
    const i64 m = static_cast<i64>(rng() % static_cast<u64>(p));

    std::vector<CoupledAccess> want;
    for (i64 t1 = 0; t1 < fixed.outer.size(); ++t1)
      for (i64 t2 = 0; t2 < fixed.inner.size(); ++t2) {
        const i64 i1 = fixed.outer.element(t1);
        const i64 i2 = fixed.inner.element(t2);
        const i64 g = sub.value(i1, i2);
        if (dist.owner(g) == m) want.push_back({i1, i2, g, dist.local_index(g)});
      }
    const auto got = coupled_access_list(dist, fixed, sub, m);
    ASSERT_EQ(got, want) << "trial " << trial << " p=" << p << " k=" << k
                         << " c1=" << sub.c1 << " c2=" << sub.c2 << " b=" << sub.b
                         << " m=" << m;
  }
}

TEST(FuzzCopy, RandomRedistributionsMatchScatterReference) {
  std::mt19937_64 rng(0x5CA77E6);
  for (int trial = 0; trial < 120; ++trial) {
    const i64 p = 2 + static_cast<i64>(rng() % 4);
    const SpmdExecutor exec(p);
    const i64 ks = 1 + static_cast<i64>(rng() % 8);
    const i64 kd = 1 + static_cast<i64>(rng() % 8);
    const i64 count = 5 + static_cast<i64>(rng() % 40);
    const i64 ss = 1 + static_cast<i64>(rng() % 5);
    const i64 sd = 1 + static_cast<i64>(rng() % 5);
    const i64 ls = static_cast<i64>(rng() % 20);
    const i64 ld = static_cast<i64>(rng() % 20);
    const i64 ns = ls + (count - 1) * ss + 1 + static_cast<i64>(rng() % 10);
    const i64 nd = ld + (count - 1) * sd + 1 + static_cast<i64>(rng() % 10);
    DistributedArray<double> src(BlockCyclic(p, ks), ns);
    DistributedArray<double> dst1(BlockCyclic(p, kd), nd);
    DistributedArray<double> dst2(BlockCyclic(p, kd), nd);
    std::vector<double> image(static_cast<std::size_t>(ns));
    for (auto& v : image) v = static_cast<double>(rng() % 1000);
    src.scatter(image);
    const RegularSection ssec{ls, ls + (count - 1) * ss, ss};
    const RegularSection dsec{ld, ld + (count - 1) * sd, sd};
    copy_section(src, ssec, dst1, dsec, exec);
    symmetric_copy_section(src, ssec, dst2, dsec, exec);
    // Reference semantics.
    std::vector<double> want(static_cast<std::size_t>(nd), 0.0);
    for (i64 t = 0; t < count; ++t)
      want[static_cast<std::size_t>(dsec.element(t))] =
          image[static_cast<std::size_t>(ssec.element(t))];
    ASSERT_EQ(dst1.gather(), want) << "plan copy, trial " << trial;
    ASSERT_EQ(dst2.gather(), want) << "symmetric copy, trial " << trial;
  }
}

}  // namespace
}  // namespace cyclick
