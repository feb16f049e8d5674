// Differential tests for the compressed periodic communication plan: the
// compressed representation must execute byte-identically to the legacy
// per-item plan across distributions, strides (including negative and the
// degenerate gcd(s, pk) >= k lattice), alignments, and executors; plus
// plan-cache behavior and the zero-copy transport path under the threaded
// executor.
#include <gtest/gtest.h>

#include <numeric>

#include "cyclick/runtime/section_ops.hpp"

namespace cyclick {
namespace {

std::vector<double> iota_image(i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

struct CopyCase {
  const char* name;
  i64 p;
  i64 src_k, dst_k;
  i64 src_n, dst_n;
  AffineAlignment src_al, dst_al;
  RegularSection ssec, dsec;
};

// The differential grid: (p, k, stride, alignment, overlapping src/dst
// distributions), negative strides, and degenerate lattices where
// gcd(s, pk) >= k collapses the access pattern to a fixed step.
std::vector<CopyCase> differential_grid() {
  const AffineAlignment id = AffineAlignment::identity();
  return {
      {"same-dist-unit", 4, 8, 8, 320, 320, id, id, {5, 319, 5}, {1, 63, 1}},
      {"redistribute-strided", 4, 3, 8, 200, 320, id, id, {0, 199, 2}, {10, 307, 3}},
      {"cyclic1-to-block", 5, 1, 7, 300, 300, id, id, {2, 290, 3}, {0, 96, 1}},
      {"negative-src-stride", 2, 4, 4, 50, 50, id, id, {49, 0, -1}, {0, 49, 1}},
      {"negative-both-strides", 3, 5, 2, 120, 120, id, id, {110, 2, -4}, {81, 0, -3}},
      {"degenerate-s-eq-pk", 4, 8, 3, 320, 200, id, id, {0, 319, 32}, {0, 9, 1}},
      {"degenerate-gcd-ge-k", 4, 8, 5, 320, 300, id, id, {4, 319, 16}, {0, 57, 3}},
      {"aligned-src", 2, 4, 4, 40, 40, {2, 1}, id, {0, 39, 1}, {0, 39, 1}},
      {"aligned-both", 2, 4, 4, 40, 40, {2, 3}, {1, 7}, {1, 37, 3}, {0, 24, 2}},
      {"aligned-negative-coeff", 2, 4, 4, 50, 50, {2, 1}, {-1, 60}, {49, 0, -1}, {0, 49, 1}},
      {"overlapping-dists", 6, 4, 4, 240, 240, id, id, {0, 238, 2}, {1, 239, 2}},
      {"single-rank", 1, 3, 5, 64, 64, id, {1, 2}, {0, 62, 2}, {1, 63, 2}},
  };
}

TEST(CommPlanDifferential, CompressedMatchesLegacyByteIdentically) {
  for (const CopyCase& c : differential_grid()) {
    for (const auto mode :
         {SpmdExecutor::Mode::kSequential, SpmdExecutor::Mode::kThreads}) {
      const SpmdExecutor exec(c.p, mode);
      DistributedArray<double> src(BlockCyclic(c.p, c.src_k), c.src_n, c.src_al);
      src.scatter(iota_image(c.src_n));
      DistributedArray<double> d_legacy(BlockCyclic(c.p, c.dst_k), c.dst_n, c.dst_al);
      DistributedArray<double> d_fast(BlockCyclic(c.p, c.dst_k), c.dst_n, c.dst_al);

      const LegacyCommPlan legacy = build_legacy_copy_plan(src, c.ssec, d_legacy, c.dsec, exec);
      const CommPlan fast = build_copy_plan(src, c.ssec, d_fast, c.dsec, exec);

      // Channel populations and precomputed statistics must agree.
      for (i64 m = 0; m < c.p; ++m)
        for (i64 q = 0; q < c.p; ++q)
          ASSERT_EQ(static_cast<i64>(legacy.items(m, q).size()), fast.channel_size(m, q))
              << c.name << " channel (" << m << "," << q << ")";
      EXPECT_EQ(legacy.message_count(), fast.message_count()) << c.name;
      EXPECT_EQ(legacy.remote_elements(), fast.remote_elements()) << c.name;
      EXPECT_EQ(fast.total_elements(), c.ssec.size()) << c.name;

      execute_legacy_copy_plan(legacy, src, d_legacy, exec);
      execute_copy_plan(fast, src, d_fast, exec);
      EXPECT_EQ(d_legacy.gather(), d_fast.gather()) << c.name;

      // A second execution must replay identically (arena reuse).
      execute_copy_plan(fast, src, d_fast, exec);
      EXPECT_EQ(d_legacy.gather(), d_fast.gather()) << c.name << " (replayed)";

      // And both must agree with the sequential reference semantics.
      const auto src_image = src.gather();
      const auto out = d_fast.gather();
      for (i64 t = 0; t < c.ssec.size(); ++t)
        ASSERT_EQ(out[static_cast<std::size_t>(c.dsec.element(t))],
                  src_image[static_cast<std::size_t>(c.ssec.element(t))])
            << c.name << " t=" << t;
    }
  }
}

TEST(CommPlanDifferential, CompressedPlanIsSmallOnLargeSections) {
  const i64 p = 8, n = 20'000;
  const SpmdExecutor exec(p);
  DistributedArray<double> src(BlockCyclic(p, 3), 2 * n + 10);
  DistributedArray<double> dst(BlockCyclic(p, 8), 3 * n + 20);
  const RegularSection ssec{0, 2 * n - 1, 2};
  const RegularSection dsec{10, 10 + 3 * (n - 1), 3};
  const LegacyCommPlan legacy = build_legacy_copy_plan(src, ssec, dst, dsec, exec);
  const CommPlan fast = build_copy_plan(src, ssec, dst, dsec, exec);
  // O(p^2 + periods) vs O(|section|): at this size the compressed plan
  // must be at least an order of magnitude smaller.
  EXPECT_LT(fast.plan_bytes() * 10, legacy.plan_bytes());
}

TEST(CommPlanDifferential, SelfCopyWithinOneArrayIsPhaseSafe) {
  // src and dst are the *same array* with overlapping sections: the pack
  // phase must observe the pre-copy state for every element.
  const SpmdExecutor exec(3);
  DistributedArray<double> a(BlockCyclic(3, 4), 100);
  a.scatter(iota_image(100));
  const auto before = a.gather();
  const RegularSection ssec{0, 89, 1};
  const RegularSection dsec{10, 99, 1};
  const CommPlan plan = build_copy_plan(a, ssec, a, dsec, exec);
  execute_copy_plan(plan, a, a, exec);
  const auto after = a.gather();
  for (i64 t = 0; t < ssec.size(); ++t)
    ASSERT_EQ(after[static_cast<std::size_t>(dsec.element(t))],
              before[static_cast<std::size_t>(ssec.element(t))])
        << t;
}

TEST(CommPlanTransport, ThreadedExecutorBlockingRecv) {
  // Mode::kThreads exercises the completion-queue wait path: receivers
  // may wait on a posted receive before the matching send completes.
  const SpmdExecutor exec(4, SpmdExecutor::Mode::kThreads);
  InProcessTransport tr(4);
  DistributedArray<double> src(BlockCyclic(4, 3), 200);
  src.scatter(iota_image(200));
  DistributedArray<double> d_direct(BlockCyclic(4, 8), 320);
  DistributedArray<double> d_wire(BlockCyclic(4, 8), 320);
  const RegularSection ssec{0, 199, 2};
  const RegularSection dsec{10, 307, 3};
  const CommPlan plan = build_copy_plan(src, ssec, d_direct, dsec, exec);
  execute_copy_plan(plan, src, d_direct, exec);
  execute_copy_plan_over(plan, src, d_wire, exec, tr);
  EXPECT_EQ(d_direct.gather(), d_wire.gather());
  EXPECT_EQ(tr.in_flight(), 0);
  // Replay over the wire a second time — plans are reusable on both paths.
  execute_copy_plan_over(plan, src, d_wire, exec, tr);
  EXPECT_EQ(d_direct.gather(), d_wire.gather());
  EXPECT_EQ(tr.in_flight(), 0);
}

TEST(PlanCache, HitsMissesAndEviction) {
  const SpmdExecutor exec(4);
  DistributedArray<double> a(BlockCyclic(4, 3), 200), b(BlockCyclic(4, 8), 320);
  const RegularSection s1{0, 199, 2}, d1{10, 307, 3};
  const RegularSection s2{0, 99, 1}, d2{0, 99, 1};

  PlanCache cache(1);
  const auto p1 = cached_copy_plan(a, s1, b, d1, exec, cache);
  auto st = cache.stats();
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.hits, 0);
  EXPECT_EQ(st.size, 1u);

  const auto p1_again = cached_copy_plan(a, s1, b, d1, exec, cache);
  st = cache.stats();
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(p1.get(), p1_again.get());  // shared immutable plan

  // Capacity 1: a different shape evicts the first entry.
  const auto p2 = cached_copy_plan(a, s2, b, d2, exec, cache);
  st = cache.stats();
  EXPECT_EQ(st.misses, 2);
  EXPECT_EQ(st.evictions, 1);
  EXPECT_EQ(st.size, 1u);

  // The evicted plan stays usable through its shared_ptr.
  DistributedArray<double> out(BlockCyclic(4, 8), 320);
  a.scatter(iota_image(200));
  execute_copy_plan(*p1, a, out, exec);
  const auto img = out.gather();
  for (i64 t = 0; t < s1.size(); ++t)
    ASSERT_EQ(img[static_cast<std::size_t>(d1.element(t))],
              static_cast<double>(s1.element(t) + 1));
}

TEST(PlanCache, KeyDiscriminatesMappings) {
  const SpmdExecutor exec(4);
  DistributedArray<double> a(BlockCyclic(4, 3), 200);
  DistributedArray<double> b8(BlockCyclic(4, 8), 320);
  DistributedArray<double> b5(BlockCyclic(4, 5), 320);
  const RegularSection ssec{0, 199, 2}, dsec{10, 307, 3};
  PlanCache cache(8);
  (void)cached_copy_plan(a, ssec, b8, dsec, exec, cache);
  (void)cached_copy_plan(a, ssec, b5, dsec, exec, cache);  // different dst dist
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 2);
  EXPECT_EQ(st.hits, 0);
  EXPECT_EQ(st.size, 2u);
}

TEST(PlanCache, CopySectionReplaysThroughGlobalCache) {
  // Two identical copy_section calls: the second must be a global-cache
  // hit, and results must stay correct when the data changes between
  // sweeps (plans depend on shapes, not contents).
  const SpmdExecutor exec(4);
  DistributedArray<double> a(BlockCyclic(4, 3), 200), b(BlockCyclic(4, 8), 320);
  const RegularSection ssec{0, 199, 2}, dsec{10, 307, 3};
  const auto before = PlanCache::global().stats();
  for (int sweep = 0; sweep < 3; ++sweep) {
    auto image = iota_image(200);
    for (auto& v : image) v += 100.0 * sweep;
    a.scatter(image);
    copy_section(a, ssec, b, dsec, exec);
    const auto out = b.gather();
    for (i64 t = 0; t < ssec.size(); ++t)
      ASSERT_EQ(out[static_cast<std::size_t>(dsec.element(t))],
                image[static_cast<std::size_t>(ssec.element(t))])
          << sweep << " " << t;
  }
  const auto after = PlanCache::global().stats();
  EXPECT_GE(after.hits - before.hits, 2);
}

TEST(CommPlan, GapPeriodIsCompact) {
  // cyclic(k) with unit stride on both sides: local addresses advance by
  // periodic gaps, so per-channel gap tables must stay tiny regardless of
  // section length.
  const i64 p = 4;
  const SpmdExecutor exec(p);
  DistributedArray<double> a(BlockCyclic(p, 3), 1200), b(BlockCyclic(p, 5), 1200);
  const RegularSection whole{0, 1199, 1};
  const CommPlan plan = build_copy_plan(a, whole, b, whole, exec);
  for (i64 m = 0; m < p; ++m)
    for (i64 q = 0; q < p; ++q) {
      const CommPlan::Channel& ch = plan.channel(m, q);
      if (ch.count <= 1) continue;
      // The delta streams are lattice-periodic: far shorter than the
      // channel population.
      EXPECT_LT(ch.period, ch.count) << "(" << m << "," << q << ")";
      EXPECT_LE(ch.period, 60) << "(" << m << "," << q << ")";
    }
}

}  // namespace
}  // namespace cyclick
