// Differential tests for the compressed periodic communication plan: the
// compressed representation must execute byte-identically to the legacy
// per-item plan across distributions, strides (including negative and the
// degenerate gcd(s, pk) >= k lattice), alignments, and executors; plus
// plan-cache behavior and the zero-copy transport path under the threaded
// executor.
#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <vector>

#include "cyclick/runtime/multidim_array.hpp"
#include "support/legacy_comm_plan.hpp"

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

void expect_same_plan(const CommPlan& a, const CommPlan& b, const std::string& what) {
  ASSERT_EQ(a.ranks, b.ranks) << what;
  ASSERT_EQ(a.channels.size(), b.channels.size()) << what;
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    const CommPlan::Channel& x = a.channels[c];
    const CommPlan::Channel& y = b.channels[c];
    ASSERT_TRUE(x.count == y.count && x.src_start == y.src_start &&
                x.dst_start == y.dst_start && x.period == y.period &&
                x.gap_begin == y.gap_begin && x.src_advance == y.src_advance &&
                x.dst_advance == y.dst_advance && x.src_contig == y.src_contig &&
                x.dst_contig == y.dst_contig)
        << what << " channel " << c;
  }
  EXPECT_EQ(a.src_off, b.src_off) << what;
  EXPECT_EQ(a.dst_off, b.dst_off) << what;
  EXPECT_EQ(a.message_count(), b.message_count()) << what;
  EXPECT_EQ(a.remote_elements(), b.remote_elements()) << what;
  EXPECT_EQ(a.total_elements(), b.total_elements()) << what;
}

/// Expand every channel of `fast` (element i at start + (i / period) *
/// advance + off[i % period] on both sides) and compare it, in order, with
/// the legacy plan's items.
void expect_streams_match_legacy(const DistributedArray<double>& src,
                                 const RegularSection& ssec, DistributedArray<double>& dst,
                                 const RegularSection& dsec, const SpmdExecutor& exec,
                                 const std::string& what) {
  const LegacyCommPlan legacy = build_legacy_copy_plan(src, ssec, dst, dsec, exec);
  const CommPlan fast = build_copy_plan(src, ssec, dst, dsec, exec);
  const i64 p = exec.ranks();
  for (i64 m = 0; m < p; ++m)
    for (i64 q = 0; q < p; ++q) {
      const CommPlan::Channel& ch = fast.channel(m, q);
      const auto& items = legacy.items(m, q);
      ASSERT_EQ(static_cast<i64>(items.size()), ch.count)
          << what << " (" << m << "," << q << ")";
      for (i64 i = 0; i < ch.count; ++i) {
        i64 s = ch.src_start;
        i64 d = ch.dst_start;
        if (ch.period > 0) {
          const auto r = static_cast<std::size_t>(ch.gap_begin + i % ch.period);
          s += (i / ch.period) * ch.src_advance + fast.src_off[r];
          d += (i / ch.period) * ch.dst_advance + fast.dst_off[r];
        }
        const LegacyCommPlan::Item& it = items[static_cast<std::size_t>(i)];
        ASSERT_EQ(d, it.dst_local) << what << " (" << m << "," << q << ") i=" << i;
        ASSERT_EQ(s, src.local_address(it.src_global)) << what << " (" << m << "," << q
                                                       << ") i=" << i;
      }
    }
  const SpmdExecutor threads(p, SpmdExecutor::Mode::kThreads);
  expect_same_plan(fast, build_copy_plan(src, ssec, dst, dsec, threads), what + " (threads)");
}

TEST(CommPlanDifferential, ChannelStreamsMatchLegacyItems) {
  for (const CopyCase& c : differential_grid()) {
    const SpmdExecutor exec(c.p);
    DistributedArray<double> src(BlockCyclic(c.p, c.src_k), c.src_n, c.src_al);
    DistributedArray<double> dst(BlockCyclic(c.p, c.dst_k), c.dst_n, c.dst_al);
    expect_streams_match_legacy(src, c.ssec, dst, c.dsec, exec, c.name);
  }

  // sections_cold-shaped draws: cyclic(3) <-> cyclic(64) on 8 ranks, |stride|
  // 1..63 (1 in 8 descending), 32..1024 elements.
  const i64 p = 8;
  const i64 n = i64{1} << 16;
  const SpmdExecutor exec(p);
  DistributedArray<double> a3(BlockCyclic(p, 3), n);
  DistributedArray<double> a64(BlockCyclic(p, 64), n);
  std::mt19937_64 rng(20261018);
  const auto draw = [&rng](i64 lo, i64 hi) {
    return std::uniform_int_distribution<i64>(lo, hi)(rng);
  };
  for (int i = 0; i < 300; ++i) {
    const bool forward = draw(0, 1) == 1;
    const i64 len = draw(32, 1024);
    const auto section = [&] {
      const i64 s = draw(1, 63) * (draw(0, 7) == 0 ? -1 : 1);
      const i64 span = (len - 1) * (s < 0 ? -s : s);
      const i64 lo = draw(0, n - 1 - span);
      return s > 0 ? RegularSection{lo, lo + span, s} : RegularSection{lo + span, lo, s};
    };
    const RegularSection ssec = section();
    const RegularSection dsec = section();
    expect_streams_match_legacy(forward ? a3 : a64, ssec, forward ? a64 : a3, dsec, exec,
                                "draw " + std::to_string(i));
  }

  // Whole-array remaps cyclic(k1) -> cyclic(k2).
  const i64 remap_n = 5000;
  for (const i64 k1 : {1, 3, 7, 64, 128})
    for (const i64 k2 : {1, 3, 7, 64, 128}) {
      DistributedArray<double> src(BlockCyclic(p, k1), remap_n);
      DistributedArray<double> dst(BlockCyclic(p, k2), remap_n);
      const RegularSection whole{0, remap_n - 1, 1};
      expect_streams_match_legacy(src, whole, dst, whole, exec,
                                  "remap " + std::to_string(k1) + "->" + std::to_string(k2));
    }
}

TEST(CommPlan, SourceSectionOutsideArrayIsRejected) {
  const SpmdExecutor exec(4);
  DistributedArray<double> src(BlockCyclic(4, 3), 40);
  DistributedArray<double> dst(BlockCyclic(4, 5), 80);
  // Past the end of the 40-element source (the destination holds 80).
  EXPECT_THROW(copy_section(src, {0, 79, 1}, dst, {0, 79, 1}, exec), precondition_error);
  // A negative lower bound.
  EXPECT_THROW(copy_section(src, {-2, 7, 1}, dst, {0, 9, 1}, exec), precondition_error);
  // A descending stride that crosses 0.
  EXPECT_THROW(copy_section(src, {6, -3, -3}, dst, {0, 3, 1}, exec), precondition_error);
  EXPECT_THROW((void)build_copy_plan(src, {6, -3, -3}, dst, {0, 3, 1}, exec),
               precondition_error);
  // The same sections inside the array still copy.
  copy_section(src, {6, 0, -3}, dst, {0, 2, 1}, exec);
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


// --- region plans -------------------------------------------------------------

/// The per-element region builder: each receiver's destination walk
/// resolves every source element through MultiDimMapping::owner_rank and
/// local_address, as region plans were first built.
RedistributionPlan per_element_region_plan(const MultiDimArray<double>& src,
                                           const Region& sregion,
                                           const MultiDimArray<double>& dst,
                                           const Region& dregion, const SpmdExecutor& exec) {
  const i64 p = exec.ranks();
  std::vector<i64> sidx(sregion.size());
  const auto walk = [&](auto&& emit) {
    for (i64 m = 0; m < p; ++m)
      for_each_owned_region(dst, dregion, m, [&](const std::vector<i64>& didx, i64 addr) {
        for (std::size_t d = 0; d < sregion.size(); ++d)
          sidx[d] = sregion[d].size() == 1
                        ? sregion[d].lower
                        : sregion[d].element((didx[d] - dregion[d].lower) / dregion[d].stride);
        emit(m * p + src.mapping().owner_rank(sidx), addr);
      });
  };
  detail::ChannelStreams streams;
  streams.reset(p * p);
  walk([&](i64 c, i64) { streams.count(c); });
  streams.layout();
  walk([&](i64 c, i64 addr) {
    streams.put_run(c, src.mapping().local_address(sidx), 0, addr, 0, 1);
  });
  return finish_redistribution_plan(CommPlan::from_streams(p, streams),
                                    static_cast<i64>(dregion.size()));
}

TEST(RegionPlan, TabulatedBuilderMatchesPerElementBuilder) {
  // The builder resolves each source dimension once per build; its plans
  // must be field-identical to the per-element builder's, across remaps,
  // shifted and descending regions, packed dimensions and spreads.
  const auto map2 = [](i64 kr, i64 kc, AffineAlignment ar, AffineAlignment ac) {
    std::vector<DimMapping> dims;
    dims.emplace_back(18, ar, BlockCyclic(3, kr));
    dims.emplace_back(20, ac, BlockCyclic(2, kc));
    return MultiDimMapping{std::move(dims), ProcessorGrid({3, 2})};
  };
  const AffineAlignment id = AffineAlignment::identity();
  struct Case {
    const char* what;
    MultiDimMapping smap, dmap;
    Region sregion, dregion;
    bool spread;
  };
  const std::vector<Case> cases = {
      {"remap", map2(2, 3, id, id), map2(4, 1, id, id), {{0, 17, 1}, {0, 19, 1}},
       {{0, 17, 1}, {0, 19, 1}}, false},
      {"shift", map2(2, 3, id, id), map2(2, 3, id, id), {{0, 15, 1}, {1, 19, 1}},
       {{2, 17, 1}, {0, 18, 1}}, false},
      {"strided descending", map2(3, 2, id, id), map2(1, 5, id, id), {{16, 0, -2}, {0, 18, 3}},
       {{1, 17, 2}, {19, 1, -3}}, false},
      {"packed", map2(2, 3, {2, 1}, id), map2(3, 2, id, {-1, 25}), {{0, 17, 1}, {1, 19, 3}},
       {{0, 17, 1}, {19, 1, -3}}, false},
      {"spread", map2(2, 3, id, id), map2(4, 2, id, id), {{0, 17, 1}, {5, 5, 1}},
       {{0, 17, 1}, {0, 19, 1}}, true},
  };
  const SpmdExecutor exec(6);
  for (const Case& c : cases) {
    const MultiDimArray<double> src(c.smap);
    const MultiDimArray<double> dst(c.dmap);
    const RedistributionPlan got =
        build_region_plan(src, c.sregion, dst, c.dregion, exec, c.spread);
    const RedistributionPlan want =
        per_element_region_plan(src, c.sregion, dst, c.dregion, exec);
    expect_same_plan(got.comm, want.comm, c.what);
    EXPECT_EQ(got.phases, want.phases) << c.what;
    EXPECT_EQ(got.dims, want.dims) << c.what;
  }
}

}  // namespace
}  // namespace cyclick
