// Redistribution-layer tests: the rotation schedule's matching properties,
// phase counting, the (k_src, k_dst) x p differential parity grid between
// the in-process executor and the simulated mesh, N-D region plans
// (copy_region / spread_region) on both backends, the region plan cache,
// the incast study — the phase-rotated schedule must beat the naive
// posting order on peak receiver congestion at p = 64 — and the one
// executor core across aliasing and every endpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cyclick/runtime/multidim_array.hpp"
#include "cyclick/runtime/plan_cache.hpp"
#include "cyclick/runtime/redistribute.hpp"
#include "cyclick/sim/sim_machine.hpp"
#include "cyclick/sim/sim_transport.hpp"

namespace cyclick {
namespace {

std::vector<double> iota_image(i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Redistribute, RotationIsAPerfectMatchingEveryPhase) {
  for (const i64 p : {1, 2, 3, 7, 16, 1024}) {
    for (i64 f = 0; f < std::min<i64>(p, 9); ++f) {
      std::vector<int> hit(static_cast<std::size_t>(p), 0);
      for (i64 q = 0; q < p; ++q) {
        const i64 m = redist_peer_to(q, f, p);
        ASSERT_GE(m, 0);
        ASSERT_LT(m, p);
        ++hit[static_cast<std::size_t>(m)];
        // Inverse matching: the receiver m looks back to exactly q.
        EXPECT_EQ(redist_peer_from(m, f, p), q) << "p=" << p << " f=" << f;
        if (f == 0) {
          EXPECT_EQ(m, q);  // phase 0 is the self channel
        } else {
          EXPECT_NE(m, q);  // later phases are fixed-point-free
        }
      }
      for (const int h : hit) EXPECT_EQ(h, 1) << "p=" << p << " f=" << f;
    }
  }
}

TEST(Redistribute, PhaseCountIdentityAndShiftAndFullExchange) {
  const i64 p = 6, n = 360;
  const SpmdExecutor exec(p);
  const RegularSection whole{0, n - 1, 1};

  // Identical mappings: only the self phase.
  DistributedArray<double> a(BlockCyclic(p, 5), n), b(BlockCyclic(p, 5), n);
  const RedistributionPlan same = build_redistribution_plan(a, whole, b, whole, exec);
  EXPECT_EQ(same.phases, 1);
  EXPECT_EQ(same.remote_elements(), 0);

  // A unit shift on one distribution touches self + one neighbour phase.
  const RedistributionPlan shift = build_redistribution_plan(
      a, RegularSection{0, n - 2, 1}, b, RegularSection{1, n - 1, 1}, exec);
  EXPECT_EQ(shift.phases, 2);

  // Decorrelated block sizes light up every phase.
  DistributedArray<double> c(BlockCyclic(p, 1), n);
  const RedistributionPlan full = build_redistribution_plan(a, whole, c, whole, exec);
  EXPECT_EQ(full.phases, p);
  EXPECT_EQ(full.dims, 1);
}

// The differential parity grid: every (k_src, k_dst) pair across every
// machine size, executed in-process and over the simulated mesh, must land
// byte-identical images. Some receiver in the grid must have more incoming
// wire channels than the receive window, so the window slides rather than
// posting everything up front.
TEST(Redistribute, ParityGridInprocVersusSimByteIdentical) {
  const i64 n = 1500;
  const std::vector<double> image = iota_image(n);
  const RegularSection whole{0, n - 1, 1};
  i64 most_incoming = 0;
  for (const i64 p : {2, 4, 7, 16}) {
    const SpmdExecutor exec(p);
    for (const i64 k1 : {1, 2, 3, 5, 7, 64}) {
      for (const i64 k2 : {1, 2, 3, 5, 7, 64}) {
        SCOPED_TRACE("p=" + std::to_string(p) + " k1=" + std::to_string(k1) +
                     " k2=" + std::to_string(k2));
        DistributedArray<double> src(BlockCyclic(p, k1), n);
        src.scatter(image);
        const RedistributionPlan plan = [&] {
          DistributedArray<double> dst(BlockCyclic(p, k2), n);
          return build_redistribution_plan(src, whole, dst, whole, exec);
        }();
        for (i64 m = 0; m < p; ++m) {
          i64 incoming = 0;
          for (i64 q = 0; q < p; ++q)
            if (q != m && plan.comm.channel(m, q).count > 0) ++incoming;
          most_incoming = std::max(most_incoming, incoming);
        }

        DistributedArray<double> inproc_dst(BlockCyclic(p, k2), n);
        execute_redistribution(plan, src, inproc_dst, exec);
        const std::vector<double> inproc_image = inproc_dst.gather();
        EXPECT_EQ(inproc_image, image);

        std::vector<double> sim_image;
        {
          sim::SimMachine machine{sim::SimParams{}};
          sim::SimMachine::Scope scope(machine);
          DistributedArray<double> sim_dst(BlockCyclic(p, k2), n);
          execute_redistribution(plan, src, sim_dst, exec);
          sim_image = sim_dst.gather();
        }
        EXPECT_EQ(sim_image, inproc_image);
      }
    }
  }
  EXPECT_GT(most_incoming, kRedistWindow);
}

MultiDimMapping grid_map(i64 rows, i64 cols, i64 kr, i64 kc) {
  std::vector<DimMapping> dims;
  dims.emplace_back(rows, AffineAlignment::identity(), BlockCyclic(3, kr));
  dims.emplace_back(cols, AffineAlignment::identity(), BlockCyclic(2, kc));
  return MultiDimMapping{std::move(dims), ProcessorGrid({3, 2})};
}

TEST(Redistribute, RegionRemapParityInprocVersusSim) {
  // A genuine 2-D remap: different block sizes per dimension on both
  // sides, plus a shifted strided region.
  const i64 rows = 36, cols = 30;
  const SpmdExecutor exec(6);
  MultiDimArray<double> src(grid_map(rows, cols, 4, 3));
  std::vector<double> image(static_cast<std::size_t>(rows * cols));
  std::iota(image.begin(), image.end(), 1.0);
  src.scatter(image);

  const Region sregion{{0, rows - 3, 1}, {0, cols - 2, 2}};
  const Region dregion{{2, rows - 1, 1}, {1, cols - 1, 2}};

  MultiDimArray<double> want(grid_map(rows, cols, 2, 5));
  copy_region(src, sregion, want, dregion, exec);

  std::vector<double> sim_image;
  {
    sim::SimMachine machine{sim::SimParams{}};
    sim::SimMachine::Scope scope(machine);
    MultiDimArray<double> got(grid_map(rows, cols, 2, 5));
    copy_region(src, sregion, got, dregion, exec);
    sim_image = got.gather();
  }
  EXPECT_EQ(sim_image, want.gather());

  // And the landed values are the shifted source, not garbage.
  const auto at = [&](const std::vector<double>& img, i64 i, i64 j) {
    return img[static_cast<std::size_t>(i * cols + j)];
  };
  const std::vector<double> landed = want.gather();
  for (i64 i = 2; i <= rows - 1; ++i)
    for (i64 j = 1; j <= cols - 1; j += 2)
      EXPECT_EQ(at(landed, i, j), at(image, i - 2, j - 1)) << i << "," << j;
}

TEST(Redistribute, SpreadRegionPinsSizeOneSourceDim) {
  const i64 n = 24, t = 7;
  const SpmdExecutor exec(6);
  MultiDimArray<double> a(grid_map(n, n, 4, 3)), ta(grid_map(n, n, 4, 3));
  std::vector<double> image(static_cast<std::size_t>(n * n));
  std::iota(image.begin(), image.end(), 1.0);
  a.scatter(image);

  const Region whole{{0, n - 1, 1}, {0, n - 1, 1}};
  spread_region(a, Region{{0, n - 1, 1}, {t, t, 1}}, ta, whole, exec);
  const auto got = ta.gather();
  for (i64 i = 0; i < n; ++i)
    for (i64 j = 0; j < n; ++j)
      EXPECT_EQ(got[static_cast<std::size_t>(i * n + j)],
                image[static_cast<std::size_t>(i * n + t)])
          << i << "," << j;

  // Mismatched non-unit sizes must still be rejected under spread.
  EXPECT_THROW(spread_region(a, Region{{0, n - 3, 1}, {t, t, 1}}, ta, whole, exec),
               std::logic_error);
}

TEST(Redistribute, RegionPlanCacheReturnsSharedPlanOnRepeat) {
  const i64 n = 24;
  const SpmdExecutor exec(6);
  MultiDimArray<double> src(grid_map(n, n, 4, 3)), dst(grid_map(n, n, 2, 3));
  const Region whole{{0, n - 1, 1}, {0, n - 1, 1}};

  RegionPlanCache cache(8);
  const auto p1 = cached_region_plan(src, whole, dst, whole, exec, false, cache);
  const auto p2 = cached_region_plan(src, whole, dst, whole, exec, false, cache);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(p1->dims, 2);

  // The spread flag is part of the key: a spread plan for the same
  // sections must not alias the copy plan.
  MultiDimArray<double> col(grid_map(n, n, 4, 3));
  const auto pc1 = cached_region_plan(col, Region{{0, n - 1, 1}, {3, 3, 1}}, dst,
                                      Region{{0, n - 1, 1}, {3, 3, 1}}, exec, false, cache);
  const auto ps1 = cached_region_plan(col, Region{{0, n - 1, 1}, {3, 3, 1}}, dst,
                                      Region{{0, n - 1, 1}, {3, 3, 1}}, exec, true, cache);
  EXPECT_NE(pc1.get(), ps1.get());
}

TEST(Redistribute, RotatedReplayBeatsNaiveIncastAtP64) {
  // Full cyclic(1) -> cyclic(64) exchange at p=64 (n = 4 full block
  // rounds): every sender talks to every receiver. Under the naive
  // posting order every sender's f-th message targets receiver f, so
  // arrivals pile up; the rotation spreads them into perfect matchings.
  // Per-link bytes are identical (the plan is), so the schedule's effect
  // shows up in peak concurrent in-network messages to one rank.
  const i64 p = 64, n = p * p * 4;
  const SpmdExecutor exec(p);
  DistributedArray<double> src(BlockCyclic(p, 1), n);
  DistributedArray<double> dst(BlockCyclic(p, p), n);
  const CommPlan plan = build_copy_plan(src, {0, n - 1, 1}, dst, {0, n - 1, 1}, exec);

  sim::SimParams params;
  sim::SimTransport naive(p, params), rotated(p, params);
  replay_plan_traffic(plan, naive, ScheduleOrder::kNaive, sizeof(double));
  replay_plan_traffic(plan, rotated, ScheduleOrder::kRotated, sizeof(double));
  const auto rn = naive.report();
  const auto rr = rotated.report();

  EXPECT_EQ(rn.messages, rr.messages);
  EXPECT_EQ(rn.bytes, rr.bytes);
  EXPECT_GT(rr.max_in_flight, 0);
  EXPECT_GE(rn.max_in_flight, 2 * rr.max_in_flight)
      << "naive=" << rn.max_in_flight << " rotated=" << rr.max_in_flight;
}

TEST(Redistribute, ExecutorsAreGenericOverArrayKind) {
  // The same execute_copy_plan entry point moves 1-D DistributedArray
  // sections and N-D MultiDimArray regions; spot-check the 1-D path with
  // int payloads (the grid above uses double).
  const i64 p = 4, n = 101;
  const SpmdExecutor exec(p);
  DistributedArray<int> src(BlockCyclic(p, 3), n), dst(BlockCyclic(p, 7), n);
  std::vector<int> image(static_cast<std::size_t>(n));
  std::iota(image.begin(), image.end(), 1);
  src.scatter(image);
  const CommPlan plan = build_copy_plan(src, {0, n - 1, 1}, dst, {0, n - 1, 1}, exec);
  execute_copy_plan(plan, src, dst, exec);
  EXPECT_EQ(dst.gather(), image);
}

// --- pipelined executors ----------------------------------------------------

TEST(RedistributePipelined, MisSizedPayloadNamesChannelAndPhase) {
  // A stray message of the wrong size queued ahead of the real one on a
  // remote channel is what the posted receive claims; the executor must
  // reject it with the channel and schedule phase named.
  const i64 p = 4;
  const SpmdExecutor exec(p);
  DistributedArray<double> a(BlockCyclic(p, 3), 200), b(BlockCyclic(p, 8), 320);
  const CommPlan plan = build_copy_plan(a, {0, 199, 2}, b, {10, 307, 3}, exec);
  const i64 q = 0;
  i64 f = 1;  // first phase in which rank 0 sends a nonempty remote channel
  while (f < p && plan.channel(redist_peer_to(q, f, p), q).count == 0) ++f;
  ASSERT_LT(f, p);
  const i64 m = redist_peer_to(q, f, p);
  InProcessTransport tr(p);
  tr.send(q, m, std::vector<std::byte>(3));
  const std::string want = "channel " + std::to_string(q) + "->" + std::to_string(m) +
                           " (phase " + std::to_string(f) + ")";
  try {
    execute_copy_plan_over(plan, a, b, exec, tr);
    FAIL() << "a mis-sized payload must be rejected";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("payload size disagrees"), std::string::npos);
  }
}

TEST(RedistributePipelined, FusedExecutorMatchesSequential) {
  // Strided, shifted sections across misaligned block sizes hit all four
  // channel shapes (contiguous, one-side-contiguous, dual-stride, and
  // both-sides-periodic); the fused single pass must equal the arena-staged
  // local copy.
  const SpmdExecutor exec(4);
  DistributedArray<double> a(BlockCyclic(4, 3), 400);
  a.scatter(iota_image(400));
  for (const auto& [ssec, dsec] :
       {std::pair<RegularSection, RegularSection>{{0, 399, 2}, {10, 607, 3}},
        std::pair<RegularSection, RegularSection>{{1, 397, 4}, {0, 297, 3}}}) {
    DistributedArray<double> b_seq(BlockCyclic(4, 8), 640), b_fused(BlockCyclic(4, 8), 640);
    const CommPlan plan = build_copy_plan(a, ssec, b_seq, dsec, exec);
    detail::run_machine(plan, a, b_seq, exec, {.staged = true});
    detail::run_machine(plan, a, b_fused, exec, {});
    EXPECT_EQ(b_seq.gather(), b_fused.gather());
  }
}

TEST(RedistributePipelined, AliasedCopyFallsBackToSequential) {
  // Copying between overlapping sections of the SAME array must stay
  // correct on every endpoint: the executor detects the alias and stages
  // local channels through the arena, and keeps every unpack behind the
  // last pack. The unit shifts overwrite elements the copy has yet to
  // read, in both directions.
  const i64 n = 900, p = 4;
  const SpmdExecutor exec(p);
  using Arr = DistributedArray<double>;
  for (const auto& [ssec, dsec] :
       {std::pair<RegularSection, RegularSection>{{0, 898, 2}, {1, 899, 2}},
        std::pair<RegularSection, RegularSection>{{0, 898, 1}, {1, 899, 1}},
        std::pair<RegularSection, RegularSection>{{1, 899, 1}, {0, 898, 1}}}) {
    Arr ref_src(BlockCyclic(p, 5), n), ref_dst(BlockCyclic(p, 5), n);
    ref_src.scatter(iota_image(n));
    ref_dst.scatter(iota_image(n));
    const CommPlan plan = build_copy_plan(ref_src, ssec, ref_dst, dsec, exec);
    execute_copy_plan(plan, ref_src, ref_dst, exec);

    const std::pair<const char*, std::function<void(Arr&)>> endpoints[] = {
        {"inproc", [&](Arr& a) { execute_copy_plan(plan, a, a, exec); }},
        {"sim provider",
         [&](Arr& a) {
           sim::SimMachine machine{sim::SimParams{}};
           sim::SimMachine::Scope scope(machine);
           execute_copy_plan(plan, a, a, exec);
         }},
        {"over",
         [&](Arr& a) {
           InProcessTransport tr(p);
           execute_copy_plan_over(plan, a, a, exec, tr);
         }},
        {"rank threads",
         [&](Arr& a) {
           InProcessTransport tr(p);
           std::vector<std::thread> ranks;
           for (i64 r = 0; r < p; ++r)
             ranks.emplace_back([&, r] { execute_copy_plan_rank(plan, a, a, r, tr); });
           for (auto& t : ranks) t.join();
         }},
    };
    for (const auto& [name, run] : endpoints) {
      SCOPED_TRACE(std::string(name) + " stride=" + std::to_string(ssec.stride) +
                   " shift=" + std::to_string(dsec.lower - ssec.lower));
      Arr aliased(BlockCyclic(p, 5), n);
      aliased.scatter(iota_image(n));
      run(aliased);
      EXPECT_EQ(aliased.gather(), ref_dst.gather());
    }
  }
}

TEST(RedistributePipelined, RankExecutorParity) {
  // The per-rank entry point over a shared transport: every rank runs in
  // its own thread, and the image must equal the source's.
  const i64 n = 1100;
  const i64 p = 4;
  const SpmdExecutor exec(p);
  const std::vector<double> image = iota_image(n);
  const RegularSection whole{0, n - 1, 1};
  DistributedArray<double> src(BlockCyclic(p, 3), n);
  src.scatter(image);
  DistributedArray<double> dst(BlockCyclic(p, 64), n);
  const CommPlan plan = build_copy_plan(src, whole, dst, whole, exec);
  InProcessTransport tr(p);
  std::vector<std::thread> ranks;
  for (i64 r = 0; r < p; ++r)
    ranks.emplace_back([&, r] { execute_copy_plan_rank(plan, src, dst, r, tr); });
  for (auto& t : ranks) t.join();
  EXPECT_EQ(tr.in_flight(), 0);
  EXPECT_EQ(dst.gather(), image);
}

}  // namespace
}  // namespace cyclick
