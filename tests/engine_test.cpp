// Tests for the AddressEngine dispatch layer: classification into the
// three access classes, SectionPlan enumeration against the exhaustive
// oracle across every class, the period layout against the Section-6.2
// offset tables, pattern/offset-table parity with the direct Figure-5
// entry points, the proc-independent table cache, and concurrent planning
// on one engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "cyclick/baselines/hiranandani.hpp"
#include "cyclick/baselines/oracle.hpp"
#include "cyclick/core/engine.hpp"
#include "cyclick/core/kernels.hpp"
#include "cyclick/core/lattice_addresser.hpp"

namespace cyclick {
namespace {

std::vector<Access> plan_sequence(const SectionPlan& plan) {
  std::vector<Access> out;
  plan.for_each([&](i64 g, i64 la) { out.push_back({g, la}); });
  return out;
}

TEST(AddressEngine, ClassifyCoversEveryCondition) {
  using C = AccessClass;
  // |s| == 1: contiguous runs, either direction, p == 1 included.
  EXPECT_EQ(AddressEngine::classify(BlockCyclic(4, 8), 1), C::kRuns);
  EXPECT_EQ(AddressEngine::classify(BlockCyclic(4, 8), -1), C::kRuns);
  EXPECT_EQ(AddressEngine::classify(BlockCyclic(1, 8), 1), C::kRuns);
  // p == 1: the local address is the global index, one fixed step.
  EXPECT_EQ(AddressEngine::classify(BlockCyclic(1, 8), 9), C::kFixedStep);
  EXPECT_EQ(AddressEngine::classify(BlockCyclic(1, 1), -3), C::kFixedStep);
  // gcd(|s|, pk) >= k, which covers k == 1: one fixed step.
  EXPECT_EQ(AddressEngine::classify(BlockCyclic(4, 1), 3), C::kFixedStep);
  EXPECT_EQ(AddressEngine::classify(BlockCyclic(4, 8), 16), C::kFixedStep);
  EXPECT_EQ(AddressEngine::classify(BlockCyclic(3, 4), 6), C::kFixedStep);
  // Everything else, the ICS'94 case |s| mod pk < k included: periodic.
  EXPECT_EQ(AddressEngine::classify(BlockCyclic(4, 8), 33), C::kPeriodic);
  EXPECT_EQ(AddressEngine::classify(BlockCyclic(4, 8), 9), C::kPeriodic);
  EXPECT_EQ(AddressEngine::classify(BlockCyclic(4, 8), -9), C::kPeriodic);
  EXPECT_EQ(AddressEngine::classify(BlockCyclic(2, 6), 4), C::kPeriodic);

  EXPECT_STREQ(access_class_name(C::kRuns), "runs");
  EXPECT_STREQ(access_class_name(C::kFixedStep), "fixed-step");
  EXPECT_STREQ(access_class_name(C::kPeriodic), "periodic");
}

TEST(AddressEngine, PlanMatchesOracleAcrossEveryClass) {
  // A deterministic grid chosen to hit all three classes, both directions,
  // negative lower bounds, and empty shares.
  std::set<AccessClass> seen;
  for (i64 p : {1, 2, 4, 5}) {
    for (i64 k : {1, 3, 8}) {
      const BlockCyclic dist(p, k);
      for (i64 s : {1, -1, 2, 7, -9, 15, 16, 33, -33, 48, 64}) {
        for (i64 l : {-37, 0, 5}) {
          const i64 hi = l + 60 * (s > 0 ? s : -s);
          const RegularSection sec = s > 0 ? RegularSection{l, hi, s}
                                           : RegularSection{hi, l, s};
          seen.insert(AddressEngine::classify(dist, s));
          for (i64 m = 0; m < p; ++m) {
            const SectionPlan plan = AddressEngine::global().plan(dist, sec, m);
            const std::vector<Access> want = oracle_local_sequence(dist, sec, m);
            EXPECT_EQ(plan_sequence(plan), want)
                << p << " " << k << " " << s << " " << l << " " << m;
            EXPECT_EQ(plan.empty(), want.empty());
            if (!want.empty()) {
              EXPECT_EQ(plan.first_global(), want.front().global);
              EXPECT_EQ(plan.first_local(), want.front().local);
              EXPECT_EQ(plan.last_global(), want.back().global);
              EXPECT_EQ(plan.last_local(), want.back().local);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u) << "grid must exercise every access class";
}

TEST(AddressEngine, ForEachRunFlattensToAscendingOracle) {
  for (i64 p : {1, 3, 4}) {
    for (i64 k : {1, 4, 8}) {
      const BlockCyclic dist(p, k);
      for (i64 s : {1, -1, 2, 9, 16}) {
        const RegularSection sec = s > 0 ? RegularSection{3, 3 + 50 * s, s}
                                         : RegularSection{3 + 50 * (-s), 3, s};
        const RegularSection asc = sec.ascending();
        for (i64 m = 0; m < p; ++m) {
          const SectionPlan plan = AddressEngine::global().plan(dist, sec, m);
          std::vector<Access> got;
          const i64 n = plan.for_each_run([&](i64 g0, i64 l0, i64 len) {
            for (i64 i = 0; i < len; ++i) got.push_back({g0 + i, l0 + i});
          });
          EXPECT_EQ(n, static_cast<i64>(got.size()));
          EXPECT_EQ(got, oracle_local_sequence(dist, asc, m))
              << p << " " << k << " " << s << " " << m;
        }
      }
    }
  }
}

TEST(AddressEngine, MakePatternMatchesSignedAndHiranandani) {
  for (i64 p : {2, 4, 5}) {
    for (i64 k : {3, 8}) {
      const BlockCyclic dist(p, k);
      for (i64 s : {2, 7, 9, 33, -9, -33, 48}) {
        const RegularSection sec{4, 4 + 200 * s, s};
        for (i64 m = 0; m < p; ++m) {
          const SectionPlan plan = AddressEngine::global().plan(dist, sec, m);
          const AccessPattern got = plan.make_pattern();
          EXPECT_EQ(got, compute_access_pattern_signed(dist, 4, s, m))
              << p << " " << k << " " << s << " " << m;
          if (s > 0 && hiranandani_applicable(dist, s)) {
            EXPECT_EQ(got, hiranandani_access_pattern(dist, 4, s, m));
          }
        }
      }
    }
  }
}

TEST(AddressEngine, PeriodLayoutMatchesFullOffsetTables) {
  // Every cycle of the offset permutation, each rotation of it, and the
  // copy one period on must agree with the Section-6.2 tables step by
  // step. The grid covers one cycle (gcd(|s|, pk) == 1), even cycles
  // (p=4, k=8, s=12: {0,4} {1,5} {2,6} {3,7}) and uneven ones (p=2, k=6,
  // s=4: {0,4} {1,5} {2} {3}).
  struct Case {
    i64 p, k, s;
  };
  for (const Case c : {Case{4, 8, 9}, Case{4, 8, 33}, Case{4, 8, 12}, Case{2, 6, 4},
                       Case{4, 10, 8}, Case{3, 64, 35}}) {
    const BlockCyclic dist(c.p, c.k);
    AddressEngine engine(4);
    const auto t = engine.tables(dist, c.s);
    ASSERT_EQ(t->cls, AccessClass::kPeriodic);
    const OffsetTables full = compute_full_offset_tables(dist, c.s);
    const i64 d = gcd_i64(c.s, dist.row_length());
    std::vector<i64> seen_slots;
    for (i64 q = 0; q < c.k; ++q) {
      SCOPED_TRACE(::testing::Message() << "p=" << c.p << " k=" << c.k << " s=" << c.s
                                        << " q=" << q);
      const auto uq = static_cast<std::size_t>(q);
      // The cycle through q is q's residue class mod gcd(|s|, pk).
      EXPECT_EQ(t->period[uq], (c.k - 1 - q % d) / d + 1);
      seen_slots.push_back(t->slot[uq]);
      const i64 len = t->period[uq];
      const i64* lo = t->local_off.data() + t->slot[uq];
      const i64* go = t->global_off.data() + t->slot[uq];
      i64 r = q;
      for (i64 i = 0; i < len; ++i) {
        EXPECT_EQ(lo[i + 1] - lo[i], full.delta[static_cast<std::size_t>(r)]);
        EXPECT_GT(go[i + 1], go[i]);
        r = full.next_offset[static_cast<std::size_t>(r)];
      }
      EXPECT_EQ(r, q) << "the window closes after one period";
      // The window [slot, slot + len] and the copy one period on both
      // advance by one period's worth.
      const i64 dl = (c.s / d) * c.k;
      const i64 dg = (dist.row_length() / d) * c.s;
      ASSERT_LT(t->slot[uq] + len, static_cast<i64>(t->local_off.size()));
      EXPECT_EQ(lo[len] - lo[0], dl) << "local advance per period";
      EXPECT_EQ(go[len] - go[0], dg) << "global advance per period";
      // Offsets never exceed their block offset (kernel bases stay >= 0).
      EXPECT_LE(lo[0], q);
    }
    std::sort(seen_slots.begin(), seen_slots.end());
    EXPECT_EQ(std::unique(seen_slots.begin(), seen_slots.end()), seen_slots.end());
    EXPECT_EQ(t->local_off.size(), static_cast<std::size_t>(2 * c.k));
  }
}

TEST(AddressEngine, OffsetTablesMatchPerProcConstruction) {
  for (i64 s : {2, 9, 15, 33, 48}) {
    const BlockCyclic dist(4, 8);
    const RegularSection sec{4, 4 + 100 * s, s};
    for (i64 m = 0; m < 4; ++m) {
      const SectionPlan plan = AddressEngine::global().plan(dist, sec, m);
      if (plan.empty()) continue;
      const OffsetTables got = plan.offset_tables();
      const OffsetTables want = compute_offset_tables(dist, sec.lower, sec.stride, m);
      ASSERT_EQ(got.start_offset, want.start_offset) << s << " " << m;
      // The per-proc tables populate only visited offsets; the full tables
      // must agree on exactly those slots.
      i64 q = want.start_offset;
      do {
        EXPECT_EQ(got.delta[static_cast<std::size_t>(q)],
                  want.delta[static_cast<std::size_t>(q)])
            << s << " " << m << " " << q;
        EXPECT_EQ(got.next_offset[static_cast<std::size_t>(q)],
                  want.next_offset[static_cast<std::size_t>(q)])
            << s << " " << m << " " << q;
        q = want.next_offset[static_cast<std::size_t>(q)];
      } while (q != want.start_offset);
    }
  }
}

TEST(AddressEngine, TableCacheSharesAcrossProcsAndStrideSign) {
  AddressEngine engine(8);
  const BlockCyclic dist(4, 8);
  const auto t0 = engine.tables(dist, 9);
  const auto t1 = engine.tables(dist, 9);
  EXPECT_EQ(t0.get(), t1.get()) << "same (p, k, s) must share one table object";
  const auto t2 = engine.tables(dist, -9);
  EXPECT_EQ(t0.get(), t2.get()) << "tables are keyed by |s|";
  const auto t3 = engine.tables(dist, 10);
  EXPECT_NE(t0.get(), t3.get());
  const auto st = engine.cache_stats();
  EXPECT_EQ(st.misses, 2);
  EXPECT_EQ(st.hits, 2);
  EXPECT_EQ(st.size, 2u);

  // p ranks planning the same section pay one table construction.
  AddressEngine per_rank(8);
  for (i64 m = 0; m < 4; ++m) (void)per_rank.plan(dist, {4, 300, 9}, m);
  EXPECT_EQ(per_rank.cache_stats().misses, 1);
  EXPECT_EQ(per_rank.cache_stats().hits, 3);
}

TEST(AddressEngine, TableCacheEvictsLeastRecentlyUsed) {
  AddressEngine engine(2);
  const BlockCyclic dist(4, 8);
  (void)engine.tables(dist, 9);
  (void)engine.tables(dist, 10);
  (void)engine.tables(dist, 9);   // refresh 9
  (void)engine.tables(dist, 11);  // evicts 10
  (void)engine.tables(dist, 9);   // still cached
  const auto st = engine.cache_stats();
  EXPECT_EQ(st.evictions, 1);
  EXPECT_EQ(st.size, 2u);
  EXPECT_EQ(st.hits, 2);
  EXPECT_EQ(st.misses, 3);
}

TEST(AddressEngine, RandomizedPlanPropertyGrid) {
  // Randomized (p, k, l, u, s) property check: SectionPlan::for_each must
  // reproduce the oracle byte for byte, and make_pattern must match
  // compute_access_pattern_signed, for every access class the draw hits.
  std::mt19937 rng(20250806);
  std::uniform_int_distribution<i64> pd(1, 8), kd(1, 12), sd(-40, 40), ld(-50, 50),
      span(0, 150);
  std::set<AccessClass> seen;
  for (int iter = 0; iter < 300; ++iter) {
    const i64 p = pd(rng), k = kd(rng);
    i64 s = sd(rng);
    if (s == 0) s = 41;
    const i64 l = ld(rng);
    const i64 hi = l + span(rng);
    const RegularSection sec = s > 0 ? RegularSection{l, hi, s} : RegularSection{hi, l, s};
    const BlockCyclic dist(p, k);
    seen.insert(AddressEngine::classify(dist, s));
    for (i64 m = 0; m < p; ++m) {
      const SectionPlan plan = AddressEngine::global().plan(dist, sec, m);
      ASSERT_EQ(plan_sequence(plan), oracle_local_sequence(dist, sec, m))
          << p << " " << k << " " << s << " " << l << " " << hi << " " << m;
      if (!sec.empty()) {
        ASSERT_EQ(plan.make_pattern(), compute_access_pattern_signed(dist, sec.lower, s, m))
            << p << " " << k << " " << s << " " << l << " " << m;
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u) << "random draw should hit every access class";
}

TEST(AddressEngine, ConcurrentPlansAndKernelsMatchSingleThread) {
  // Several threads plan and compile every start offset of one periodic
  // (p, k, |s|) problem on a fresh engine at once: they race on the first
  // table build and then share its immutable period. Each thread's kernel
  // replay and plan walk must equal the single-thread oracle.
  const BlockCyclic dist(2, 6);
  const i64 s = 4;  // cycles {0,4} {1,5} {2} {3}
  std::vector<RegularSection> secs;
  for (i64 m = 0; m < dist.procs(); ++m)
    for (i64 q = 0; q < dist.block_size(); ++q) {
      const i64 lower = m * dist.block_size() + q;
      secs.push_back({lower, lower + 97 * s, s});
      secs.push_back({lower + 97 * s, lower, -s});
    }
  std::vector<std::vector<i64>> want;  // ascending locals per (section, proc)
  for (const RegularSection& sec : secs)
    for (i64 m = 0; m < dist.procs(); ++m) {
      want.emplace_back();
      for (const Access& a : oracle_local_sequence(dist, sec.ascending(), m))
        want.back().push_back(a.local);
    }

  AddressEngine engine(4);
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (int rep = 0; rep < 8; ++rep) {
        std::size_t w = 0;
        for (const RegularSection& sec : secs) {
          for (i64 m = 0; m < dist.procs(); ++m, ++w) {
            const SectionPlan plan = engine.plan(dist, sec, m);
            const KernelPlan kp = compile_kernel(plan);
            std::vector<i64> replay;
            kernel_for_each_local(kp, [&](i64 la) { replay.push_back(la); });
            std::vector<i64> walk;
            plan.for_each([&](i64, i64 la) { walk.push_back(la); });
            if (sec.stride < 0) std::reverse(walk.begin(), walk.end());
            if (replay != want[w] || walk != want[w])
              ++mismatches[static_cast<std::size_t>(th)];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int th = 0; th < kThreads; ++th)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(th)], 0) << "thread " << th;
  EXPECT_EQ(engine.cache_stats().size, 1u) << "one (p, k, |s|) shares one table";
}

}  // namespace
}  // namespace cyclick
