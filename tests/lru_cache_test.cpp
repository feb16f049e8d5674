// LruCache tests: hits and misses, keep-existing insert, exact LRU eviction
// (differential against a naive recency-list model), stored-null negative
// entries, clear() semantics, and a multi-threaded hammer for the TSan leg.
// Also pins that clear() drops entries and zeroes counters in all four
// library caches built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "cyclick/compiler/bytecode.hpp"
#include "cyclick/core/engine.hpp"
#include "cyclick/runtime/multidim_array.hpp"
#include "cyclick/runtime/plan_cache.hpp"
#include "cyclick/support/lru_cache.hpp"

namespace cyclick {
namespace {

using IntCache = LruCache<int, std::shared_ptr<const int>>;

TEST(LruCache, HitsMissesAndKeepExistingInsert) {
  IntCache cache(8);
  EXPECT_FALSE(cache.find(1).has_value());
  auto a = cache.insert(1, std::make_shared<const int>(10));
  EXPECT_EQ(*a, 10);
  // Keep-existing: a second insert under the same key returns the first
  // value, the canonical-object guarantee racing builders rely on.
  auto b = cache.insert(1, std::make_shared<const int>(99));
  EXPECT_EQ(b.get(), a.get());
  const auto hit = cache.find(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get(), a.get());
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.evictions, 0);
  EXPECT_EQ(st.size, 1u);
  EXPECT_EQ(cache.capacity(), 8u);
  EXPECT_EQ(IntCache(0).capacity(), 1u);  // capacity 0 is clamped to 1
}

TEST(LruCache, EvictsExactLeastRecentlyUsed) {
  IntCache cache(2);
  (void)cache.insert(1, std::make_shared<const int>(1));
  (void)cache.insert(2, std::make_shared<const int>(2));
  const auto kept = cache.find(1);  // refresh 1 so 2 is the LRU victim
  ASSERT_TRUE(kept.has_value());
  bool evicted = false;
  (void)cache.insert(3, std::make_shared<const int>(3), &evicted);
  EXPECT_TRUE(evicted);
  EXPECT_FALSE(cache.find(2).has_value());
  EXPECT_TRUE(cache.find(1).has_value());
  EXPECT_TRUE(cache.find(3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().size, 2u);
  EXPECT_EQ(**kept, 1);  // evictable != destroyed while a holder remains
}

TEST(LruCache, MatchesNaiveRecencyListModel) {
  // Random find/insert streams against a model that keeps keys in a vector
  // ordered most recent first: same hit/miss/eviction stream, same
  // surviving key set, for every capacity from 1 to 8.
  std::mt19937 rng(20260808);
  for (int round = 0; round < 20; ++round) {
    const std::size_t cap = 1 + static_cast<std::size_t>(rng() % 8);
    LruCache<int, int> cache(cap);
    std::vector<std::pair<int, int>> model;  // front = most recent
    i64 hits = 0, misses = 0, evictions = 0;
    for (int op = 0; op < 400; ++op) {
      const int key = static_cast<int>(rng() % 16);
      const auto pos = std::find_if(model.begin(), model.end(),
                                    [key](const auto& e) { return e.first == key; });
      if (rng() % 2 == 0) {
        const auto got = cache.find(key);
        ASSERT_EQ(got.has_value(), pos != model.end()) << "round " << round << " op " << op;
        if (pos == model.end()) {
          ++misses;
        } else {
          ++hits;
          ASSERT_EQ(*got, pos->second);
          std::rotate(model.begin(), pos, pos + 1);
        }
      } else {
        const int value = key * 1000 + op;
        const int stored = cache.insert(key, value);
        if (pos != model.end()) {
          ASSERT_EQ(stored, pos->second) << "keep-existing, round " << round;
          std::rotate(model.begin(), pos, pos + 1);
        } else {
          ASSERT_EQ(stored, value);
          model.insert(model.begin(), {key, value});
          if (model.size() > cap) {
            model.pop_back();
            ++evictions;
          }
        }
      }
      const auto st = cache.stats();
      ASSERT_EQ(st.hits, hits);
      ASSERT_EQ(st.misses, misses);
      ASSERT_EQ(st.evictions, evictions);
      ASSERT_EQ(st.size, model.size());
    }
    for (const auto& [key, value] : model) {
      const auto got = cache.find(key);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, value);
    }
  }
}

TEST(LruCache, StoredNullIsANegativeEntryNotAMiss) {
  // ProgramCache records a declined statement shape as a null program: the
  // cache must report it as present, and a later insert must not replace it.
  IntCache cache(4);
  (void)cache.insert(7, nullptr);
  const auto neg = cache.find(7);
  ASSERT_TRUE(neg.has_value());
  EXPECT_EQ(*neg, nullptr);
  EXPECT_EQ(cache.insert(7, std::make_shared<const int>(1)), nullptr);
  EXPECT_FALSE(cache.find(8).has_value());
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.size, 1u);
}

TEST(LruCache, ClearDropsEntriesAndZeroesCounters) {
  IntCache cache(1);
  (void)cache.find(1);
  (void)cache.insert(1, std::make_shared<const int>(1));
  (void)cache.insert(2, std::make_shared<const int>(2));
  (void)cache.find(2);
  cache.clear();
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 0);
  EXPECT_EQ(st.misses, 0);
  EXPECT_EQ(st.evictions, 0);
  EXPECT_EQ(st.size, 0u);
  EXPECT_FALSE(cache.find(2).has_value());
}

TEST(LruCache, ConcurrentHammerStaysCoherent) {
  // Concurrent find/insert/evict plus stats readers. Correctness here is
  // coherence, not exact hit counts: size within capacity, every returned
  // value intact, and hits + misses equal to the number of finds.
  LruCache<i64, std::shared_ptr<const i64>> cache(128);
  constexpr int kThreads = 8;
  constexpr i64 kOpsPerThread = 4000;
  std::atomic<i64> bad_values{0};
  std::atomic<i64> finds{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &bad_values, &finds, t] {
      std::mt19937_64 rng(static_cast<u64>(t) * 7919 + 17);
      for (i64 op = 0; op < kOpsPerThread; ++op) {
        const i64 key = static_cast<i64>(rng() % 512);  // 4x capacity: evictions happen
        switch (rng() % 4) {
          case 0:
            if (cache.stats().size > 128) bad_values.fetch_add(1);
            break;
          case 1:
          case 2: {
            finds.fetch_add(1);
            const auto hit = cache.find(key);
            if (hit && (*hit == nullptr || **hit != key * 3)) bad_values.fetch_add(1);
            break;
          }
          default:
            (void)cache.insert(key, std::make_shared<const i64>(key * 3));
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(bad_values.load(), 0);
  const auto st = cache.stats();
  EXPECT_LE(st.size, 128u);
  EXPECT_GT(st.evictions, 0);
  EXPECT_EQ(st.hits + st.misses, finds.load());
}

// --- clear() in the four library caches -------------------------------------

TEST(LibraryCaches, ClearDropsEntriesAndZeroesCountersInAllFour) {
  const auto expect_cleared = [](const auto& st, const char* which) {
    EXPECT_EQ(st.hits, 0) << which;
    EXPECT_EQ(st.misses, 0) << which;
    EXPECT_EQ(st.evictions, 0) << which;
    EXPECT_EQ(st.size, 0u) << which;
  };

  AddressEngine engine(1);
  const BlockCyclic dist(4, 8);
  (void)engine.tables(dist, 9);
  (void)engine.tables(dist, 9);
  (void)engine.tables(dist, 10);
  EXPECT_EQ(engine.cache_stats().evictions, 1);
  engine.clear_cache();
  expect_cleared(engine.cache_stats(), "engine tables");

  const SpmdExecutor exec(4);
  DistributedArray<double> a(BlockCyclic(4, 3), 200), b(BlockCyclic(4, 8), 320);
  PlanCache plans(1);
  (void)cached_copy_plan(a, {0, 199, 2}, b, {10, 307, 3}, exec, plans);
  (void)cached_copy_plan(a, {0, 199, 2}, b, {10, 307, 3}, exec, plans);
  (void)cached_copy_plan(a, {0, 99, 1}, b, {0, 99, 1}, exec, plans);
  EXPECT_EQ(plans.stats().evictions, 1);
  plans.clear();
  expect_cleared(plans.stats(), "copy plans");

  std::vector<DimMapping> dims;
  dims.emplace_back(12, AffineAlignment::identity(), BlockCyclic(2, 3));
  dims.emplace_back(12, AffineAlignment::identity(), BlockCyclic(2, 2));
  const MultiDimMapping map{std::move(dims), ProcessorGrid({2, 2})};
  MultiDimArray<double> src(map), dst(map);
  const Region whole{{0, 11, 1}, {0, 11, 1}};
  const Region row{{0, 0, 1}, {0, 11, 1}};
  RegionPlanCache regions(1);
  (void)cached_region_plan(src, whole, dst, whole, exec, false, regions);
  (void)cached_region_plan(src, whole, dst, whole, exec, false, regions);
  (void)cached_region_plan(src, row, dst, row, exec, false, regions);
  EXPECT_EQ(regions.stats().evictions, 1);
  regions.clear();
  expect_cleared(regions.stats(), "region plans");

  dsl::bc::ProgramCache programs(1);
  (void)programs.find("a");
  programs.insert("a", nullptr);
  ASSERT_TRUE(programs.find("a").has_value());
  programs.insert("b", std::make_shared<const dsl::bc::CompiledProgram>());
  EXPECT_EQ(programs.stats().evictions, 1);
  programs.clear();
  expect_cleared(programs.stats(), "programs");
  EXPECT_FALSE(programs.find("b").has_value());
}

}  // namespace
}  // namespace cyclick
