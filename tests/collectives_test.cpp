// Tests for the Transport-based collectives (threaded executor required),
// differential against the linear reference implementations below.
#include <gtest/gtest.h>

#include <numeric>

#include "cyclick/runtime/collectives.hpp"
#include "cyclick/runtime/spmd.hpp"

namespace cyclick {
namespace {

// Linear reference implementations (the pre-tree versions, kept verbatim
// as differential oracles): root-sends-to-all fan-out, rank-order gather,
// reduce-at-rank-0 with a linear left fold. O(p) rounds at the root.
namespace linear {

template <typename T>
void bcast(Transport& tr, i64 rank, i64 root, std::vector<T>& values) {
  const i64 p = tr.ranks();
  CYCLICK_REQUIRE(root >= 0 && root < p, "broadcast root out of range");
  if (p > 1) detail::require_collective_schedule(tr, "linear::bcast");
  if (rank == root) {
    for (i64 r = 0; r < p; ++r)
      if (r != root) send_values<T>(tr, root, r, std::span<const T>(values));
    return;
  }
  values = recv_values<T>(tr, rank, root);
}

template <typename T>
std::vector<T> gather(Transport& tr, i64 rank, i64 root, std::span<const T> mine) {
  const i64 p = tr.ranks();
  CYCLICK_REQUIRE(root >= 0 && root < p, "gather root out of range");
  if (p > 1) detail::require_collective_schedule(tr, "linear::gather");
  if (rank != root) {
    send_values<T>(tr, rank, root, mine);
    return {};
  }
  std::vector<T> all;
  for (i64 r = 0; r < p; ++r) {
    if (r == root) {
      all.insert(all.end(), mine.begin(), mine.end());
    } else {
      const std::vector<T> part = recv_values<T>(tr, root, r);
      all.insert(all.end(), part.begin(), part.end());
    }
  }
  return all;
}

/// Linear left fold at rank 0 (association order: rank 0, 1, 2, ...).
template <typename T, typename Op>
void allreduce(Transport& tr, i64 rank, std::vector<T>& values, Op&& op) {
  const i64 p = tr.ranks();
  if (p == 1) return;
  detail::require_collective_schedule(tr, "linear::allreduce");
  if (rank == 0) {
    for (i64 r = 1; r < p; ++r) {
      const std::vector<T> part = recv_values<T>(tr, 0, r);
      CYCLICK_REQUIRE(part.size() == values.size(), "allreduce buffer size mismatch");
      for (std::size_t i = 0; i < values.size(); ++i) values[i] = op(values[i], part[i]);
    }
    for (i64 r = 1; r < p; ++r) send_values<T>(tr, 0, r, std::span<const T>(values));
    return;
  }
  send_values<T>(tr, rank, 0, std::span<const T>(values));
  values = recv_values<T>(tr, rank, 0);
}

/// Unrotated all-to-all: post every send, then receive in rank order.
template <typename T>
std::vector<std::vector<T>> alltoallv(Transport& tr, i64 rank,
                                      const std::vector<std::vector<T>>& outgoing) {
  const i64 p = tr.ranks();
  CYCLICK_REQUIRE(static_cast<i64>(outgoing.size()) == p, "alltoallv arity mismatch");
  if (p > 1) detail::require_collective_schedule(tr, "linear::alltoallv");
  for (i64 r = 0; r < p; ++r)
    if (r != rank)
      send_values<T>(tr, rank, r, std::span<const T>(outgoing[static_cast<std::size_t>(r)]));
  std::vector<std::vector<T>> incoming(static_cast<std::size_t>(p));
  incoming[static_cast<std::size_t>(rank)] = outgoing[static_cast<std::size_t>(rank)];
  for (i64 r = 0; r < p; ++r)
    if (r != rank) incoming[static_cast<std::size_t>(r)] = recv_values<T>(tr, rank, r);
  return incoming;
}

}  // namespace linear

SpmdExecutor threaded(i64 p) { return SpmdExecutor(p, SpmdExecutor::Mode::kThreads); }

TEST(Collectives, BroadcastFromEveryRoot) {
  const i64 p = 6;
  for (i64 root = 0; root < p; ++root) {
    InProcessTransport tr(p);
    std::vector<std::vector<double>> got(static_cast<std::size_t>(p));
    threaded(p).run([&](i64 rank) {
      std::vector<double> buf(4, 0.0);
      if (rank == root) buf = {1.5, 2.5, 3.5, static_cast<double>(root)};
      bcast(tr, rank, root, buf);
      got[static_cast<std::size_t>(rank)] = buf;
    });
    for (i64 r = 0; r < p; ++r)
      EXPECT_EQ(got[static_cast<std::size_t>(r)],
                (std::vector<double>{1.5, 2.5, 3.5, static_cast<double>(root)}))
          << "root=" << root << " rank=" << r;
    EXPECT_EQ(tr.in_flight(), 0);
  }
}

TEST(Collectives, GatherConcatenatesInRankOrder) {
  const i64 p = 5;
  InProcessTransport tr(p);
  std::vector<int> result;
  threaded(p).run([&](i64 rank) {
    // Rank r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(rank + 1), static_cast<int>(rank));
    auto all = gather<int>(tr, rank, /*root=*/2, mine);
    if (rank == 2) result = std::move(all);
  });
  std::vector<int> want;
  for (int r = 0; r < 5; ++r) want.insert(want.end(), static_cast<std::size_t>(r + 1), r);
  EXPECT_EQ(result, want);
}

TEST(Collectives, AllreduceSum) {
  const i64 p = 8;
  InProcessTransport tr(p);
  std::vector<std::vector<i64>> got(static_cast<std::size_t>(p));
  threaded(p).run([&](i64 rank) {
    std::vector<i64> buf{rank, 10 * rank, 1};
    allreduce(tr, rank, buf, [](i64 a, i64 b) { return a + b; });
    got[static_cast<std::size_t>(rank)] = buf;
  });
  const i64 ranksum = 28;  // 0+..+7
  for (i64 r = 0; r < p; ++r)
    EXPECT_EQ(got[static_cast<std::size_t>(r)], (std::vector<i64>{ranksum, 10 * ranksum, 8}))
        << r;
}

TEST(Collectives, AllreduceMaxDeterministic) {
  const i64 p = 4;
  InProcessTransport tr(p);
  std::vector<double> seen(static_cast<std::size_t>(p));
  threaded(p).run([&](i64 rank) {
    std::vector<double> buf{static_cast<double>((rank * 7) % 5)};
    allreduce(tr, rank, buf, [](double a, double b) { return a > b ? a : b; });
    seen[static_cast<std::size_t>(rank)] = buf[0];
  });
  for (const double v : seen) EXPECT_EQ(v, 4.0);  // max of {0,2,4,1}
}

TEST(Collectives, AlltoallvExchangesEveryPair) {
  const i64 p = 5;
  InProcessTransport tr(p);
  std::vector<std::vector<std::vector<i64>>> results(static_cast<std::size_t>(p));
  threaded(p).run([&](i64 rank) {
    std::vector<std::vector<i64>> outgoing(static_cast<std::size_t>(p));
    for (i64 r = 0; r < p; ++r)
      outgoing[static_cast<std::size_t>(r)] = {100 * rank + r};  // tagged payload
    results[static_cast<std::size_t>(rank)] = alltoallv(tr, rank, outgoing);
  });
  for (i64 me = 0; me < p; ++me)
    for (i64 from = 0; from < p; ++from)
      EXPECT_EQ(results[static_cast<std::size_t>(me)][static_cast<std::size_t>(from)],
                (std::vector<i64>{100 * from + me}))
          << "me=" << me << " from=" << from;
  EXPECT_EQ(tr.in_flight(), 0);
}

TEST(Collectives, AlltoallvEmptyPayloads) {
  const i64 p = 3;
  InProcessTransport tr(p);
  threaded(p).run([&](i64 rank) {
    std::vector<std::vector<double>> outgoing(static_cast<std::size_t>(p));
    const auto incoming = alltoallv(tr, rank, outgoing);
    for (const auto& v : incoming) EXPECT_TRUE(v.empty());
  });
}

TEST(Collectives, SingleRankIsNoop) {
  InProcessTransport tr(1);
  threaded(1).run([&](i64 rank) {
    std::vector<int> buf{42};
    bcast(tr, rank, 0, buf);
    allreduce(tr, rank, buf, [](int a, int b) { return a + b; });
    EXPECT_EQ(buf, (std::vector<int>{42}));
    EXPECT_EQ(gather<int>(tr, rank, 0, buf), (std::vector<int>{42}));
  });
}

// --- Tree vs linear differential tests -------------------------------------
// The binomial-tree collectives must agree with the pre-tree linear
// implementations (kept in namespace linear) on exact-arithmetic payloads.
// p = 7 keeps the tree ragged (non-power-of-two worlds lose out-of-range
// children), which is where index arithmetic goes wrong first.

TEST(Collectives, TreeBcastMatchesLinearEveryRootRaggedWorld) {
  const i64 p = 7;
  for (i64 root = 0; root < p; ++root) {
    std::vector<std::vector<i64>> tree_got(static_cast<std::size_t>(p));
    std::vector<std::vector<i64>> lin_got(static_cast<std::size_t>(p));
    {
      InProcessTransport tr(p);
      threaded(p).run([&](i64 rank) {
        std::vector<i64> buf{rank == root ? 7 * root + 1 : -1, rank == root ? root : -1};
        bcast(tr, rank, root, buf);
        tree_got[static_cast<std::size_t>(rank)] = buf;
      });
      EXPECT_EQ(tr.in_flight(), 0);
    }
    {
      InProcessTransport tr(p);
      threaded(p).run([&](i64 rank) {
        std::vector<i64> buf{rank == root ? 7 * root + 1 : -1, rank == root ? root : -1};
        linear::bcast(tr, rank, root, buf);
        lin_got[static_cast<std::size_t>(rank)] = buf;
      });
    }
    EXPECT_EQ(tree_got, lin_got) << "root=" << root;
  }
}

TEST(Collectives, TreeGatherMatchesLinearEveryRootVariableSizes) {
  const i64 p = 7;
  for (i64 root = 0; root < p; ++root) {
    std::vector<int> tree_all, lin_all;
    {
      InProcessTransport tr(p);
      threaded(p).run([&](i64 rank) {
        // Rank r contributes (r * 3) % 5 elements — including empty ones.
        std::vector<int> mine(static_cast<std::size_t>((rank * 3) % 5),
                              static_cast<int>(100 + rank));
        auto all = gather<int>(tr, rank, root, mine);
        if (rank == root) tree_all = std::move(all);
      });
      EXPECT_EQ(tr.in_flight(), 0);
    }
    {
      InProcessTransport tr(p);
      threaded(p).run([&](i64 rank) {
        std::vector<int> mine(static_cast<std::size_t>((rank * 3) % 5),
                              static_cast<int>(100 + rank));
        auto all = linear::gather<int>(tr, rank, root, mine);
        if (rank == root) lin_all = std::move(all);
      });
    }
    EXPECT_EQ(tree_all, lin_all) << "root=" << root;
  }
}

TEST(Collectives, TreeAllreduceMatchesLinearOnExactPayloads) {
  // Integer sums are associative, so the tree's fold order and the linear
  // left fold must agree bit-for-bit, power-of-two world or not.
  for (const i64 p : {2, 5, 7, 8}) {
    std::vector<std::vector<i64>> tree_got(static_cast<std::size_t>(p));
    std::vector<std::vector<i64>> lin_got(static_cast<std::size_t>(p));
    {
      InProcessTransport tr(p);
      threaded(p).run([&](i64 rank) {
        std::vector<i64> buf{rank + 1, rank * rank, 1};
        allreduce(tr, rank, buf, [](i64 a, i64 b) { return a + b; });
        tree_got[static_cast<std::size_t>(rank)] = buf;
      });
    }
    {
      InProcessTransport tr(p);
      threaded(p).run([&](i64 rank) {
        std::vector<i64> buf{rank + 1, rank * rank, 1};
        linear::allreduce(tr, rank, buf, [](i64 a, i64 b) { return a + b; });
        lin_got[static_cast<std::size_t>(rank)] = buf;
      });
    }
    EXPECT_EQ(tree_got, lin_got) << "p=" << p;
  }
}

TEST(Collectives, RotatedAlltoallvMatchesLinear) {
  const i64 p = 7;
  std::vector<std::vector<std::vector<i64>>> rot(static_cast<std::size_t>(p));
  std::vector<std::vector<std::vector<i64>>> lin(static_cast<std::size_t>(p));
  const auto payload = [p](i64 from, i64 to) {
    return std::vector<i64>(static_cast<std::size_t>((from + to) % 3 + 1), from * p + to);
  };
  {
    InProcessTransport tr(p);
    threaded(p).run([&](i64 rank) {
      std::vector<std::vector<i64>> outgoing(static_cast<std::size_t>(p));
      for (i64 r = 0; r < p; ++r) outgoing[static_cast<std::size_t>(r)] = payload(rank, r);
      rot[static_cast<std::size_t>(rank)] = alltoallv(tr, rank, outgoing);
    });
    EXPECT_EQ(tr.in_flight(), 0);
  }
  {
    InProcessTransport tr(p);
    threaded(p).run([&](i64 rank) {
      std::vector<std::vector<i64>> outgoing(static_cast<std::size_t>(p));
      for (i64 r = 0; r < p; ++r) outgoing[static_cast<std::size_t>(r)] = payload(rank, r);
      lin[static_cast<std::size_t>(rank)] = linear::alltoallv(tr, rank, outgoing);
    });
  }
  EXPECT_EQ(rot, lin);
}

// --- Deadlock guard ---------------------------------------------------------
// Under the sequential schedule a blocking collective's matching sends can
// never be posted; every entry point must throw the named error instead of
// hanging the test suite.

TEST(Collectives, SequentialScheduleThrowsInsteadOfDeadlocking) {
  const i64 p = 3;
  const SpmdExecutor seq(p, SpmdExecutor::Mode::kSequential);
  InProcessTransport tr(p);

  EXPECT_THROW(seq.run([&](i64 rank) {
                 std::vector<int> buf{1};
                 bcast(tr, rank, 0, buf);
               }),
               CollectiveDeadlockError);
  EXPECT_THROW(seq.run([&](i64 rank) {
                 const std::vector<int> mine{static_cast<int>(rank)};
                 (void)gather<int>(tr, rank, 0, mine);
               }),
               CollectiveDeadlockError);
  EXPECT_THROW(seq.run([&](i64 rank) {
                 std::vector<int> buf{1};
                 allreduce(tr, rank, buf, [](int a, int b) { return a + b; });
               }),
               CollectiveDeadlockError);
  EXPECT_THROW(seq.run([&](i64 rank) {
                 const std::vector<std::vector<int>> outgoing(static_cast<std::size_t>(p));
                 (void)alltoallv(tr, rank, outgoing);
               }),
               CollectiveDeadlockError);
  // The linear references refuse the same schedules.
  EXPECT_THROW(seq.run([&](i64 rank) {
                 std::vector<int> buf{1};
                 linear::bcast(tr, rank, 0, buf);
               }),
               CollectiveDeadlockError);
  EXPECT_EQ(tr.in_flight(), 0);  // the guard fires before any send
}

TEST(Collectives, SingleRankSequentialIsStillFine) {
  // p == 1 has no blocking receives, so even the sequential schedule (and
  // the threaded executor's 1-rank sequential fallback) must pass.
  const SpmdExecutor seq(1, SpmdExecutor::Mode::kSequential);
  InProcessTransport tr(1);
  seq.run([&](i64 rank) {
    std::vector<int> buf{9};
    bcast(tr, rank, 0, buf);
    allreduce(tr, rank, buf, [](int a, int b) { return a * b; });
    EXPECT_EQ(gather<int>(tr, rank, 0, buf), (std::vector<int>{9}));
  });
}

}  // namespace
}  // namespace cyclick
