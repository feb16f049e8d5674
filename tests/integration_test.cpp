// Cross-module integration tests: full pipelines combining the core
// algorithm, codegen, runtime, and compiler against sequential reference
// semantics.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "cyclick/baselines/chatterjee.hpp"
#include "cyclick/baselines/hiranandani.hpp"
#include "cyclick/baselines/oracle.hpp"
#include "cyclick/codegen/node_loop.hpp"
#include "cyclick/compiler/interp.hpp"
#include "cyclick/core/lattice_addresser.hpp"
#include "cyclick/runtime/section_ops.hpp"

namespace cyclick {
namespace {

TEST(Integration, RandomizedStatementStormMatchesReference) {
  // Apply a random sequence of fills/copies/transforms to a distributed
  // array and to a plain vector; the global images must stay identical.
  std::mt19937_64 rng(2026);
  const i64 n = 500;
  const BlockCyclic dist(5, 7);
  const SpmdExecutor exec(5);
  DistributedArray<double> arr(dist, n);
  std::vector<double> ref(static_cast<std::size_t>(n), 0.0);

  const auto random_section = [&](i64 limit) {
    std::uniform_int_distribution<i64> lo_d(0, limit - 2);
    const i64 lo = lo_d(rng);
    std::uniform_int_distribution<i64> hi_d(lo + 1, limit - 1);
    const i64 hi = hi_d(rng);
    std::uniform_int_distribution<i64> st_d(1, 11);
    const i64 st = st_d(rng);
    return RegularSection{lo, hi, st};
  };

  for (int step = 0; step < 60; ++step) {
    const int kind = static_cast<int>(rng() % 3);
    if (kind == 0) {
      const RegularSection sec = random_section(n);
      const double v = static_cast<double>(rng() % 1000);
      fill_section(arr, sec, v, exec);
      for (i64 t = 0; t < sec.size(); ++t) ref[static_cast<std::size_t>(sec.element(t))] = v;
    } else if (kind == 1) {
      const RegularSection sec = random_section(n);
      transform_section(arr, sec, [](double x) { return x * 0.5 + 3.0; }, exec);
      for (i64 t = 0; t < sec.size(); ++t) {
        auto& slot = ref[static_cast<std::size_t>(sec.element(t))];
        slot = slot * 0.5 + 3.0;
      }
    } else {
      RegularSection ssec = random_section(n);
      // Destination of matching size starting elsewhere.
      const i64 count = ssec.size();
      std::uniform_int_distribution<i64> lo_d(0, n - count);
      const i64 dlo = lo_d(rng);
      const RegularSection dsec{dlo, dlo + count - 1, 1};
      DistributedArray<double> tmp(dist, n);
      copy_section(arr, ssec, tmp, dsec, exec);
      copy_section(tmp, dsec, arr, dsec, exec);
      std::vector<double> vals(static_cast<std::size_t>(count));
      for (i64 t = 0; t < count; ++t)
        vals[static_cast<std::size_t>(t)] = ref[static_cast<std::size_t>(ssec.element(t))];
      for (i64 t = 0; t < count; ++t)
        ref[static_cast<std::size_t>(dsec.element(t))] = vals[static_cast<std::size_t>(t)];
    }
    ASSERT_EQ(arr.gather(), ref) << "diverged at step " << step;
  }
}

TEST(Integration, BlockScatteredMatrixVectorProduct) {
  // The Dongarra/van de Geijn/Walker motivation: a dense GEMV with the
  // matrix in block-scattered (cyclic(k)) column distribution. Each rank
  // owns whole columns; y = A x computed SPMD and compared to a serial GEMV.
  const i64 rows = 24, cols = 36;
  const BlockCyclic col_dist(4, 3);
  const SpmdExecutor exec(4);

  std::vector<double> a(static_cast<std::size_t>(rows * cols));
  std::vector<double> x(static_cast<std::size_t>(cols));
  std::mt19937_64 rng(7);
  for (auto& v : a) v = static_cast<double>(rng() % 10);
  for (auto& v : x) v = static_cast<double>(rng() % 5);

  // Columns distributed cyclic(3): rank m stores its columns packed.
  std::vector<std::vector<double>> local_cols(4);
  for (i64 m = 0; m < 4; ++m)
    local_cols[static_cast<std::size_t>(m)].resize(
        static_cast<std::size_t>(col_dist.local_size(m, cols) * rows));
  for (i64 j = 0; j < cols; ++j) {
    const i64 m = col_dist.owner(j);
    const i64 lj = col_dist.local_index(j);
    for (i64 i = 0; i < rows; ++i)
      local_cols[static_cast<std::size_t>(m)][static_cast<std::size_t>(lj * rows + i)] =
          a[static_cast<std::size_t>(i * cols + j)];
  }

  // SPMD partial products over owned columns (table-free enumeration of the
  // full column section), then reduction.
  std::vector<std::vector<double>> partial(4, std::vector<double>(static_cast<std::size_t>(rows), 0.0));
  exec.run([&](i64 m) {
    for_each_local_access(col_dist, RegularSection{0, cols - 1, 1}, m, [&](i64 j, i64 lj) {
      for (i64 i = 0; i < rows; ++i)
        partial[static_cast<std::size_t>(m)][static_cast<std::size_t>(i)] +=
            local_cols[static_cast<std::size_t>(m)][static_cast<std::size_t>(lj * rows + i)] *
            x[static_cast<std::size_t>(j)];
    });
  });
  std::vector<double> y(static_cast<std::size_t>(rows), 0.0);
  for (i64 m = 0; m < 4; ++m)
    for (i64 i = 0; i < rows; ++i)
      y[static_cast<std::size_t>(i)] += partial[static_cast<std::size_t>(m)][static_cast<std::size_t>(i)];

  for (i64 i = 0; i < rows; ++i) {
    double want = 0.0;
    for (i64 j = 0; j < cols; ++j)
      want += a[static_cast<std::size_t>(i * cols + j)] * x[static_cast<std::size_t>(j)];
    EXPECT_EQ(y[static_cast<std::size_t>(i)], want) << i;
  }
}

TEST(Integration, DslProgramAgainstRuntimeCalls) {
  // The same computation through the DSL and through direct runtime calls.
  dsl::Machine machine;
  machine.run_source(R"(
processors P(4)
template T(320)
distribute T onto P cyclic(8)
array A(320) align with T(i)
array B(320) align with T(i)
A(0:319) = 1
A(4:300:9) = 100
B(0:32:1) = A(4:292:9) + 1
)");

  const BlockCyclic dist(4, 8);
  const SpmdExecutor exec(4);
  DistributedArray<double> a(dist, 320), b(dist, 320);
  fill_section(a, {0, 319, 1}, 1.0, exec);
  fill_section(a, {4, 300, 9}, 100.0, exec);
  DistributedArray<double> tmp(dist, 320);
  copy_section(a, {4, 292, 9}, tmp, {0, 32, 1}, exec);
  transform_section(tmp, {0, 32, 1}, [](double x) { return x + 1.0; }, exec);
  copy_section(tmp, {0, 32, 1}, b, {0, 32, 1}, exec);

  EXPECT_EQ(machine.global_image("A"), a.gather());
  EXPECT_EQ(machine.global_image("B"), b.gather());
}

TEST(Integration, AllAddressingMethodsAcrossPaperBenchmarkGrid) {
  // The exact parameter grid of Table 1 (p=32; k and s sweeps), verified for
  // correctness (the bench harness verifies again before timing).
  const i64 p = 32;
  for (i64 k : {4, 8, 16, 32, 64, 128, 256, 512}) {
    const BlockCyclic dist(p, k);
    for (const i64 s : {i64{7}, i64{99}, k + 1, p * k - 1, p * k + 1}) {
      for (const i64 m : {i64{0}, p / 2, p - 1}) {
        const AccessPattern lattice = compute_access_pattern(dist, 0, s, m);
        const AccessPattern sorting = chatterjee_access_pattern(dist, 0, s, m);
        ASSERT_EQ(lattice, sorting) << "k=" << k << " s=" << s << " m=" << m;
        if (hiranandani_applicable(dist, s)) {
          ASSERT_EQ(hiranandani_access_pattern(dist, 0, s, m), lattice)
              << "k=" << k << " s=" << s << " m=" << m;
        }
      }
    }
  }
}

TEST(Integration, JacobiLikeIterationConverges) {
  // A 1-D smoothing iteration using shifted-section copies:
  // A(1:n-2) = (A(0:n-3) + A(2:n-1)) / 2, repeated; verify against serial.
  const i64 n = 200;
  const BlockCyclic dist(4, 8);
  const SpmdExecutor exec(4);
  DistributedArray<double> a(dist, n);
  std::vector<double> ref(static_cast<std::size_t>(n), 0.0);
  ref.front() = 100.0;
  ref.back() = 50.0;
  a.scatter(ref);

  for (int iter = 0; iter < 10; ++iter) {
    zip_sections(a, {1, n - 2, 1}, a, {0, n - 3, 1}, a, {2, n - 1, 1},
                 [](double l, double r) { return (l + r) / 2.0; }, exec);
    std::vector<double> next = ref;
    for (i64 i = 1; i < n - 1; ++i)
      next[static_cast<std::size_t>(i)] =
          (ref[static_cast<std::size_t>(i - 1)] + ref[static_cast<std::size_t>(i + 1)]) / 2.0;
    ref = next;
    ASSERT_EQ(a.gather(), ref) << "iteration " << iter;
  }
}

}  // namespace
}  // namespace cyclick
