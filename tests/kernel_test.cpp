// Differential tests for the kernel layer: every access class (runs,
// fixed-step, periodic) and every way into it, across element sizes
// 1/4/8/12/16, misaligned (element-offset) base pointers, short sections
// (fewer elements than one period), period tails, multi-cycle periods
// replayed from every rotation, and negative strides. The oracle is the
// SectionPlan's own per-element walk.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cyclick/core/engine.hpp"
#include "cyclick/core/kernels.hpp"

namespace cyclick {
namespace {

struct Wide {
  std::uint64_t a, b;
  friend bool operator==(const Wide&, const Wide&) = default;
};
static_assert(sizeof(Wide) == 16);

// An element size that is not a power of two.
struct Triple {
  std::uint32_t a, b, c;
  friend bool operator==(const Triple&, const Triple&) = default;
};
static_assert(sizeof(Triple) == 12);

template <typename T>
T value_at(i64 i) {
  if constexpr (std::is_same_v<T, Wide>) {
    return Wide{static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(i) * 3u + 1u};
  } else if constexpr (std::is_same_v<T, Triple>) {
    const auto u = static_cast<std::uint32_t>(i);
    return Triple{u, u * 5u + 2u, ~u};
  } else {
    return static_cast<T>(static_cast<std::uint64_t>(i));
  }
}

/// Ascending local addresses the kernel must replay: the plan's traversal
/// order, reversed for descending sections.
std::vector<i64> ascending_locals(const SectionPlan& plan, i64 stride) {
  std::vector<i64> out;
  plan.for_each([&](i64, i64 la) { out.push_back(la); });
  if (stride < 0) std::reverse(out.begin(), out.end());
  return out;
}

/// Run every typed kernel entry point against the oracle address list with
/// the element base shifted by `shift` whole elements (bases off the
/// allocation start, without ever breaking element alignment).
template <typename T>
void check_typed(const KernelPlan& kp, const std::vector<i64>& locals, i64 shift) {
  const i64 high = locals.empty() ? 0 : locals.back();
  const auto len = static_cast<std::size_t>(high + 1 + shift);
  const auto n = locals.size();

  std::vector<T> backing(len);
  for (std::size_t i = 0; i < len; ++i) backing[i] = value_at<T>(static_cast<i64>(i));
  T* base = backing.data() + shift;

  // gather: densified elements in ascending address order.
  std::vector<T> got(n), want(n);
  for (std::size_t i = 0; i < n; ++i)
    want[i] = base[static_cast<std::size_t>(locals[i])];
  ASSERT_EQ(kernel_gather(kp, base, got.data()), static_cast<i64>(n));
  EXPECT_EQ(got, want);

  // scatter: the mirror writes land exactly on the oracle addresses.
  std::vector<T> in(n);
  for (std::size_t i = 0; i < n; ++i) in[i] = value_at<T>(static_cast<i64>(i) + 1'000'000);
  std::vector<T> scattered = backing, expect = backing;
  ASSERT_EQ(kernel_scatter(kp, scattered.data() + shift, in.data()), static_cast<i64>(n));
  for (std::size_t i = 0; i < n; ++i)
    expect[static_cast<std::size_t>(locals[i] + shift)] = in[i];
  EXPECT_EQ(scattered, expect);

  // fill + copy_same touch exactly the oracle addresses.
  std::vector<T> filled = backing;
  expect = backing;
  const T v = value_at<T>(42);
  ASSERT_EQ(kernel_fill(kp, filled.data() + shift, v), static_cast<i64>(n));
  for (const i64 la : locals) expect[static_cast<std::size_t>(la + shift)] = v;
  EXPECT_EQ(filled, expect);

  std::vector<T> copied(len, value_at<T>(7));
  expect = copied;
  ASSERT_EQ(kernel_copy_same(kp, base, copied.data() + shift), static_cast<i64>(n));
  for (const i64 la : locals) expect[static_cast<std::size_t>(la + shift)] = base[static_cast<std::size_t>(la)];
  EXPECT_EQ(copied, expect);
}

/// The numeric-only dot kernel, checked in the same ascending order the
/// kernel accumulates in (bitwise-reproducible for these integer-valued
/// doubles).
void check_dot(const KernelPlan& kp, const std::vector<i64>& locals) {
  const i64 high = locals.empty() ? 0 : locals.back();
  const auto len = static_cast<std::size_t>(high + 1);
  std::vector<double> a(len), b(len);
  for (std::size_t i = 0; i < len; ++i) {
    a[i] = static_cast<double>(i % 97);
    b[i] = static_cast<double>(i % 31) - 13.0;
  }
  double want = 0.0;
  for (const i64 la : locals) {
    const auto i = static_cast<std::size_t>(la);
    want += a[i] * b[i];
  }
  EXPECT_EQ(kernel_dot(kp, a.data(), b.data()), want);
}

struct Shape {
  i64 p, k, s;
};

// Every access class, both directions where the class admits them.
const Shape kShapes[] = {
    {1, 8, 1},                  // runs, p == 1
    {8, 4, 1},    {8, 4, -1},   // runs
    {1, 64, 3},   {1, 64, -3},  // fixed-step, p == 1
    {4, 1, 3},                  // fixed-step, k == 1
    {4, 8, 16},                 // fixed-step, gcd(|s|, pk) >= k
    {4, 8, 33},   {4, 8, -33},  // periodic, |s| mod pk < k (the ICS'94 case)
    {4, 8, 13},   {4, 8, 9},    // periodic, one cycle
    {2, 6, 4},    {2, 6, -4},   // periodic, cycles {0,4} {1,5} {2} {3}
    {4, 8, 12},   {4, 8, -12},  // periodic, cycles {0,4} {1,5} {2,6} {3,7}
    {4, 10, 8},   {4, 10, -8},  // periodic, cycles {0,8} {1,9} {2} ... {7}
};

TEST(Kernels, DifferentialGridAgainstPlanWalk) {
  // Counts cover empty, shorter than one period, period tails, and many
  // periods; lower bounds (and the multi-cycle rows) start the replay on
  // different rotations of a cycle.
  for (const Shape& sh : kShapes) {
    const BlockCyclic dist(sh.p, sh.k);
    for (const i64 count : {0, 2, 7, 40, 203}) {
      for (const i64 lower : {0, 5, -37}) {
        const i64 span = (count - 1) * sh.s;
        const RegularSection sec = sh.s > 0
                                       ? RegularSection{lower, lower + span, sh.s}
                                       : RegularSection{lower + span, lower, sh.s};
        if (count == 0) continue;
        for (i64 m = 0; m < sh.p; ++m) {
          SCOPED_TRACE(::testing::Message()
                       << "p=" << sh.p << " k=" << sh.k << " s=" << sh.s << " count="
                       << count << " lower=" << lower << " m=" << m);
          const SectionPlan plan = AddressEngine::global().plan(dist, sec, m);
          const KernelPlan kp = compile_kernel(plan);
          EXPECT_EQ(kp.bulk(), !plan.empty());
          const std::vector<i64> locals = ascending_locals(plan, sh.s);
          ASSERT_EQ(kp.count(), static_cast<i64>(locals.size()));
          if (!kp.bulk()) continue;
          EXPECT_EQ(kp.cls(), AddressEngine::classify(dist, sh.s));

          // Address replay matches the oracle exactly.
          std::vector<i64> replay;
          kernel_for_each_local(kp, [&](i64 la) { replay.push_back(la); });
          ASSERT_EQ(replay, locals);

          // Typed buffer kernels need in-bounds (nonnegative) local
          // addresses, the contract every runtime consumer REQUIREs; the
          // negative-lower rows still exercise the address replay above.
          if (locals.front() < 0) continue;
          // The periodic replay indexes from local + base(): an in-bounds
          // pointer whenever the plan's addresses are.
          if (kp.cls() == AccessClass::kPeriodic) {
            EXPECT_GE(kp.base(), 0);
          }
          for (const i64 shift : {0, 1, 3}) {
            check_typed<std::uint8_t>(kp, locals, shift);
            check_typed<std::uint32_t>(kp, locals, shift);
            check_typed<double>(kp, locals, shift);
            check_typed<Triple>(kp, locals, shift);
            check_typed<Wide>(kp, locals, shift);
          }
          check_dot(kp, locals);
        }
      }
    }
  }
}

TEST(Kernels, EmptyPlanCompilesToNothing) {
  const BlockCyclic dist(4, 8);
  // Processor 3 owns nothing of a one-element section on processor 0.
  const SectionPlan plan = AddressEngine::global().plan(dist, {0, 0, 1}, 3);
  ASSERT_TRUE(plan.empty());
  const KernelPlan kp = compile_kernel(plan);
  EXPECT_EQ(kp.cls(), AccessClass::kRuns);
  EXPECT_FALSE(kp.bulk());
  EXPECT_EQ(kp.count(), 0);
  EXPECT_EQ(kernel_for_each_local(kp, [](i64) { FAIL(); }), 0);
}

TEST(Kernels, EveryRotationOfEveryCycle) {
  // Start the section on every block offset of every processor, so each
  // cycle of the offset permutation is replayed from each of its rotations.
  for (const Shape& sh : {Shape{2, 6, 4}, Shape{4, 8, 12}, Shape{4, 10, 8}, Shape{4, 8, 9}}) {
    const BlockCyclic dist(sh.p, sh.k);
    for (i64 m = 0; m < sh.p; ++m) {
      for (i64 q = 0; q < sh.k; ++q) {
        const i64 lower = m * sh.k + q;
        for (const i64 count : {1, 3, 50}) {
          const RegularSection sec{lower, lower + (count - 1) * sh.s, sh.s};
          const SectionPlan plan = AddressEngine::global().plan(dist, sec, m);
          const KernelPlan kp = compile_kernel(plan);
          std::vector<i64> replay;
          kernel_for_each_local(kp, [&](i64 la) { replay.push_back(la); });
          EXPECT_EQ(replay, ascending_locals(plan, sh.s))
              << "p=" << sh.p << " k=" << sh.k << " s=" << sh.s << " m=" << m << " q=" << q
              << " count=" << count;
        }
      }
    }
  }
}

TEST(Kernels, FreeOffsetAndStridedPrimitivesMatchNaive) {
  // The comm-plan channel primitives, checked against their scalar spec
  // for an awkward period / tail combination.
  const std::vector<i64> off = {0, 2, 5};
  const i64 period = 3, advance = 9, count = 11;
  std::vector<double> base(128);
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = static_cast<double>(i) * 0.5;

  std::vector<double> got(static_cast<std::size_t>(count)), want(static_cast<std::size_t>(count));
  for (i64 i = 0; i < count; ++i)
    want[static_cast<std::size_t>(i)] =
        base[static_cast<std::size_t>((i / period) * advance + off[static_cast<std::size_t>(i % period)])];
  kernel_gather_offsets(base.data(), off.data(), period, advance, count, got.data());
  EXPECT_EQ(got, want);

  std::vector<double> scat = base, expect = base;
  kernel_scatter_offsets(scat.data(), off.data(), period, advance, count, want.data());
  for (i64 i = 0; i < count; ++i)
    expect[static_cast<std::size_t>((i / period) * advance + off[static_cast<std::size_t>(i % period)])] =
        want[static_cast<std::size_t>(i)];
  EXPECT_EQ(scat, expect);

  std::vector<double> sgot(static_cast<std::size_t>(count));
  kernel_gather_strided(base.data() + 1, 7, count, sgot.data());
  for (i64 i = 0; i < count; ++i)
    EXPECT_EQ(sgot[static_cast<std::size_t>(i)], base[static_cast<std::size_t>(1 + i * 7)]);
}

}  // namespace
}  // namespace cyclick
