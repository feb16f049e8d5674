// Differential fuzzing of the DSL end to end: generate random 1-D programs
// (fills, strided copies, arithmetic, forall, where, reductions over
// expressions) and random 2-D programs (region fills, copies, shifted
// stencils, array and scalar arithmetic on processor grids), execute them
// through lexer->parser->machine under BOTH execution tiers, and require
// (a) each tier matches a simple reference simulator driven by the same
// random choices and (b) the two tiers agree byte for byte — the bytecode
// tier's lane passes (its fused stencil average included) must not change a
// single bit relative to the tree-walking interpreter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cyclick/compiler/interp.hpp"

namespace cyclick::dsl {
namespace {

/// A regular section lo:hi:st with a positive stride.
struct Sec {
  i64 lo, hi, st;
  [[nodiscard]] i64 size() const { return (hi - lo) / st + 1; }
  [[nodiscard]] i64 at(i64 t) const { return lo + t * st; }
  [[nodiscard]] std::string triplet() const {
    std::ostringstream ss;
    ss << lo << ':' << hi << ':' << st;
    return ss.str();
  }
  [[nodiscard]] std::string str() const { return '(' + triplet() + ')'; }
};

struct RefMachine {
  std::vector<double> a, b;
  explicit RefMachine(i64 n) : a(static_cast<std::size_t>(n), 0.0), b(a) {}
};

class ProgramFuzzer {
 public:
  ProgramFuzzer(u64 seed, i64 n) : rng_(seed), n_(n), ref_(n) {
    src_ << "processors P(" << 1 + static_cast<i64>(rng_() % 6) << ")\n";
    src_ << "template T(" << n << ")\n";
    src_ << "distribute T onto P cyclic(" << 1 + static_cast<i64>(rng_() % 9) << ")\n";
    src_ << "array A(" << n << ") align with T(i)\n";
    src_ << "array B(" << n << ") align with T(i)\n";
  }

  void add_random_statement() {
    switch (rng_() % 6) {
      case 0: add_fill(); break;
      case 1: add_copy(); break;
      case 2: add_arith(); break;
      case 3: add_forall(); break;
      case 4: add_reduce(); break;
      default: add_where(); break;
    }
  }

  void run_and_check() {
    const std::string program = src_.str();
    Machine interp;
    interp.set_tier(Tier::kInterp);
    interp.run_source(program);
    Machine bytecode;
    bytecode.set_tier(Tier::kBytecode);
    bytecode.run_source(program);
    // Each tier against the reference model...
    ASSERT_EQ(interp.global_image("A"), ref_.a) << program;
    ASSERT_EQ(interp.global_image("B"), ref_.b) << program;
    // ...and tier against tier, byte for byte.
    ASSERT_EQ(bytecode.global_image("A"), interp.global_image("A")) << program;
    ASSERT_EQ(bytecode.global_image("B"), interp.global_image("B")) << program;
    for (const ScalarCheck& sc : scalar_checks_) {
      const double vi = interp.scalar(sc.name);
      const double vb = bytecode.scalar(sc.name);
      ASSERT_EQ(vb, vi) << sc.name << " differs across tiers\n" << program;
      if (sc.exact) {
        ASSERT_EQ(vi, sc.value) << sc.name << "\n" << program;
      } else {
        // Distributed sums fold per rank before combining, so the
        // association differs from the reference's left-to-right walk.
        ASSERT_NEAR(vi, sc.value, 1e-9 * (1.0 + std::abs(sc.value)))
            << sc.name << "\n" << program;
      }
    }
  }

 private:
  Sec random_section() {
    const i64 lo = static_cast<i64>(rng_() % static_cast<u64>(n_ - 1));
    const i64 st = 1 + static_cast<i64>(rng_() % 7);
    const i64 max_count = (n_ - 1 - lo) / st + 1;
    const i64 count = 1 + static_cast<i64>(rng_() % static_cast<u64>(max_count));
    return {lo, lo + (count - 1) * st, st};
  }

  Sec random_section_of_size(i64 count) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const i64 st = 1 + static_cast<i64>(rng_() % 7);
      if ((count - 1) * st >= n_) continue;
      const i64 max_lo = n_ - 1 - (count - 1) * st;
      const i64 lo = static_cast<i64>(rng_() % static_cast<u64>(max_lo + 1));
      return {lo, lo + (count - 1) * st, st};
    }
    return {0, count - 1, 1};  // guaranteed to fit (count <= n)
  }

  std::vector<double>& pick(bool second) { return second ? ref_.b : ref_.a; }

  void add_fill() {
    const bool tob = rng_() % 2;
    const Sec s = random_section();
    const i64 v = static_cast<i64>(rng_() % 200) - 100;
    src_ << (tob ? "B" : "A") << s.str() << " = " << v << "\n";
    auto& arr = pick(tob);
    for (i64 t = 0; t < s.size(); ++t) arr[static_cast<std::size_t>(s.at(t))] =
        static_cast<double>(v);
  }

  void add_copy() {
    const bool tob = rng_() % 2;
    const bool fromb = rng_() % 2;
    const Sec d = random_section();
    const Sec s = random_section_of_size(d.size());
    src_ << (tob ? "B" : "A") << d.str() << " = " << (fromb ? "B" : "A") << s.str() << "\n";
    const std::vector<double> snapshot = pick(fromb);  // RHS evaluated first
    auto& dst = pick(tob);
    for (i64 t = 0; t < d.size(); ++t)
      dst[static_cast<std::size_t>(d.at(t))] = snapshot[static_cast<std::size_t>(s.at(t))];
  }

  void add_arith() {
    const bool tob = rng_() % 2;
    const Sec d = random_section();
    const Sec s1 = random_section_of_size(d.size());
    const Sec s2 = random_section_of_size(d.size());
    const i64 c = 1 + static_cast<i64>(rng_() % 9);
    const char* dn = tob ? "B" : "A";
    const std::vector<double> sa = ref_.a;
    const std::vector<double> sb = ref_.b;
    const std::vector<double>& sd = tob ? sb : sa;  // destination snapshot
    auto& dst = pick(tob);
    switch (rng_() % 3) {
      case 0:
        // dst = A(s1) * c - B(s2): a scaled difference (mul.vs, sub.vv).
        src_ << dn << d.str() << " = A" << s1.str() << " * " << c << " - B" << s2.str()
             << "\n";
        for (i64 t = 0; t < d.size(); ++t)
          dst[static_cast<std::size_t>(d.at(t))] =
              sa[static_cast<std::size_t>(s1.at(t))] * static_cast<double>(c) -
              sb[static_cast<std::size_t>(s2.at(t))];
        break;
      case 1:
        // dst = A(s1) + B(s2) + dst(d): the destination read through a
        // direct lane alias AFTER an intermediate sum — store fusion must
        // not park A+B in the destination span before dst(d) is read.
        src_ << dn << d.str() << " = A" << s1.str() << " + B" << s2.str() << " + " << dn
             << d.str() << "\n";
        for (i64 t = 0; t < d.size(); ++t)
          dst[static_cast<std::size_t>(d.at(t))] =
              sa[static_cast<std::size_t>(s1.at(t))] +
              sb[static_cast<std::size_t>(s2.at(t))] +
              sd[static_cast<std::size_t>(d.at(t))];
        break;
      default:
        // dst = (A(s1) - B(s2)) * (dst(d) + c): product of two multi-op
        // factors with the destination aliased inside the right factor.
        src_ << dn << d.str() << " = (A" << s1.str() << " - B" << s2.str() << ") * (" << dn
             << d.str() << " + " << c << ")\n";
        for (i64 t = 0; t < d.size(); ++t)
          dst[static_cast<std::size_t>(d.at(t))] =
              (sa[static_cast<std::size_t>(s1.at(t))] -
               sb[static_cast<std::size_t>(s2.at(t))]) *
              (sd[static_cast<std::size_t>(d.at(t))] + static_cast<double>(c));
        break;
    }
  }

  void add_forall() {
    const i64 m = 1 + static_cast<i64>(rng_() % static_cast<u64>(n_ / 2));
    const i64 off = static_cast<i64>(rng_() % static_cast<u64>(n_ - m));
    const bool tob = rng_() % 2;
    auto& dst = pick(tob);
    if (rng_() % 2) {
      // forall (i = 0:m) A(i+off) = B(i) + i
      src_ << "forall (i = 0:" << m - 1 << ") " << (tob ? "B" : "A") << "(i+" << off
           << ") = " << (tob ? "A" : "B") << "(i) + i\n";
      const std::vector<double> snapshot = pick(!tob);
      for (i64 i = 0; i < m; ++i)
        dst[static_cast<std::size_t>(i + off)] =
            snapshot[static_cast<std::size_t>(i)] + static_cast<double>(i);
    } else {
      // forall (i = 0:m) dst(i+off) = i - dst(i+off): the ramp-first shape —
      // the ramp writes the store register before the destination's direct
      // lane alias is read, so fusing the store would read back the ramp.
      const char* dn = tob ? "B" : "A";
      src_ << "forall (i = 0:" << m - 1 << ") " << dn << "(i+" << off << ") = i - " << dn
           << "(i+" << off << ")\n";
      for (i64 i = 0; i < m; ++i) {
        double& slot = dst[static_cast<std::size_t>(i + off)];
        slot = static_cast<double>(i) - slot;
      }
    }
  }

  void add_reduce() {
    // r<k> = sum|min|max(A(s1) * B(s2))  -- a reduction over an expression,
    // the transform+reduce shape both tiers fuse into a single pass.
    static const char* const ops[] = {"sum", "min", "max"};
    const unsigned op = static_cast<unsigned>(rng_() % 3);
    const Sec s1 = random_section();
    const Sec s2 = random_section_of_size(s1.size());
    const bool mul = rng_() % 2;
    std::string name = "r";  // built in two steps: gcc-12 -Wrestrict chokes
    name += std::to_string(scalar_checks_.size());
    src_ << name << " = " << ops[op] << "(A" << s1.str() << (mul ? " * B" : " - B")
         << s2.str() << ")\n";
    double acc = 0.0;
    for (i64 t = 0; t < s1.size(); ++t) {
      const double x = ref_.a[static_cast<std::size_t>(s1.at(t))];
      const double y = ref_.b[static_cast<std::size_t>(s2.at(t))];
      const double e = mul ? x * y : x - y;
      if (t == 0)
        acc = e;
      else if (op == 0)
        acc += e;
      else if (op == 1)
        acc = std::min(acc, e);
      else
        acc = std::max(acc, e);
    }
    // min/max folds are association-free, so those compare exactly even
    // though the machine reduces per rank first; sums compare approximately.
    scalar_checks_.push_back({name, acc, op != 0});
  }

  void add_where() {
    const bool tob = rng_() % 2;
    const Sec d = random_section();
    const i64 threshold = static_cast<i64>(rng_() % 100) - 50;
    const i64 v = static_cast<i64>(rng_() % 50);
    src_ << "where (" << (tob ? "B" : "A") << d.str() << " > " << threshold << ") "
         << (tob ? "B" : "A") << d.str() << " = " << v << "\n";
    auto& dst = pick(tob);
    for (i64 t = 0; t < d.size(); ++t) {
      auto& slot = dst[static_cast<std::size_t>(d.at(t))];
      if (slot > static_cast<double>(threshold)) slot = static_cast<double>(v);
    }
  }

  struct ScalarCheck {
    std::string name;
    double value;
    bool exact;
  };

  std::mt19937_64 rng_;
  i64 n_;
  RefMachine ref_;
  std::ostringstream src_;
  std::vector<ScalarCheck> scalar_checks_;
};

TEST(CompilerFuzz, RandomProgramsMatchReference) {
  for (u64 seed = 1; seed <= 40; ++seed) {
    ProgramFuzzer fuzzer(seed * 0x9E3779B97F4A7C15ULL, 120 + static_cast<i64>(seed % 7) * 33);
    for (int stmt = 0; stmt < 25; ++stmt) fuzzer.add_random_statement();
    fuzzer.run_and_check();
  }
}

// ---------------------------------------------------------------------------
// 2-D programs on G(p1, p2) grids. The bytecode tier compiles an N-D
// statement when its target is identity aligned, at any innermost stride;
// the stream also draws a non-identity-aligned array W, whose statements
// fall back. Either way every tier on every executor must match the
// reference bit for bit.

std::vector<u64> bits(const std::vector<double>& v) {
  std::vector<u64> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<u64>(v[i]);
  return out;
}

class GridFuzzer {
 public:
  explicit GridFuzzer(u64 seed) : rng_(seed) {
    rows_ = 6 + pick(30);
    cols_ = 6 + pick(30);
    src_ << "processors G(" << 1 + pick(3) << ", " << 1 + pick(3) << ")\n"
         << "template T(" << rows_ << ", " << 2 * cols_ << ")\n"
         << "distribute T onto G " << clause() << ' ' << clause() << '\n';
    for (const char* name : {"U", "V"})
      src_ << "array " << name << '(' << rows_ << ", " << cols_ << ") align with T(i, j)\n";
    // A stride-2 alignment: W stays on the interpreter whenever it is the
    // target, and feeds cross-mapping region loads when it is an operand.
    src_ << "array W(" << rows_ << ", " << cols_ << ") align with T(i, 2*j)\n";
    for (auto& image : ref_) image.assign(static_cast<std::size_t>(rows_ * cols_), 0.0);
  }

  void add_random_statement() {
    switch (pick(6)) {
      case 0: add_fill(); break;
      case 1: add_copy(); break;
      case 2: add_stencil(); break;
      case 3: add_arith(); break;
      case 4: add_scalar_arith(); break;
      default: add_self_shift(); break;
    }
  }

  /// Every tier on both executors against the reference.
  void run_and_check() const {
    const std::string program = src_.str();
    for (const auto mode : {SpmdExecutor::Mode::kSequential, SpmdExecutor::Mode::kThreads}) {
      for (const Tier tier : {Tier::kInterp, Tier::kBytecode}) {
        Machine machine(mode);
        machine.set_tier(tier);
        machine.run_source(program);
        expect_images(machine, tier_name(tier));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

  /// Plant a zero inside a divisor region and divide by it: every tier
  /// raises the same error and leaves every array as it was.
  void check_division_by_zero() {
    const Box z = random_box(false);
    const i64 zi = z.r.at(pick(z.r.size()));
    const i64 zj = z.c.at(pick(z.c.size()));
    const int divisor = pick_array();
    const int dst = static_cast<int>(pick(2));  // identity-aligned: compiles
    const Box d = box_like(z, false);
    const Box n = box_like(z, false);
    const int num = pick_array();
    std::ostringstream tail;
    tail << name(divisor) << '(' << zi << ':' << zi << ", " << zj << ':' << zj << ") = 0\n"
         << box_text(dst, d) << " = " << box_text(num, n) << " / " << box_text(divisor, z)
         << '\n';
    at(divisor, zi, zj) = 0.0;
    const std::string program = src_.str() + tail.str();
    std::string first_error;
    for (const auto mode : {SpmdExecutor::Mode::kSequential, SpmdExecutor::Mode::kThreads}) {
      for (const Tier tier : {Tier::kInterp, Tier::kBytecode}) {
        Machine machine(mode);
        machine.set_tier(tier);
        std::string what;
        try {
          machine.run_source(program);
        } catch (const dsl_error& e) {
          what = e.what();
        }
        ASSERT_NE(what.find("division by zero"), std::string::npos)
            << tier_name(tier) << '\n' << program;
        if (first_error.empty()) first_error = what;
        ASSERT_EQ(what, first_error) << tier_name(tier) << '\n' << program;
        expect_images(machine, tier_name(tier));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

  /// How many statements with an identity-aligned target and a strided
  /// innermost section the bytecode tier compiles, and how many such
  /// statements there are. Each is explained after the program, under its
  /// final mappings; a compiled one lists a rank whose share is gathered
  /// through a fixed-step or periodic kernel.
  [[nodiscard]] std::pair<std::size_t, std::size_t> strided_programs() const {
    std::string program = src_.str();
    for (const std::string& stmt : strided_) program += "explain " + stmt;
    Machine machine;
    machine.set_tier(Tier::kBytecode);
    machine.run_source(program);
    const std::string& out = machine.output();
    std::size_t compiled = 0;
    for (std::size_t at = out.find("bytecode program for"); at != std::string::npos;) {
      const std::size_t next = out.find("bytecode program for", at + 1);
      const std::string listing = out.substr(at, next - at);
      if (listing.find(": fixed-step, ") != std::string::npos ||
          listing.find(": periodic, ") != std::string::npos)
        ++compiled;
      at = next;
    }
    return {compiled, strided_.size()};
  }

 private:
  struct Box {
    Sec r, c;
  };

  /// Record the statement written since `start` when its target is U or V
  /// and its innermost section is strided.
  void note_strided(int dst, const Box& d, std::size_t start) {
    if (dst != 2 && d.c.st > 1) strided_.push_back(src_.str().substr(start));
  }

  i64 pick(i64 n) { return static_cast<i64>(rng_() % static_cast<u64>(n)); }
  int pick_array() { return static_cast<int>(pick(3)); }

  std::string clause() {
    switch (pick(3)) {
      case 0: return "cyclic(" + std::to_string(1 + pick(6)) + ")";
      case 1: return "block";
      default: return "cyclic";
    }
  }

  static const char* name(int a) { return a == 0 ? "U" : a == 1 ? "V" : "W"; }
  static std::string box_text(int a, const Box& b) {
    return std::string(name(a)) + '(' + b.r.triplet() + ", " + b.c.triplet() + ')';
  }
  double& at(int a, i64 i, i64 j) {
    return ref_[static_cast<std::size_t>(a)][static_cast<std::size_t>(i * cols_ + j)];
  }
  double get(int a, const Box& b, i64 t, i64 u) { return at(a, b.r.at(t), b.c.at(u)); }

  /// Unit stride two times in three, else 2 or 3 (which may or may not
  /// leave the rank's innermost share dense, depending on the clause).
  i64 stride(bool dense_only) { return dense_only || pick(3) != 0 ? 1 : 2 + pick(2); }

  Sec random_sec(i64 n, bool dense_only) {
    const i64 st = stride(dense_only);
    const i64 lo = pick(n);
    const i64 count = 1 + pick((n - 1 - lo) / st + 1);
    return {lo, lo + (count - 1) * st, st};
  }

  Sec sec_of_size(i64 n, i64 count, bool dense_only) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const i64 st = stride(dense_only);
      if ((count - 1) * st >= n) continue;
      const i64 lo = pick(n - (count - 1) * st);
      return {lo, lo + (count - 1) * st, st};
    }
    return {0, count - 1, 1};
  }

  Box random_box(bool dense_only) {
    return {random_sec(rows_, dense_only), random_sec(cols_, dense_only)};
  }
  Box box_like(const Box& b, bool dense_only) {
    return {sec_of_size(rows_, b.r.size(), dense_only),
            sec_of_size(cols_, b.c.size(), dense_only)};
  }

  /// Store f(t, u) at every element of dst(d), evaluating the whole right
  /// side before the first store (the DSL's array-assignment semantics).
  template <typename F>
  void assign(int dst, const Box& d, F&& f) {
    const i64 rs = d.r.size();
    const i64 cs = d.c.size();
    std::vector<double> out(static_cast<std::size_t>(rs * cs));
    for (i64 t = 0; t < rs; ++t)
      for (i64 u = 0; u < cs; ++u) out[static_cast<std::size_t>(t * cs + u)] = f(t, u);
    for (i64 t = 0; t < rs; ++t)
      for (i64 u = 0; u < cs; ++u)
        at(dst, d.r.at(t), d.c.at(u)) = out[static_cast<std::size_t>(t * cs + u)];
  }

  void add_fill() {
    const int dst = pick_array();
    const Box d = random_box(false);
    const i64 v = pick(200) - 100;
    src_ << box_text(dst, d) << " = " << v << '\n';
    assign(dst, d, [&](i64, i64) { return static_cast<double>(v); });
  }

  void add_copy() {
    const int dst = pick_array();
    const int from = pick_array();
    const Box d = random_box(false);
    const Box s = box_like(d, false);
    src_ << box_text(dst, d) << " = " << box_text(from, s) << '\n';
    assign(dst, d, [&](i64 t, i64 u) { return get(from, s, t, u); });
  }

  /// dst(interior box) = (src(north) + src(south) + src(west) + src(east)) / c
  void add_stencil() {
    const int dst = pick_array();
    const int from = pick_array();
    const i64 h = 1 + pick(rows_ - 2);
    const i64 w = 1 + pick(cols_ - 2);
    const i64 r0 = 1 + pick(rows_ - 1 - h);
    const i64 c0 = 1 + pick(cols_ - 1 - w);
    const auto box = [&](i64 dr, i64 dc) {
      return Box{{r0 + dr, r0 + dr + h - 1, 1}, {c0 + dc, c0 + dc + w - 1, 1}};
    };
    const Box d = box(0, 0);
    const Box nb[] = {box(-1, 0), box(1, 0), box(0, -1), box(0, 1)};
    const i64 c = 1 + pick(8);
    src_ << box_text(dst, d) << " = (" << box_text(from, nb[0]) << " + "
         << box_text(from, nb[1]) << " + " << box_text(from, nb[2]) << " + "
         << box_text(from, nb[3]) << ") / " << c << '\n';
    assign(dst, d, [&](i64 t, i64 u) {
      return (get(from, nb[0], t, u) + get(from, nb[1], t, u) + get(from, nb[2], t, u) +
              get(from, nb[3], t, u)) /
             static_cast<double>(c);
    });
  }

  void add_arith() {
    const int dst = pick_array();
    const int y = pick_array();
    const int z = pick_array();
    const Box d = random_box(false);
    const Box s1 = box_like(d, false);
    const Box s2 = box_like(d, false);
    const i64 c = 1 + pick(9);
    const auto cd = static_cast<double>(c);
    const std::string lhs = box_text(dst, d);
    const std::size_t start = src_.str().size();
    switch (pick(4)) {
      case 0:
        src_ << lhs << " = " << box_text(y, s1) << " * " << c << " - " << box_text(z, s2)
             << '\n';
        assign(dst, d, [&](i64 t, i64 u) { return get(y, s1, t, u) * cd - get(z, s2, t, u); });
        break;
      case 1:
        // The target read back through a direct alias after an
        // intermediate sum: store fusion must not clobber it early.
        src_ << lhs << " = " << box_text(y, s1) << " + " << box_text(z, s2) << " + " << lhs
             << '\n';
        assign(dst, d, [&](i64 t, i64 u) {
          return get(y, s1, t, u) + get(z, s2, t, u) + get(dst, d, t, u);
        });
        break;
      case 2:
        src_ << lhs << " = (" << box_text(y, s1) << " - " << box_text(z, s2) << ") * (" << lhs
             << " + " << c << ")\n";
        assign(dst, d, [&](i64 t, i64 u) {
          return (get(y, s1, t, u) - get(z, s2, t, u)) * (get(dst, d, t, u) + cd);
        });
        break;
      default: {
        // An array divisor: guarded two-phase store. Divide only when the
        // divisor region holds no zero (check_division_by_zero covers that).
        bool zero = false;
        for (i64 t = 0; t < d.r.size(); ++t)
          for (i64 u = 0; u < d.c.size(); ++u) zero = zero || get(z, s2, t, u) == 0.0;
        const char op = zero ? '*' : '/';
        src_ << lhs << " = " << box_text(y, s1) << ' ' << op << ' ' << box_text(z, s2) << '\n';
        assign(dst, d, [&](i64 t, i64 u) {
          return zero ? get(y, s1, t, u) * get(z, s2, t, u)
                      : get(y, s1, t, u) / get(z, s2, t, u);
        });
        break;
      }
    }
    note_strided(dst, d, start);
  }

  /// Array arithmetic with a scalar variable, which the compiler cannot
  /// fold: the divide by it is guarded.
  void add_scalar_arith() {
    const int dst = pick_array();
    const int y = pick_array();
    const Box d = random_box(false);
    const Box s1 = box_like(d, false);
    i64 v = pick(19) - 9;
    if (v == 0) v = 3;
    const auto vd = static_cast<double>(v);
    const i64 c = pick(21) - 10;
    const auto cd = static_cast<double>(c);
    src_ << "s = " << v << '\n';
    const std::size_t start = src_.str().size();
    if (pick(2) == 0) {
      src_ << box_text(dst, d) << " = " << box_text(y, s1) << " * s + " << c << '\n';
      assign(dst, d, [&](i64 t, i64 u) { return get(y, s1, t, u) * vd + cd; });
    } else {
      src_ << box_text(dst, d) << " = " << c << " - " << box_text(y, s1) << " / s\n";
      assign(dst, d, [&](i64 t, i64 u) { return cd - get(y, s1, t, u) / vd; });
    }
    note_strided(dst, d, start);
  }

  /// U = U(shift) + U: the target is both a shifted (loaded) operand and a
  /// direct alias of itself.
  void add_self_shift() {
    const int dst = pick_array();
    const Box d = random_box(true);
    const Box s = box_like(d, true);
    src_ << box_text(dst, d) << " = " << box_text(dst, s) << " + " << box_text(dst, d) << '\n';
    assign(dst, d, [&](i64 t, i64 u) { return get(dst, s, t, u) + get(dst, d, t, u); });
  }

  void expect_images(const Machine& machine, const char* tier) const {
    for (int a = 0; a < 3; ++a)
      ASSERT_EQ(bits(machine.global_image(name(a))), bits(ref_[static_cast<std::size_t>(a)]))
          << name(a) << " under " << tier << '\n'
          << src_.str();
  }

  std::mt19937_64 rng_;
  i64 rows_ = 0;
  i64 cols_ = 0;
  std::vector<double> ref_[3];
  std::ostringstream src_;
  std::vector<std::string> strided_;
};

TEST(CompilerFuzz, RandomGridProgramsMatchAcrossTiers) {
  std::size_t strided = 0;
  for (u64 seed = 1; seed <= 30; ++seed) {
    GridFuzzer fuzzer(seed * 0xD1B54A32D192ED03ULL);
    for (int stmt = 0; stmt < 20; ++stmt) fuzzer.add_random_statement();
    fuzzer.run_and_check();
    if (HasFatalFailure()) return;
    fuzzer.check_division_by_zero();
    if (HasFatalFailure()) return;
    // Parity must not hold only because strided targets fall back: every
    // one of them runs on the bytecode tier.
    const auto [compiled, total] = fuzzer.strided_programs();
    EXPECT_EQ(compiled, total) << "seed " << seed;
    strided += compiled;
  }
  EXPECT_GT(strided, 0u);
}

// ---------------------------------------------------------------------------
// Shifted 1-D operands. An operand that is the target section shifted by a
// constant delta, 0 < |delta| < k, under the target's mapping, reads its own
// local span in place and takes only its block-boundary halo from the
// neighbouring ranks (lane.shift); every other shifted operand keeps the
// scratch copy. The grid walks delta over -(k+1)..k+1 on P = 1..5 under
// block, cyclic and cyclic(k), with n off the P*k period and sections that
// start and end mid-block. Each program runs on both tiers and both
// executors and is bit-compared to a reference; an `explain` of every
// assignment pins how many operands took the lane.shift path.

class ShiftFuzzer {
 public:
  enum Dist { kBlock, kCyclic, kCyclicK };

  /// `long_runs` makes every rank's share span several lane strips.
  /// `other_lengths` adds E, longer than A..D, and F, shorter, both on T's
  /// distribution with identity alignment (T grows to E's length): their
  /// shifted operands take lane.shift beside targets of another length.
  ShiftFuzzer(u64 seed, i64 procs, Dist dist, bool long_runs, bool other_lengths = false)
      : rng_(seed) {
    const i64 kk = 2 + pick(8);
    n_ = long_runs ? 1100 * procs + pick(400) : 40 + pick(120);
    if (dist == kCyclicK && n_ % (procs * kk) == 0) ++n_;
    const i64 extra = other_lengths ? 1 + pick(3 * kk) : 0;
    const i64 tn = n_ + extra;  // T's extent
    k_ = dist == kBlock ? (tn + procs - 1) / procs : dist == kCyclic ? 1 : kk;
    const std::string clause = dist == kBlock    ? std::string("block")
                               : dist == kCyclic ? std::string("cyclic")
                                                 : "cyclic(" + std::to_string(k_) + ")";
    src_ << "processors P(" << procs << ")\n"
         << "template T(" << tn << ")\n"
         << "template T2(" << n_ << ")\n"
         << "distribute T onto P " << clause << '\n'
         << "distribute T2 onto P cyclic(" << k_ + 1 << ")\n";
    // A, B, C share the target mapping; D is the same data under another
    // distribution, so its shifted operands stay scratch copies.
    arrays_ = other_lengths ? 6 : 4;
    for (int a = 0; a < arrays_; ++a) {
      const i64 n = a == 4 ? tn : a == 5 ? n_ - 1 - pick(3 * kk) : n_;
      src_ << "array " << name(a) << '(' << n << ") align with " << (a == 3 ? "T2" : "T")
           << "(i)\n";
      const i64 div = 2 + a;
      src_ << "forall (i = 0:" << n - 1 << ") " << name(a) << "(i) = i / " << div << '\n';
      ref_[a].resize(static_cast<std::size_t>(n));
      for (i64 i = 0; i < n; ++i)
        ref_[a][static_cast<std::size_t>(i)] = static_cast<double>(i) / static_cast<double>(div);
    }
  }

  i64 block() const { return k_; }

  /// The deltas the grid walks: all of -(k+1)..k+1 for small blocks, the
  /// edges of that range otherwise, keeping every section at least n/3 long.
  std::vector<i64> deltas() const {
    std::vector<i64> out;
    const auto add = [&](i64 d) {
      if (3 * (d < 0 ? -d : d) <= n_ && std::find(out.begin(), out.end(), d) == out.end())
        out.push_back(d);
    };
    if (k_ <= 12) {
      for (i64 d = -(k_ + 1); d <= k_ + 1; ++d) add(d);
    } else {
      for (const i64 d : {i64{0}, i64{1}, i64{2}, i64{3}, k_ - 1, k_, k_ + 1}) {
        add(d);
        add(-d);
      }
    }
    return out;
  }

  /// Every shape the grid draws for one primary delta.
  void add_statements(i64 delta) {
    add_stencil(delta);
    add_three_operand(delta);
    add_descending(delta);
    add_self_stencil(delta);
    add_other_mapping(delta);
    add_masked(delta);
  }

  /// dst(d) = (X(d+delta) + Y(d+d2)) * c with the target and the sources
  /// drawn from A, E (longer) and F (shorter), X and Y never the target: a
  /// staged strip is clipped to its own source's local span. The section
  /// often runs to the target's last element, where the clip matters.
  void add_other_lengths(i64 delta) {
    const int pool[] = {0, 4, 5};
    const int dst = pool[pick(3)];
    int x = pool[pick(3)];
    int y = pool[pick(3)];
    if (x == dst) x = dst == 4 ? 5 : 4;
    if (y == dst) y = dst == 0 ? 5 : 0;
    const i64 d2 = any_delta();
    const auto len = [&](int a) { return static_cast<i64>(ref(a).size()); };
    const i64 lo_min = std::max<i64>({0, -delta, -d2});
    const i64 hi_max = std::min({len(dst), len(x) - delta, len(y) - d2}) - 1;
    if (hi_max < lo_min) return;  // F too short for this pair of shifts
    const i64 room = std::max<i64>(1, (hi_max - lo_min + 1) / 4);
    const i64 lo = lo_min + pick(room);
    const i64 hi = pick(2) == 0 ? hi_max : hi_max - pick(room);
    const Sec d{lo, hi, 1};
    const Sec s1 = shifted(d, delta), s2 = shifted(d, d2);
    const i64 c = 1 + pick(5);
    emit(std::string(name(dst)) + d.str() + " = (" + name(x) + s1.str() + " + " + name(y) +
             s2.str() + ") * " + std::to_string(c),
         shift_eligible(x, dst, delta) + shift_eligible(y, dst, d2));
    assign(dst, d,
           [&](i64 t) { return (get(x, s1, t) + get(y, s2, t)) * static_cast<double>(c); });
  }

  void run_and_check() const {
    const std::string program = src_.str();
    for (const auto mode : {SpmdExecutor::Mode::kSequential, SpmdExecutor::Mode::kThreads}) {
      for (const Tier tier : {Tier::kInterp, Tier::kBytecode}) {
        Machine machine(mode);
        machine.set_tier(tier);
        machine.run_source(program);
        expect_images(machine, tier_name(tier));
        if (::testing::Test::HasFatalFailure()) return;
        // The listings are the bytecode compiler's under either tier.
        const std::string& out = machine.output();
        i64 shifts = 0;
        for (auto at = out.find("lane.shift "); at != std::string::npos;
             at = out.find("lane.shift ", at + 1))
          ++shifts;
        ASSERT_EQ(shifts, expected_shifts_) << out << '\n' << program;
      }
    }
  }

  /// Plant a zero in C where a shifted divisor reads it through the halo,
  /// then divide by it: every tier raises the same error and leaves every
  /// array untouched.
  void check_division_by_zero(i64 delta) {
    const Sec d = section(delta, 0);
    // A target position at the first boundary offset of its block, whose
    // source therefore sits in the neighbouring block.
    const i64 j0 = delta < 0 ? 0 : k_ - delta;
    i64 g = d.lo;
    for (i64 t = 0; t < d.size(); ++t)
      if ((d.at(t) % k_) == j0) {
        g = d.at(t);
        break;
      }
    std::ostringstream tail;
    tail << "C(" << g + delta << ':' << g + delta << ") = 0\n"
         << "B" << d.str() << " = A" << d.str() << " / C" << shifted(d, delta).str() << '\n';
    ref_[2][static_cast<std::size_t>(g + delta)] = 0.0;
    const std::string program = src_.str() + tail.str();
    std::string first_error;
    for (const auto mode : {SpmdExecutor::Mode::kSequential, SpmdExecutor::Mode::kThreads}) {
      for (const Tier tier : {Tier::kInterp, Tier::kBytecode}) {
        Machine machine(mode);
        machine.set_tier(tier);
        std::string what;
        try {
          machine.run_source(program);
        } catch (const dsl_error& e) {
          what = e.what();
        }
        ASSERT_NE(what.find("division by zero"), std::string::npos)
            << tier_name(tier) << '\n' << program;
        if (first_error.empty()) first_error = what;
        ASSERT_EQ(what, first_error) << tier_name(tier) << '\n' << program;
        expect_images(machine, tier_name(tier));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

 private:
  i64 pick(i64 n) { return static_cast<i64>(rng_() % static_cast<u64>(n)); }
  static const char* name(int a) {
    static const char* const names[] = {"A", "B", "C", "D", "E", "F"};
    return names[a];
  }
  std::vector<double>& ref(int a) { return ref_[static_cast<std::size_t>(a)]; }

  /// A random delta from the grid's range.
  i64 any_delta() {
    const std::vector<i64> ds = deltas();
    return ds[static_cast<std::size_t>(pick(static_cast<i64>(ds.size())))];
  }

  /// A random unit-stride target section, mid-block at both ends, such that
  /// shifting it by `d1` and by `d2` stays inside the arrays.
  Sec section(i64 d1, i64 d2) {
    const i64 lo_min = std::max<i64>({0, -d1, -d2});
    const i64 hi_max = n_ - 1 - std::max<i64>({0, d1, d2});
    const i64 span = hi_max - lo_min + 1;
    const i64 lo = lo_min + pick(std::max<i64>(1, span / 4));
    const i64 hi = hi_max - pick(std::max<i64>(1, span / 4));
    return {lo, hi, 1};
  }
  static Sec shifted(const Sec& s, i64 delta) { return {s.lo + delta, s.hi + delta, s.st}; }

  /// Whether an operand of array `a` shifted by `delta` takes lane.shift in
  /// a statement that may use it (target `dst`).
  bool shift_eligible(int a, int dst, i64 delta) const {
    return a != dst && a != 3 && delta != 0 && delta > -k_ && delta < k_;
  }

  /// Store f(t) at every element of dst(d), evaluating the whole right side
  /// before the first store.
  template <typename F>
  void assign(int dst, const Sec& d, F&& f) {
    std::vector<double> out(static_cast<std::size_t>(d.size()));
    for (i64 t = 0; t < d.size(); ++t) out[static_cast<std::size_t>(t)] = f(t);
    for (i64 t = 0; t < d.size(); ++t)
      ref(dst)[static_cast<std::size_t>(d.at(t))] = out[static_cast<std::size_t>(t)];
  }
  double get(int a, const Sec& s, i64 t) { return ref(a)[static_cast<std::size_t>(s.at(t))]; }

  void emit(const std::string& stmt, i64 shifts) {
    src_ << "explain " << stmt << '\n' << stmt << '\n';
    expected_shifts_ += shifts;
  }

  /// dst(d) = (A(d+delta) + A(d+d2)) / c: the jacobi shape.
  void add_stencil(i64 delta) {
    const int dst = 1 + static_cast<int>(pick(2));
    const i64 d2 = any_delta();
    const Sec d = section(delta, d2);
    const Sec s1 = shifted(d, delta), s2 = shifted(d, d2);
    const i64 c = 1 + pick(4);
    emit(std::string(name(dst)) + d.str() + " = (A" + s1.str() + " + A" + s2.str() + ") / " +
             std::to_string(c),
         shift_eligible(0, dst, delta) + shift_eligible(0, dst, d2));
    assign(dst, d, [&](i64 t) { return (get(0, s1, t) + get(0, s2, t)) / static_cast<double>(c); });
  }

  /// dst(d) = A(d-|delta|) * c - X(d+e) + A(d+delta): three operands with
  /// mixed signs. X is sometimes the target itself: shifted, it is a
  /// scratch copy taken before the lanes run and the A operands still shift
  /// in place; unshifted, it reads the target directly, which keeps the
  /// whole statement on scratch copies.
  void add_three_operand(i64 delta) {
    const int dst = 1 + static_cast<int>(pick(2));
    const int x = 1 + static_cast<int>(pick(2));
    const i64 neg = delta < 0 ? delta : -delta;
    i64 e = any_delta();
    if (e < 0) e = -e;
    const Sec d = section(neg, std::max(e, delta));
    const Sec s1 = shifted(d, neg), s2 = shifted(d, e), s3 = shifted(d, delta);
    const i64 c = 1 + pick(9);
    const bool ok = x != dst || e != 0;
    emit(std::string(name(dst)) + d.str() + " = A" + s1.str() + " * " + std::to_string(c) +
             " - " + name(x) + s2.str() + " + A" + s3.str(),
         ok ? shift_eligible(0, dst, neg) + shift_eligible(x, dst, e) +
                  shift_eligible(0, dst, delta)
            : 0);
    assign(dst, d, [&](i64 t) {
      return get(0, s1, t) * static_cast<double>(c) - get(x, s2, t) + get(0, s3, t);
    });
  }

  /// dst(hi:lo:-1) = -A(hi+delta:lo+delta:-1) * 2 + c: a descending unit
  /// stride, negated into a fused multiply-add.
  void add_descending(i64 delta) {
    const int dst = 1 + static_cast<int>(pick(2));
    const Sec up = section(delta, 0);
    const Sec d{up.hi, up.lo, -1};
    const Sec s1 = shifted(d, delta);
    const i64 c = pick(11) - 5;
    emit(std::string(name(dst)) + d.str() + " = -A" + s1.str() + " * 2 + " + std::to_string(c),
         shift_eligible(0, dst, delta));
    assign(dst, d, [&](i64 t) { return -get(0, s1, t) * 2.0 + static_cast<double>(c); });
  }

  /// A(d) = (A(d+delta) + A(d+d2)) / 2: the target read through its own
  /// shifted operands stays on scratch copies.
  void add_self_stencil(i64 delta) {
    const i64 d2 = any_delta();
    const Sec d = section(delta, d2);
    const Sec s1 = shifted(d, delta), s2 = shifted(d, d2);
    emit("A" + d.str() + " = (A" + s1.str() + " + A" + s2.str() + ") / 2", 0);
    assign(0, d, [&](i64 t) { return (get(0, s1, t) + get(0, s2, t)) / 2.0; });
  }

  /// dst(d) = D(d+delta) - A(d+delta): D has another mapping (scratch copy)
  /// while A shifts in place in the same statement.
  void add_other_mapping(i64 delta) {
    const int dst = 1 + static_cast<int>(pick(2));
    const Sec d = section(delta, 0);
    const Sec s1 = shifted(d, delta);
    emit(std::string(name(dst)) + d.str() + " = D" + s1.str() + " - A" + s1.str(),
         shift_eligible(0, dst, delta));
    assign(dst, d, [&](i64 t) { return get(3, s1, t) - get(0, s1, t); });
  }

  /// where (dst(d) > c) dst(d) = A(d+delta) + 1: a masked store keeps its
  /// shifted operands on scratch copies.
  void add_masked(i64 delta) {
    const int dst = 1 + static_cast<int>(pick(2));
    const Sec d = section(delta, 0);
    const Sec s1 = shifted(d, delta);
    const i64 c = pick(20);
    src_ << "where (" << name(dst) << d.str() << " > " << c << ") " << name(dst) << d.str()
         << " = A" << s1.str() << " + 1\n";
    for (i64 t = 0; t < d.size(); ++t) {
      double& slot = ref(dst)[static_cast<std::size_t>(d.at(t))];
      if (slot > static_cast<double>(c)) slot = get(0, s1, t) + 1.0;
    }
  }

  void expect_images(const Machine& machine, const char* tier) const {
    for (int a = 0; a < arrays_; ++a)
      ASSERT_EQ(bits(machine.global_image(name(a))), bits(ref_[static_cast<std::size_t>(a)]))
          << name(a) << " under " << tier << '\n'
          << src_.str();
  }

  std::mt19937_64 rng_;
  i64 n_ = 0;
  i64 k_ = 1;
  i64 expected_shifts_ = 0;
  int arrays_ = 4;
  std::vector<double> ref_[6];
  std::ostringstream src_;
};

TEST(CompilerFuzz, ShiftedOperandGridMatchesAcrossTiers) {
  i64 shifted_programs = 0;
  for (i64 procs = 1; procs <= 5; ++procs) {
    for (const auto dist : {ShiftFuzzer::kBlock, ShiftFuzzer::kCyclic, ShiftFuzzer::kCyclicK}) {
      for (u64 rep = 0; rep < 2; ++rep) {
        const u64 seed = (static_cast<u64>(procs) * 3 + static_cast<u64>(dist)) * 2 + rep;
        ShiftFuzzer fuzzer(seed * 0x9E3779B97F4A7C15ULL + 17, procs, dist, rep == 1);
        for (const i64 delta : fuzzer.deltas()) fuzzer.add_statements(delta);
        fuzzer.run_and_check();
        if (HasFatalFailure()) return;
        ++shifted_programs;
        // A zero divisor behind the halo, for the first in-range delta.
        for (const i64 delta : fuzzer.deltas()) {
          if (rep == 1) break;
          if (delta == 0 || delta <= -fuzzer.block() || delta >= fuzzer.block()) continue;
          ShiftFuzzer copy(seed * 0x9E3779B97F4A7C15ULL + 17, procs, dist, rep == 1);
          for (const i64 d : copy.deltas()) copy.add_statements(d);
          copy.check_division_by_zero(delta);
          if (HasFatalFailure()) return;
          break;
        }
      }
    }
  }
  EXPECT_EQ(shifted_programs, 30);
}

TEST(CompilerFuzz, ShiftedOperandOfAnotherLengthMatchesAcrossTiers) {
  i64 programs = 0;
  for (i64 procs = 1; procs <= 5; ++procs) {
    for (const auto dist : {ShiftFuzzer::kBlock, ShiftFuzzer::kCyclicK}) {
      for (u64 rep = 0; rep < 2; ++rep) {
        const u64 seed = (static_cast<u64>(procs) * 3 + static_cast<u64>(dist)) * 2 + rep;
        ShiftFuzzer fuzzer(seed * 0xD1B54A32D192ED03ULL + 5, procs, dist, rep == 1, true);
        for (const i64 delta : fuzzer.deltas()) fuzzer.add_other_lengths(delta);
        fuzzer.run_and_check();
        if (HasFatalFailure()) return;
        ++programs;
      }
    }
  }
  EXPECT_EQ(programs, 20);
}

// ---------------------------------------------------------------------------
// Shifted 2-D operands. An operand that is the target region shifted by a
// constant delta along exactly one dimension, 0 < |delta| < k of that
// dimension, under the target's mapping, reads its own local rows
// (lane.shift): along the outer dimension each row picks its own source row
// or its halo row, along the innermost dimension each strip is staged and
// its block-boundary offsets are patched from the halo. Diagonal shifts,
// |delta| >= k, other mappings, the target array itself and statements
// that read their target keep the scratch copy (load.region). The grid
// walks delta along each dimension over -(k+1)..k+1 on G(1,4), G(4,1),
// G(2,2) and G(3,2) under block, cyclic and cyclic(k) per dimension, with
// regions that start and end mid-block and, in the long-row programs, rows
// longer than one lane strip. Each program runs on both tiers and both
// executors and is bit-compared to a reference; an `explain` before every
// assignment pins how many operands took the lane.shift path and how many
// diagonal shifts were demoted.

class RegionShiftFuzzer {
 public:
  enum Dist { kBlock, kCyclic, kCyclicK };

  /// `long_rows` makes every rank's rows span several lane strips; those
  /// programs walk the stencil and diagonal shapes only.
  RegionShiftFuzzer(u64 seed, i64 g1, i64 g2, Dist d1, Dist d2, bool long_rows)
      : rng_(seed), long_rows_(long_rows) {
    n_[0] = long_rows ? 2 * g1 + 2 + pick(3) : 14 + pick(30);
    n_[1] = long_rows ? 1100 * g2 + pick(300) : 14 + pick(30);
    const i64 procs[2] = {g1, g2};
    const Dist dists[2] = {d1, d2};
    std::string clause[2], other[2];
    for (int d = 0; d < 2; ++d) {
      const i64 kk = 2 + pick(6);
      k_[d] = dists[d] == kBlock    ? (n_[d] + procs[d] - 1) / procs[d]
              : dists[d] == kCyclic ? 1
                                    : kk;
      clause[d] = dists[d] == kBlock    ? std::string("block")
                  : dists[d] == kCyclic ? std::string("cyclic")
                                        : "cyclic(" + std::to_string(k_[d]) + ")";
      other[d] = "cyclic(" + std::to_string(k_[d] + 1) + ")";
    }
    src_ << "processors G(" << g1 << ", " << g2 << ")\n"
         << "template T(" << n_[0] << ", " << n_[1] << ")\n"
         << "template T2(" << n_[0] << ", " << n_[1] << ")\n"
         << "distribute T onto G " << clause[0] << ' ' << clause[1] << '\n'
         << "distribute T2 onto G " << other[0] << ' ' << other[1] << '\n';
    // A, B, C share the target mapping; D holds the same data under another
    // distribution, so its shifted operands stay scratch copies.
    for (int a = 0; a < 4; ++a) {
      src_ << "array " << name(a) << '(' << n_[0] << ", " << n_[1] << ") align with "
           << (a == 3 ? "T2" : "T") << "(i, j)\n";
      ref(a).assign(static_cast<std::size_t>(n_[0] * n_[1]), 0.0);
    }
    // Distinct values everywhere, so a wrong halo slot shows: column 0
    // filled row by row, then doubled rightwards, X(i, j) = X(i, 0) + j.
    for (int a = 0; a < 4; ++a) {
      const std::string rows = "0:" + std::to_string(n_[0] - 1);
      for (i64 i = 0; i < n_[0]; ++i) {
        const i64 v = i * 10007 + (a + 1) * 1000003;
        src_ << name(a) << '(' << i << ':' << i << ", 0:0) = " << v << '\n';
        for (i64 j = 0; j < n_[1]; ++j) at(a, i, j) = static_cast<double>(v + j);
      }
      for (i64 s = 1; s < n_[1]; s *= 2) {
        const i64 len = std::min(s, n_[1] - s);
        src_ << name(a) << '(' << rows << ", " << s << ':' << s + len - 1 << ") = " << name(a)
             << '(' << rows << ", 0:" << len - 1 << ") + " << s << '\n';
      }
    }
  }

  /// The deltas walked along dimension d: all of -(k+1)..k+1 for small
  /// blocks, the edges of that range otherwise, keeping every region at
  /// least a third of the extent.
  std::vector<i64> deltas(int d) const {
    std::vector<i64> out;
    const i64 k = k_[d];
    const auto add = [&](i64 v) {
      if (3 * (v < 0 ? -v : v) <= n_[d] && std::find(out.begin(), out.end(), v) == out.end())
        out.push_back(v);
    };
    if (k <= 8) {
      for (i64 v = -(k + 1); v <= k + 1; ++v) add(v);
    } else {
      for (const i64 v : {i64{0}, i64{1}, i64{2}, k - 1, k, k + 1}) {
        add(v);
        add(-v);
      }
    }
    return out;
  }

  /// Every shape the grid draws for one primary shift.
  void add_statements(int d, i64 delta) {
    add_stencil(d, delta);
    add_diagonal(d, delta);
    if (long_rows_) return;
    add_other_mapping(d, delta);
    add_self(d, delta);
    add_reads_target(d, delta);
  }

  void run_and_check() const {
    const std::string program = src_.str();
    for (const auto mode : {SpmdExecutor::Mode::kSequential, SpmdExecutor::Mode::kThreads}) {
      for (const Tier tier : {Tier::kInterp, Tier::kBytecode}) {
        Machine machine(mode);
        machine.set_tier(tier);
        machine.run_source(program);
        for (int a = 0; a < 4; ++a)
          ASSERT_EQ(bits(machine.global_image(name(a))),
                    bits(ref_[static_cast<std::size_t>(a)]))
              << name(a) << " under " << tier_name(tier) << '\n'
              << program;
        const std::string& out = machine.output();
        ASSERT_EQ(occurrences(out, "lane.shift "), expected_shifts_) << out << '\n' << program;
        ASSERT_EQ(occurrences(out, "stays a scratch copy: shifted in more than one dimension"),
                  expected_diagonals_)
            << out << '\n'
            << program;
      }
    }
  }

 private:
  struct Box {
    Sec r, c;
  };

  /// An operand: array `a` over the target box shifted by (dr, dc).
  struct Opnd {
    int a;
    i64 dr, dc;
  };

  i64 pick(i64 n) { return static_cast<i64>(rng_() % static_cast<u64>(n)); }
  static const char* name(int a) { return a == 0 ? "A" : a == 1 ? "B" : a == 2 ? "C" : "D"; }
  std::vector<double>& ref(int a) { return ref_[static_cast<std::size_t>(a)]; }
  double& at(int a, i64 i, i64 j) { return ref(a)[static_cast<std::size_t>(i * n_[1] + j)]; }

  static i64 occurrences(const std::string& out, const std::string& what) {
    i64 n = 0;
    for (auto p = out.find(what); p != std::string::npos; p = out.find(what, p + 1)) ++n;
    return n;
  }

  /// Whether operand `o` takes lane.shift in a plain store to `dst`.
  bool eligible(const Opnd& o, int dst) const {
    if (o.a == dst || o.a == 3 || (o.dr != 0) == (o.dc != 0)) return false;
    const i64 v = o.dr != 0 ? o.dr : o.dc;
    const i64 k = k_[o.dr != 0 ? 0 : 1];
    return v > -k && v < k;
  }
  static bool diagonal(const Opnd& o) { return o.dr != 0 && o.dc != 0; }

  /// A random target box such that every operand's shift stays in bounds:
  /// mid-block at both ends, the outer dimension sometimes of stride 2.
  Box box(const std::vector<Opnd>& ops) {
    Sec s[2];
    for (int d = 0; d < 2; ++d) {
      i64 lo_min = 0;
      i64 hi_max = n_[d] - 1;
      for (const Opnd& o : ops) {
        const i64 v = d == 0 ? o.dr : o.dc;
        lo_min = std::max(lo_min, -v);
        hi_max = std::min(hi_max, n_[d] - 1 - v);
      }
      const i64 span = hi_max - lo_min + 1;
      const i64 lo = lo_min + pick(std::max<i64>(1, span / 4));
      i64 hi = hi_max - pick(std::max<i64>(1, span / 4));
      const i64 st = d == 0 && hi - lo >= 2 && pick(3) == 0 ? 2 : 1;
      hi -= (hi - lo) % st;
      s[d] = {lo, hi, st};
    }
    return {s[0], s[1]};
  }
  static Sec moved(const Sec& s, i64 v) { return {s.lo + v, s.hi + v, s.st}; }
  static std::string text(int a, const Box& b, i64 dr = 0, i64 dc = 0) {
    return std::string(name(a)) + '(' + moved(b.r, dr).triplet() + ", " +
           moved(b.c, dc).triplet() + ')';
  }
  double get(int a, const Box& b, i64 t, i64 u, i64 dr = 0, i64 dc = 0) {
    return at(a, b.r.at(t) + dr, b.c.at(u) + dc);
  }
  Opnd shift_along(int a, int d, i64 v) const { return d == 0 ? Opnd{a, v, 0} : Opnd{a, 0, v}; }
  i64 any_delta(int d) {
    const std::vector<i64> ds = deltas(d);
    return ds[static_cast<std::size_t>(pick(static_cast<i64>(ds.size())))];
  }

  /// Store f(t, u) at every element of dst(b), evaluating the whole right
  /// side before the first store.
  template <typename F>
  void assign(int dst, const Box& b, F&& f) {
    const i64 rs = b.r.size();
    const i64 cs = b.c.size();
    std::vector<double> out(static_cast<std::size_t>(rs * cs));
    for (i64 t = 0; t < rs; ++t)
      for (i64 u = 0; u < cs; ++u) out[static_cast<std::size_t>(t * cs + u)] = f(t, u);
    for (i64 t = 0; t < rs; ++t)
      for (i64 u = 0; u < cs; ++u)
        at(dst, b.r.at(t), b.c.at(u)) = out[static_cast<std::size_t>(t * cs + u)];
  }

  void emit(const std::string& stmt, const std::vector<Opnd>& ops, int dst, bool blocked) {
    src_ << "explain " << stmt << '\n' << stmt << '\n';
    for (const Opnd& o : ops) {
      if (!blocked && eligible(o, dst)) ++expected_shifts_;
      if (diagonal(o)) ++expected_diagonals_;
    }
  }

  /// dst(b) = (A(b + delta along d) + A(b + delta2 along d2)) / c: the
  /// heat-stencil shape, one or both operands shifted.
  void add_stencil(int d, i64 delta) {
    const int dst = 1 + static_cast<int>(pick(2));
    const int d2 = static_cast<int>(pick(2));
    const Opnd o1 = shift_along(0, d, delta);
    const Opnd o2 = shift_along(0, d2, any_delta(d2));
    const Box b = box({o1, o2});
    const i64 c = 1 + pick(5);
    emit(text(dst, b) + " = (" + text(0, b, o1.dr, o1.dc) + " + " + text(0, b, o2.dr, o2.dc) +
             ") / " + std::to_string(c),
         {o1, o2}, dst, false);
    assign(dst, b, [&](i64 t, i64 u) {
      return (get(0, b, t, u, o1.dr, o1.dc) + get(0, b, t, u, o2.dr, o2.dc)) /
             static_cast<double>(c);
    });
  }

  /// dst(b) = A(b + (delta, e)) * c - C(b + delta along d): a diagonal
  /// shift (demoted) beside a one-dimensional one.
  void add_diagonal(int d, i64 delta) {
    const int dst = 1;
    i64 e = any_delta(1 - d);
    if (e == 0) e = 1;
    const Opnd diag = d == 0 ? Opnd{0, delta, e} : Opnd{0, e, delta};
    const Opnd one = shift_along(2, d, delta);
    const Box b = box({diag, one});
    const i64 c = 1 + pick(9);
    emit(text(dst, b) + " = " + text(0, b, diag.dr, diag.dc) + " * " + std::to_string(c) +
             " - " + text(2, b, one.dr, one.dc),
         {diag, one}, dst, false);
    assign(dst, b, [&](i64 t, i64 u) {
      return get(0, b, t, u, diag.dr, diag.dc) * static_cast<double>(c) -
             get(2, b, t, u, one.dr, one.dc);
    });
  }

  /// dst(b) = D(b + delta along d) + A(b + delta along d): D has another
  /// mapping (scratch copy) while A shifts in place.
  void add_other_mapping(int d, i64 delta) {
    const int dst = 1 + static_cast<int>(pick(2));
    const Opnd od = shift_along(3, d, delta);
    const Opnd oa = shift_along(0, d, delta);
    const Box b = box({od, oa});
    emit(text(dst, b) + " = " + text(3, b, od.dr, od.dc) + " + " + text(0, b, oa.dr, oa.dc),
         {od, oa}, dst, false);
    assign(dst, b, [&](i64 t, i64 u) {
      return get(3, b, t, u, od.dr, od.dc) + get(0, b, t, u, oa.dr, oa.dc);
    });
  }

  /// A(b) = (A(b + delta along d) + A(b - delta along d)) / 2: the target
  /// read through its own shifted operands stays on scratch copies.
  void add_self(int d, i64 delta) {
    const Opnd o1 = shift_along(0, d, delta);
    const Opnd o2 = shift_along(0, d, -delta);
    const Box b = box({o1, o2});
    emit(text(0, b) + " = (" + text(0, b, o1.dr, o1.dc) + " + " + text(0, b, o2.dr, o2.dc) +
             ") / 2",
         {o1, o2}, 0, false);
    assign(0, b, [&](i64 t, i64 u) {
      return (get(0, b, t, u, o1.dr, o1.dc) + get(0, b, t, u, o2.dr, o2.dc)) / 2.0;
    });
  }

  /// dst(b) = A(b + delta along d) - dst(b): a statement that reads its
  /// target keeps every shifted operand a scratch copy.
  void add_reads_target(int d, i64 delta) {
    const int dst = 1 + static_cast<int>(pick(2));
    const Opnd o = shift_along(0, d, delta);
    const Box b = box({o});
    emit(text(dst, b) + " = " + text(0, b, o.dr, o.dc) + " - " + text(dst, b), {o}, dst,
         true);
    assign(dst, b,
           [&](i64 t, i64 u) { return get(0, b, t, u, o.dr, o.dc) - get(dst, b, t, u); });
  }

  std::mt19937_64 rng_;
  bool long_rows_;
  i64 n_[2] = {0, 0};
  i64 k_[2] = {1, 1};
  i64 expected_shifts_ = 0;
  i64 expected_diagonals_ = 0;
  std::vector<double> ref_[4];
  std::ostringstream src_;
};

TEST(CompilerFuzz, ShiftedRegionGridMatchesAcrossTiers) {
  using F = RegionShiftFuzzer;
  const i64 grids[][2] = {{1, 4}, {4, 1}, {2, 2}, {3, 2}};
  const F::Dist kinds[] = {F::kBlock, F::kCyclic, F::kCyclicK};
  i64 programs = 0;
  for (u64 g = 0; g < 4; ++g) {
    for (u64 i = 0; i < 3; ++i) {
      // Each dimension sees every distribution kind across the loop.
      const F::Dist d1 = kinds[i];
      const F::Dist d2 = kinds[(i + g + 1) % 3];
      for (u64 rep = 0; rep < 2; ++rep) {
        const u64 seed = ((g * 3 + i) * 2 + rep) * 0xA24BAED4963EE407ULL + 29;
        F fuzzer(seed, grids[g][0], grids[g][1], d1, d2, rep == 1);
        for (int d = 0; d < 2; ++d)
          for (const i64 delta : fuzzer.deltas(d)) fuzzer.add_statements(d, delta);
        fuzzer.run_and_check();
        if (HasFatalFailure()) return;
        ++programs;
      }
    }
  }
  EXPECT_EQ(programs, 24);
}

TEST(CompilerFuzz, ShiftedRegionOfAnotherRowCountMatchesAcrossTiers) {
  // A shifted operand reads its own rows (lane.shift) when its array has the
  // target's distribution and alignment, and its extent in every dimension
  // but the first, which sets no local row stride. N has more rows than the
  // target M and Q fewer, so their shifts along either dimension take
  // lane.shift; R has one column fewer, so its shifts stay region loads.
  // Both tiers on both executors must agree bit for bit.
  std::mt19937_64 rng(0x0DD5EED5ULL);
  const i64 grids[][2] = {{2, 2}, {3, 2}, {1, 4}, {4, 1}};
  for (const auto& g : grids) {
    for (int rep = 0; rep < 3; ++rep) {
      const i64 rows = 10 + static_cast<i64>(rng() % 10);
      const i64 cols = 10 + static_cast<i64>(rng() % 10);
      const i64 extent[] = {rows, rows + 1 + static_cast<i64>(rng() % 6),
                            rows - 1 - static_cast<i64>(rng() % 3), rows};
      const char* names[] = {"M", "N", "Q", "R"};
      std::ostringstream src;
      src << "processors G(" << g[0] << ", " << g[1] << ")\n"
          << "template T(" << extent[1] << ", " << cols << ")\n"
          << "distribute T onto G cyclic(" << 2 + rng() % 4 << ") cyclic(" << 2 + rng() % 4
          << ")\n";
      for (int a = 0; a < 4; ++a) {
        const i64 c = a == 3 ? cols - 1 : cols;
        src << "array " << names[a] << '(' << extent[a] << ", " << c << ") align with T(i, j)\n";
        // Distinct values: column 0 row by row, then doubled rightwards.
        for (i64 i = 0; i < extent[a]; ++i)
          src << names[a] << '(' << i << ':' << i << ", 0:0) = " << i * 101 + a * 10007 << '\n';
        for (i64 s = 1; s < c; s *= 2)
          src << names[a] << "(0:" << extent[a] - 1 << ", " << s << ':' << s + std::min(s, c - s) - 1
              << ") = " << names[a] << "(0:" << extent[a] - 1 << ", 0:" << std::min(s, c - s) - 1
              << ") + " << s << '\n';
      }
      // The target box leaves one row and column of Q and R around it.
      const std::string h = std::to_string(extent[2] - 2);
      const std::string hm = std::to_string(extent[2] - 3);
      const std::string hp = std::to_string(extent[2] - 1);
      const std::string w = std::to_string(cols - 3);
      const std::string wm = std::to_string(cols - 4);
      const std::string wp = std::to_string(cols - 2);
      const std::string box = "M(1:" + h + ", 1:" + w + ")";
      const std::string stmts[] = {
          box + " = (N(0:" + hm + ", 1:" + w + ") + Q(2:" + hp + ", 1:" + w + ")) / 2\n",
          box + " = N(1:" + h + ", 0:" + wm + ") - Q(1:" + h + ", 2:" + wp + ")\n",
          box + " = " + box + " + R(0:" + hm + ", 1:" + w + ") * R(1:" + h + ", 2:" + wp + ")\n"};
      for (const std::string& stmt : stmts) src << "explain " << stmt << stmt;
      const std::string program = src.str();
      std::vector<u64> first;
      for (const auto mode : {SpmdExecutor::Mode::kSequential, SpmdExecutor::Mode::kThreads}) {
        for (const Tier tier : {Tier::kInterp, Tier::kBytecode}) {
          Machine machine(mode);
          machine.set_tier(tier);
          machine.run_source(program);
          const std::vector<u64> image = bits(machine.global_image("M"));
          if (first.empty()) first = image;
          ASSERT_EQ(image, first) << tier_name(tier) << '\n' << program;
          const std::string& out = machine.output();
          i64 shifts = 0;
          for (std::size_t at = out.find("lane.shift "); at != std::string::npos;
               at = out.find("lane.shift ", at + 1))
            ++shifts;
          ASSERT_EQ(shifts, 4) << out << '\n' << program;
          ASSERT_NE(out.find("stays a scratch copy: mapping differs from the target's"),
                    std::string::npos)
              << out;
        }
      }
    }
  }
}

TEST(CompilerFuzz, GridShapesOutsideTheTierFallBack) {
  // cyclic(2) over two columns of ranks: a stride-2 innermost section puts
  // every other local slot in a rank's share. It compiles like any other
  // identity-aligned target, its lanes gathered and scattered through the
  // fixed-step kernel at each row; only the non-identity-aligned target W
  // falls back.
  Machine machine;
  machine.run_source(R"(
processors G(2, 2)
template T(12, 32)
distribute T onto G cyclic(3) cyclic(2)
array U(12, 16) align with T(i, j)
array W(12, 16) align with T(i, 2*j)
explain U(0:11, 0:15:2) = U(0:11, 1:15:2) + 1
explain W(0:11, 0:15) = U(0:11, 0:15) + 1
explain U(1:10, 1:14) = (U(0:9, 1:14) + W(2:11, 1:14)) / 2
)");
  const std::string& out = machine.output();
  EXPECT_EQ(out.find("explain U: statement falls back to the interpreter tier"),
            std::string::npos)
      << out;
  const std::string strided = out.substr(0, out.find("explain W"));
  EXPECT_NE(strided.find("bytecode program for U(0:11:1, 0:15:2) on 4 ranks (96 lanes"),
            std::string::npos)
      << out;
  // Every rank owns six rows of four columns two local slots apart.
  for (int r = 0; r < 4; ++r)
    EXPECT_NE(strided.find("rank " + std::to_string(r) + ": fixed-step, 6 rows, 24 lanes"),
              std::string::npos)
        << out;
  EXPECT_NE(strided.find("load.region t0 = U(0:11:1, 1:15:2)"), std::string::npos) << out;
  EXPECT_NE(out.find("explain W: statement falls back to the interpreter tier"),
            std::string::npos)
      << out;
  // The dense, identity-aligned target compiles, with W as a region load.
  // Neither shifted operand may take lane.shift: one reads the target
  // array, the other has another mapping, and the listing says so.
  EXPECT_NE(out.find("bytecode program for U(1:10:1, 1:14:1)"), std::string::npos) << out;
  EXPECT_NE(out.find("load.region t"), std::string::npos) << out;
  EXPECT_EQ(out.find("lane.shift"), std::string::npos) << out;
  EXPECT_NE(out.find("shifted operand U(0:9:1, 1:14:1) (delta -1, 0) stays a scratch copy: "
                     "reads the target array"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("shifted operand W(2:11:1, 1:14:1) (delta 1, 0) stays a scratch copy: "
                     "mapping differs from the target's"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace cyclick::dsl
