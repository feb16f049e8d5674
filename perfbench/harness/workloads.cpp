#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

u64 Rng::next() {
  u64 z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

i64 Rng::range(i64 lo, i64 hi) {
  const u64 span = static_cast<u64>(hi - lo) + 1;
  return lo + static_cast<i64>(next() % span);
}

std::string Sec::text() const {
  std::string s = std::to_string(lower);
  s += ':';
  s += std::to_string(upper);
  if (stride != 1) {
    s += ':';
    s += std::to_string(stride);
  }
  return s;
}

namespace {

std::string num(i64 v) { return std::to_string(v); }

/// A strided section of `count` elements with |stride| = mag inside [0, n).
Sec draw_section(Rng& rng, i64 n, i64 count, i64 mag, bool descending) {
  const i64 span = (count - 1) * mag;
  if (descending) {
    const i64 hi = rng.range(span, n - 1);
    return Sec{hi, hi - span, -mag};
  }
  const i64 lo = rng.range(0, n - 1 - span);
  return Sec{lo, lo + span, mag};
}

ColdStep draw_cold_step(Rng& rng, i64 n) {
  ColdStep s;
  s.dst = static_cast<int>(rng.range(0, 1));
  if (rng.range(0, 15) == 0) {
    s.redistribute = true;
    s.block = rng.range(1, 128);
    return s;
  }
  const i64 count = rng.range(32, 1024);
  const i64 dmag = rng.range(1, 63);
  const i64 smag = rng.range(1, 63);
  s.dsec = draw_section(rng, n, count, dmag, rng.range(0, 7) == 0);
  s.ssec = draw_section(rng, n, count, smag, rng.range(0, 7) == 0);
  return s;
}

void fill_image(std::vector<double>& a, i64 n, const Fill& f, bool two_d) {
  const double v = static_cast<double>(f.value);
  if (!two_d) {
    for (i64 t = 0; t < f.sec[0].size(); ++t) a[static_cast<std::size_t>(f.sec[0].at(t))] = v;
    return;
  }
  for (i64 t = 0; t < f.sec[0].size(); ++t)
    for (i64 u = 0; u < f.sec[1].size(); ++u)
      a[static_cast<std::size_t>(f.sec[0].at(t) * n + f.sec[1].at(u))] = v;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"stencil1d", "sections_cold", "heat2d",
                                              "stencil1d_proc"};
  return names;
}

Workload make_workload(const std::string& name, u64 seed) {
  Workload w;
  w.name = name;
  // Mix the workload name into the stream so two workloads never share draws.
  u64 h = 1469598103934665603ULL;
  for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  Rng rng(seed ^ h);

  if (name == "stencil1d" || name == "stencil1d_proc") {
    w.kind = Kind::kStencil1d;
    w.proc = name == "stencil1d_proc";
    w.n = w.proc ? i64{1} << 16 : i64{1} << 20;
    w.procs = 4;
    w.block[0] = w.block[1] = rng.range(24, 40);
    w.ramp_div[0] = rng.range(3, 17);
    w.arrays = {"A", "B"};
    const i64 n = w.n;
    std::string s = "processors P(" + num(w.procs) + ")\ntemplate T(" + num(n) + ")\n" +
                    "distribute T onto P cyclic(" + num(w.block[0]) + ")\n" +
                    "array A(" + num(n) + ") align with T(i)\n" + "array B(" + num(n) +
                    ") align with T(i)\n" + "forall (i = 0:" + num(n - 1) + ") A(i) = i / " +
                    num(w.ramp_div[0]) + "\n";
    for (int f = 0; f < 3; ++f) {
      Fill fill;
      fill.array = 0;
      const i64 st = rng.range(2, 97);
      const i64 lo = rng.range(0, 99);
      const i64 count = (n - 1 - rng.range(0, 99) - lo) / st + 1;
      fill.sec[0] = Sec{lo, lo + (count - 1) * st, st};
      fill.value = rng.range(-50, 50);
      w.fills.push_back(fill);
      s += "A(" + fill.sec[0].text() + ") = " + num(fill.value) + "\n";
    }
    s += "B(0:" + num(n - 1) + ") = 0\n";
    w.setup_text = s;
    const std::string inner = num(1) + ":" + num(n - 2);
    const std::string left = "0:" + num(n - 3);
    const std::string right = "2:" + num(n - 1);
    w.sweep_text = "B(" + inner + ") = (A(" + left + ") + A(" + right + ")) / 2\n" + "A(" +
                   inner + ") = (B(" + left + ") + B(" + right + ")) / 2\n";
    w.check_text = "r = sum(A(0:" + num(n - 1) + "))\n";
    return w;
  }

  if (name == "sections_cold") {
    w.kind = Kind::kSectionsCold;
    w.n = i64{1} << 16;
    w.procs = 8;
    w.block[0] = 3;
    w.block[1] = 64;
    w.ramp_div[0] = rng.range(3, 17);
    w.ramp_div[1] = rng.range(3, 17);
    w.arrays = {"X", "Y"};
    const i64 n = w.n;
    w.setup_text = "processors P(8)\ntemplate TX(" + num(n) + ")\ntemplate TY(" + num(n) +
                   ")\ndistribute TX onto P cyclic(3)\ndistribute TY onto P cyclic(64)\n" +
                   "array X(" + num(n) + ") align with TX(i)\n" + "array Y(" + num(n) +
                   ") align with TY(i)\n" + "forall (i = 0:" + num(n - 1) + ") X(i) = i / " +
                   num(w.ramp_div[0]) + "\n" + "forall (i = 0:" + num(n - 1) +
                   ") Y(i) = i / " + num(w.ramp_div[1]) + "\n";
    w.check_text = "r = sum(X(0:" + num(n - 1) + "))\n";
    w.stream_seed_ = rng.next();
    return w;
  }

  if (name == "heat2d") {
    w.kind = Kind::kHeat2d;
    w.n = 256;
    w.procs = 4;
    w.block[0] = rng.range(4, 16);
    w.block[1] = rng.range(4, 16);
    w.base_value = rng.range(1, 9);
    w.arrays = {"U", "V"};
    const i64 n = w.n;
    const std::string all = "0:" + num(n - 1) + ", 0:" + num(n - 1);
    std::string s = "processors G(2, 2)\ntemplate S(" + num(n) + ", " + num(n) + ")\n" +
                    "distribute S onto G cyclic(" + num(w.block[0]) + ") cyclic(" +
                    num(w.block[1]) + ")\n" + "array U(" + num(n) + ", " + num(n) +
                    ") align with S(i, j)\n" + "array V(" + num(n) + ", " + num(n) +
                    ") align with S(i, j)\n" + "U(" + all + ") = " + num(w.base_value) + "\n";
    for (int f = 0; f < 3; ++f) {
      Fill fill;
      fill.array = 0;
      for (auto& sec : fill.sec) {
        const i64 st = rng.range(1, 9);
        const i64 lo = rng.range(0, n / 2);
        const i64 count = (rng.range(lo, n - 1) - lo) / st + 1;
        sec = Sec{lo, lo + (count - 1) * st, st};
      }
      fill.value = rng.range(-20, 40);
      w.fills.push_back(fill);
      s += "U(" + fill.sec[0].text() + ", " + fill.sec[1].text() + ") = " + num(fill.value) +
           "\n";
    }
    s += "V(" + all + ") = 0\n";
    w.setup_text = s;
    const auto stencil = [&](const std::string& d, const std::string& src) {
      const std::string in = "1:" + num(n - 2);
      const std::string lo = "0:" + num(n - 3);
      const std::string hi = "2:" + num(n - 1);
      return d + "(" + in + ", " + in + ") = (" + src + "(" + lo + ", " + in + ") + " + src +
             "(" + hi + ", " + in + ") + " + src + "(" + in + ", " + lo + ") + " + src + "(" +
             in + ", " + hi + ")) / 4\n";
    };
    w.sweep_text = stencil("V", "U") + stencil("U", "V");
    w.check_text = "r = sum(U(" + all + "))\n";
    return w;
  }

  throw std::invalid_argument("unknown workload '" + name + "'");
}

const ColdStep& Workload::cold_step(i64 i) {
  if (i < cold_index_ || cold_index_ < 0) {
    stream_ = Rng(stream_seed_);
    cold_index_ = -1;
  }
  for (; cold_index_ < i; ++cold_index_) cold_ = draw_cold_step(stream_, n);
  return cold_;
}

std::string Workload::step_text(i64 i) {
  if (kind != Kind::kSectionsCold) return sweep_text;
  const ColdStep& s = cold_step(i);
  const std::string& d = arrays[static_cast<std::size_t>(s.dst)];
  if (s.redistribute) return "redistribute " + d + " onto P cyclic(" + num(s.block) + ")\n";
  const std::string& src = arrays[static_cast<std::size_t>(1 - s.dst)];
  return d + "(" + s.dsec.text() + ") = " + src + "(" + s.ssec.text() + ")\n";
}

i64 Workload::step_elements(i64 i) {
  switch (kind) {
    case Kind::kStencil1d: return 2 * (n - 2);
    case Kind::kHeat2d: return 2 * (n - 2) * (n - 2);
    case Kind::kSectionsCold: {
      const ColdStep& s = cold_step(i);
      return s.redistribute ? n : s.dsec.size();
    }
  }
  return 0;
}

Reference::Reference(const Workload& w) : n_(w.n) {
  const bool two_d = w.kind == Kind::kHeat2d;
  const std::size_t cells = static_cast<std::size_t>(two_d ? n_ * n_ : n_);
  arrays_.assign(w.arrays.size(), std::vector<double>(cells, 0.0));
  if (two_d) {
    for (double& x : arrays_[0]) x = static_cast<double>(w.base_value);
  } else {
    for (std::size_t a = 0; a < arrays_.size(); ++a) {
      if (w.kind == Kind::kStencil1d && a == 1) break;  // B starts at zero
      const double div = static_cast<double>(w.ramp_div[a]);
      for (i64 i = 0; i < n_; ++i)
        arrays_[a][static_cast<std::size_t>(i)] = static_cast<double>(i) / div;
    }
  }
  for (const Fill& f : w.fills)
    fill_image(arrays_[static_cast<std::size_t>(f.array)], n_, f, two_d);
  tmp_.resize(cells);
}

void Reference::step(Workload& w, i64 i) {
  const i64 n = n_;
  switch (w.kind) {
    case Kind::kStencil1d: {
      std::vector<double>& a = arrays_[0];
      std::vector<double>& b = arrays_[1];
      for (i64 x = 1; x < n - 1; ++x) {
        const auto u = static_cast<std::size_t>(x);
        b[u] = (a[u - 1] + a[u + 1]) / 2.0;
      }
      for (i64 x = 1; x < n - 1; ++x) {
        const auto u = static_cast<std::size_t>(x);
        a[u] = (b[u - 1] + b[u + 1]) / 2.0;
      }
      return;
    }
    case Kind::kHeat2d: {
      const auto sweep = [n](const std::vector<double>& src, std::vector<double>& dst) {
        for (i64 r = 1; r < n - 1; ++r)
          for (i64 c = 1; c < n - 1; ++c) {
            const auto at = [n](i64 rr, i64 cc) { return static_cast<std::size_t>(rr * n + cc); };
            dst[at(r, c)] =
                (((src[at(r - 1, c)] + src[at(r + 1, c)]) + src[at(r, c - 1)]) + src[at(r, c + 1)]) /
                4.0;
          }
      };
      sweep(arrays_[0], arrays_[1]);
      sweep(arrays_[1], arrays_[0]);
      return;
    }
    case Kind::kSectionsCold: {
      const ColdStep& s = w.cold_step(i);
      if (s.redistribute) return;  // remapping never changes values
      const std::vector<double>& src = arrays_[static_cast<std::size_t>(1 - s.dst)];
      std::vector<double>& dst = arrays_[static_cast<std::size_t>(s.dst)];
      const i64 count = s.dsec.size();
      for (i64 t = 0; t < count; ++t)
        tmp_[static_cast<std::size_t>(t)] = src[static_cast<std::size_t>(s.ssec.at(t))];
      for (i64 t = 0; t < count; ++t)
        dst[static_cast<std::size_t>(s.dsec.at(t))] = tmp_[static_cast<std::size_t>(t)];
      return;
    }
  }
}

double Reference::check_sum() const {
  double acc = 0.0;
  for (const double x : arrays_[0]) acc += x;
  return acc;
}

}  // namespace perfbench
