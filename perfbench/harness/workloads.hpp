// Seeded workload generator and the serial reference every run is checked
// against.
//
// A workload is a mini-HPF program: a setup text (declarations and initial
// data) and a sequence of step texts. The program under test only ever sees
// that text. The same seed gives byte-identical text, and the seed varies
// the program's content (distributions, strides, initial data) but never
// its size, so run-to-run timing spread across seeds reflects the system,
// not the draw.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cyclick/support/types.hpp"

namespace perfbench {

using cyclick::i64;
using u64 = std::uint64_t;

/// splitmix64. Fully specified, unlike the std distributions, so a seed
/// yields the same draws with any standard library.
class Rng {
 public:
  explicit Rng(u64 seed) : s_(seed) {}
  u64 next();
  /// Uniform integer in [lo, hi].
  i64 range(i64 lo, i64 hi);

 private:
  u64 s_;
};

enum class Kind { kStencil1d, kSectionsCold, kHeat2d };

/// A regular section lower:upper:stride (stride may be negative).
struct Sec {
  i64 lower = 0, upper = 0, stride = 1;
  [[nodiscard]] i64 size() const { return (upper - lower) / stride + 1; }
  [[nodiscard]] i64 at(i64 t) const { return lower + t * stride; }
  [[nodiscard]] std::string text() const;
};

/// One sections_cold statement: dst(dsec) = src(ssec) between the two
/// arrays, or a redistribute of one array onto a fresh cyclic(block).
struct ColdStep {
  bool redistribute = false;
  int dst = 0;  ///< array index (0 = X, 1 = Y); the source is the other one
  Sec dsec, ssec;
  i64 block = 1;
};

/// A constant fill of a (1-D or 2-D) strided section of the initial data.
struct Fill {
  int array = 0;
  Sec sec[2];
  i64 value = 0;
};

struct Workload {
  std::string name;
  Kind kind = Kind::kStencil1d;
  bool proc = false;         ///< stencil1d_proc: runs on --backend=proc ranks
  i64 n = 0;                 ///< elements (per dimension for heat2d)
  i64 procs = 1;             ///< total ranks
  i64 block[2] = {1, 1};     ///< stencil1d: {k, k}; heat2d: per dim; cold: X, Y
  i64 ramp_div[2] = {1, 1};  ///< 1-D arrays start as i / ramp_div
  i64 base_value = 0;        ///< heat2d: U's initial value outside the fills
  std::vector<Fill> fills;
  std::vector<std::string> arrays;  ///< declared array names, reference order
  std::string setup_text;
  std::string sweep_text;  ///< stencils: the fixed sweep every step runs
  std::string check_text;  ///< reduction run after the steps: "r = sum(...)"

  /// Text of step i. sections_cold steps are drawn in order from the
  /// workload's own stream, keeping only the latest, so memory does not grow
  /// with the step count; asking for an earlier step redraws from the start.
  std::string step_text(i64 i);
  /// Destination elements step i writes.
  i64 step_elements(i64 i);
  /// sections_cold: the structured form of step i.
  const ColdStep& cold_step(i64 i);

 private:
  u64 stream_seed_ = 0;
  Rng stream_{0};
  i64 cold_index_ = -1;  ///< index of cold_, -1 before the first draw
  ColdStep cold_;
  friend Workload make_workload(const std::string& name, u64 seed);
};

/// Names accepted by make_workload.
const std::vector<std::string>& workload_names();

/// Build the named workload for `seed`; throws std::invalid_argument for an
/// unknown name.
Workload make_workload(const std::string& name, u64 seed);

/// Plain serial recomputation of a workload's arrays over std::vector<double>,
/// written independently of the library (same operation order as the
/// program text, so results must match bit for bit).
class Reference {
 public:
  explicit Reference(const Workload& w);
  /// Apply step i of `w`.
  void step(Workload& w, i64 i);
  [[nodiscard]] const std::vector<double>& image(std::size_t array) const {
    return arrays_[array];
  }
  std::vector<double>& mutable_image(std::size_t array) { return arrays_[array]; }
  /// Serial value of the workload's check_text reduction.
  [[nodiscard]] double check_sum() const;

 private:
  i64 n_;
  std::vector<std::vector<double>> arrays_;
  std::vector<double> tmp_;
};

}  // namespace perfbench
