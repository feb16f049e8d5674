// The traced run's instruments, all outside the library: an in-memory span
// log, a timing decorator for the rank transport, and the layer replay that
// re-executes a workload's statements through each layer's public entry
// points with a span around every call.
#pragma once

#include <atomic>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "cyclick/runtime/transport.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock; CLOCK_MONOTONIC on Linux, so values
/// from different processes on one host compare directly).
i64 now_ns();

/// Spans recorded in memory: name, start, end, parent, step id. Written out
/// once, at the end of the run.
class SpanLog {
 public:
  struct Span {
    const char* name;
    i64 start_ns, end_ns;
    int parent;  ///< index into spans(), -1 for a root
    i64 step;
  };

  int open(const char* name);
  void close(int id);
  void set_step(i64 step) { step_ = step; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  i64 step_ = 0;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Self time per span name (duration minus the part its children cover).
/// Root spans are the steps; their self time is the unattributed remainder.
struct SelfTimes {
  std::map<std::string, double> self_us;  ///< non-root span names
  double wall_us = 0.0;                   ///< sum of root span durations
  double unattributed_us = 0.0;           ///< root self time
  bool nested = true;                     ///< every child lies inside its parent
  std::map<i64, std::map<std::string, double>> by_step;  ///< self_us split by step id
};
SelfTimes self_times(const SpanLog& log);

/// Transport decorator that times and counts what passes through it. The
/// proc workload installs it through the public ProcessContext hook, so the
/// library itself carries no probe.
class TimingTransport final : public cyclick::Transport {
 public:
  explicit TimingTransport(cyclick::Transport& inner) : inner_(inner) {}

  [[nodiscard]] i64 ranks() const override { return inner_.ranks(); }
  void send(i64 from, i64 to, std::vector<std::byte> payload) override;
  std::vector<std::byte> recv(i64 to, i64 from) override;
  [[nodiscard]] bool ready(i64 to, i64 from) override { return inner_.ready(to, from); }
  void isend(i64 from, i64 to, std::vector<std::byte> payload, cyclick::CompletionQueue* cq,
             i64 tag) override;
  void irecv(i64 to, i64 from, cyclick::CompletionQueue& cq, i64 tag) override;
  [[nodiscard]] bool try_recv(i64 to, i64 from, std::vector<std::byte>& out) override;
  void cancel_posted(cyclick::CompletionQueue& cq) override { inner_.cancel_posted(cq); }
  [[nodiscard]] i64 recv_timeout_ms() const override { return inner_.recv_timeout_ms(); }

  std::atomic<i64> send_ns{0}, wait_ns{0}, msgs{0}, bytes{0}, failed{0};

 private:
  template <typename F>
  auto guarded(F&& f) -> decltype(f());

  cyclick::Transport& inner_;
};

/// Exact per-run counts of the replay. They depend only on the workload and
/// seed, so two replays of one seed must agree field for field.
struct ReplayCounts {
  i64 statements = 0;
  i64 table_builds = 0;
  i64 commplan_builds = 0;
  i64 commplan_bytes = 0;
  i64 region_builds = 0;
  i64 redist_builds = 0;
  i64 messages = 0;
  i64 remote_elements = 0;
  i64 moved_elements = 0;
  i64 kernel_bytes = 0;
  friend bool operator==(const ReplayCounts&, const ReplayCounts&) = default;
};

struct ReplayResult {
  ReplayCounts counts;
  i64 mismatches = 0;  ///< elements differing from the serial reference
};

/// Replay steps [0, steps) of `w` on fresh arrays and cold caches, one root
/// "step" span per step and one layer span around every layer call, then
/// compare the arrays with the serial reference.
ReplayResult replay(Workload& w, i64 steps, SpanLog& log);

/// Drop every process-wide cache the library keeps (tables, kernels, copy
/// and region plans, compiled programs), so the next statement runs cold.
void clear_library_caches();

}  // namespace perfbench
