// Collective operations over the byte Transport: broadcast, gather,
// all-reduce, all-to-all — the communication layer a real HPF runtime
// builds its array statements and library routines on.
//
// Topologies. bcast/gather/allreduce run over a binomial tree on the
// *relative* rank vr = (rank - root) mod p: vr's parent is vr with its
// lowest set bit cleared, and its children are vr + 2^j for every 2^j
// above that bit (clipped to p). Every collective therefore finishes in
// ceil(log2 p) rounds instead of the p-1 sends of a linear fan-out, and
// non-power-of-two worlds just lose the out-of-range children. All-to-all
// uses the redistribution layer's round-robin rotation: in phase f each
// rank sends to (rank + f) mod p and receives from (rank - f) mod p, a
// perfect matching per phase, so no destination takes p simultaneous
// senders.
//
// Determinism. Every schedule is a pure function of (rank, root, p):
// parents fold children in increasing-distance order (child vr+1 first,
// then vr+2, vr+4, ...), and allreduce folds as acc = op(acc, child_part)
// at each step. The association order of a tree fold differs from the
// linear left fold, so non-associative floating-point reductions can give
// different (equally valid) roundings than a linear reduce-at-rank-0;
// integer and exact payloads agree bit-for-bit. tests/collectives_test.cpp
// keeps the pre-tree linear implementations as the differential-testing
// reference.
//
// Scheduling discipline. All collectives are called SPMD (every rank
// calls with its own rank id inside one executor phase) and rely on the
// transport's blocking receives, so they REQUIRE the one-thread-per-rank
// executor (SpmdExecutor::Mode::kThreads) or one OS process per rank.
// Under a sequential schedule a rank would block forever on a receive
// whose matching send has not run yet; rather than hang, every collective
// consults current_spmd_mode() and throws CollectiveDeadlockError when it
// would be called from a sequential phase with more than one rank.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cyclick/runtime/spmd.hpp"
#include "cyclick/runtime/transport.hpp"

namespace cyclick {

/// Thrown instead of deadlocking when a blocking collective is invoked
/// from a sequential SPMD phase with more than one rank: the matching
/// sends of its blocking receives could never be posted.
class CollectiveDeadlockError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

/// Refuse schedules under which a blocking collective cannot complete.
/// Outside any SPMD phase (e.g. a rank process of the proc backend, where
/// peers advance independently) every schedule is fine.
inline void require_collective_schedule(const Transport& tr, const char* op) {
  if (tr.ranks() <= 1) return;
  if (current_spmd_mode() == SpmdExecutor::Mode::kSequential)
    throw CollectiveDeadlockError(
        std::string(op) +
        " called under the sequential SPMD schedule with " + std::to_string(tr.ranks()) +
        " ranks: its blocking receives can never be matched (the sending rank would only "
        "run after this one returns). Use SpmdExecutor::Mode::kThreads or one process per "
        "rank.");
}

}  // namespace detail

/// Broadcast `root`'s values to every rank over the binomial tree. Call
/// SPMD; on non-root ranks `values` is overwritten with the root's data.
/// Each parent sends to its farther child first (distance 2^j before
/// 2^(j-1)), so the whole fan-out completes in ceil(log2 p) rounds.
template <typename T>
void bcast(Transport& tr, i64 rank, i64 root, std::vector<T>& values) {
  const i64 p = tr.ranks();
  CYCLICK_REQUIRE(root >= 0 && root < p, "broadcast root out of range");
  CYCLICK_REQUIRE(rank >= 0 && rank < p, "rank out of range");
  if (p == 1) return;
  detail::require_collective_schedule(tr, "bcast");
  const i64 vr = (rank - root + p) % p;
  // mask ends at the lowest set bit of vr (the distance to the parent);
  // for the root it runs past p, covering every child distance.
  i64 mask = 1;
  while (mask < p && (vr & mask) == 0) mask <<= 1;
  if (vr != 0) values = recv_values<T>(tr, rank, ((vr - mask) + root) % p);
  mask >>= 1;
  for (; mask > 0; mask >>= 1) {
    const i64 child = vr + mask;
    if (child < p) send_values<T>(tr, rank, (child + root) % p, values);
  }
}

/// Gather every rank's buffer at `root` (concatenated in absolute rank
/// order). Returns the concatenation on the root, an empty vector
/// elsewhere. Contributions may differ in size, so each tree edge carries
/// two messages: the per-rank element counts of the sender's subtree
/// (relative-rank order), then the matching concatenated payload; the
/// root reassembles absolute order from the counts.
template <typename T>
std::vector<T> gather(Transport& tr, i64 rank, i64 root, std::span<const T> mine) {
  const i64 p = tr.ranks();
  CYCLICK_REQUIRE(root >= 0 && root < p, "gather root out of range");
  CYCLICK_REQUIRE(rank >= 0 && rank < p, "rank out of range");
  if (p == 1) return std::vector<T>(mine.begin(), mine.end());
  detail::require_collective_schedule(tr, "gather");
  const i64 vr = (rank - root + p) % p;
  // The subtree rooted at vr covers the contiguous relative ranks
  // [vr, vr + 2^h) clipped to p; children arrive in increasing distance
  // order, so `counts`/`data` stay indexed by relative offset from vr.
  std::vector<i64> counts{static_cast<i64>(mine.size())};
  std::vector<T> data(mine.begin(), mine.end());
  for (i64 mask = 1; mask < p; mask <<= 1) {
    if ((vr & mask) != 0) {
      const i64 parent = ((vr - mask) + root) % p;
      send_values<i64>(tr, rank, parent, std::span<const i64>(counts));
      send_values<T>(tr, rank, parent, std::span<const T>(data));
      return {};
    }
    const i64 child = vr + mask;
    if (child < p) {
      const i64 abs_child = (child + root) % p;
      const std::vector<i64> ccounts = recv_values<i64>(tr, rank, abs_child);
      const std::vector<T> cdata = recv_values<T>(tr, rank, abs_child);
      counts.insert(counts.end(), ccounts.begin(), ccounts.end());
      data.insert(data.end(), cdata.begin(), cdata.end());
    }
  }
  // Root: `data` holds relative ranks 0..p-1 in order; emit absolute order.
  CYCLICK_ASSERT(static_cast<i64>(counts.size()) == p);
  std::vector<i64> prefix(static_cast<std::size_t>(p) + 1, 0);
  for (i64 i = 0; i < p; ++i)
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + counts[static_cast<std::size_t>(i)];
  std::vector<T> all;
  all.reserve(data.size());
  for (i64 a = 0; a < p; ++a) {
    const i64 rel = (a - root + p) % p;
    all.insert(all.end(),
               data.begin() + static_cast<std::ptrdiff_t>(prefix[static_cast<std::size_t>(rel)]),
               data.begin() +
                   static_cast<std::ptrdiff_t>(prefix[static_cast<std::size_t>(rel) + 1]));
  }
  return all;
}

/// All-reduce: elementwise op-fold of every rank's buffer, result on all
/// ranks. Binomial reduce to rank 0 followed by a binomial broadcast:
/// at each distance 2^j a holder with that bit set ships its partial to
/// rank - 2^j, which folds it as values = op(values, incoming) — so the
/// association is the fixed binomial-tree order (rank 0 folds 1, then the
/// 2..3 aggregate, then 4..7, ...). For non-associative ops this rounding
/// differs from a linear left fold; both are deterministic.
template <typename T, typename Op>
void allreduce(Transport& tr, i64 rank, std::vector<T>& values, Op&& op) {
  const i64 p = tr.ranks();
  if (p == 1) return;
  detail::require_collective_schedule(tr, "allreduce");
  for (i64 mask = 1; mask < p; mask <<= 1) {
    if ((rank & mask) != 0) {
      send_values<T>(tr, rank, rank - mask, std::span<const T>(values));
      break;
    }
    const i64 peer = rank + mask;
    if (peer < p) {
      const std::vector<T> part = recv_values<T>(tr, rank, peer);
      CYCLICK_REQUIRE(part.size() == values.size(), "allreduce buffer size mismatch");
      for (std::size_t i = 0; i < values.size(); ++i) values[i] = op(values[i], part[i]);
    }
  }
  bcast(tr, rank, 0, values);
}

/// All-to-all with per-pair payloads: `outgoing[r]` is what this rank sends
/// to rank r; returns `incoming` with incoming[r] = what rank r sent here.
/// Self-payload transfers locally in phase 0; phase f of the rotation
/// schedule sends to (rank + f) mod p and receives from (rank - f) mod p,
/// so every phase is a perfect matching (no incast).
template <typename T>
std::vector<std::vector<T>> alltoallv(Transport& tr, i64 rank,
                                      const std::vector<std::vector<T>>& outgoing) {
  const i64 p = tr.ranks();
  CYCLICK_REQUIRE(static_cast<i64>(outgoing.size()) == p, "alltoallv arity mismatch");
  if (p > 1) detail::require_collective_schedule(tr, "alltoallv");
  std::vector<std::vector<T>> incoming(static_cast<std::size_t>(p));
  incoming[static_cast<std::size_t>(rank)] = outgoing[static_cast<std::size_t>(rank)];
  for (i64 f = 1; f < p; ++f) {
    const i64 to = (rank + f) % p;
    const i64 from = (rank - f + p) % p;
    send_values<T>(tr, rank, to, std::span<const T>(outgoing[static_cast<std::size_t>(to)]));
    incoming[static_cast<std::size_t>(from)] = recv_values<T>(tr, rank, from);
  }
  return incoming;
}

}  // namespace cyclick
