#include "cyclick/runtime/comm_plan.hpp"

namespace cyclick {
namespace {

/// Smallest pi >= 1 with (a[i], b[i]) == (a[i - pi], b[i - pi]) for every
/// pi <= i < m (KMP border period); 0 for m == 0. The stream need not be a
/// whole number of periods long.
i64 smallest_gap_period(const i64* a, const i64* b, i64 m) {
  if (m <= 0) return 0;
  thread_local std::vector<i64> fail;  // the KMP prefix buffer, reused
  if (static_cast<i64>(fail.size()) < m) fail.resize(static_cast<std::size_t>(m));
  fail[0] = 0;
  for (i64 i = 1; i < m; ++i) {
    i64 j = fail[static_cast<std::size_t>(i - 1)];
    while (j > 0 && (a[i] != a[j] || b[i] != b[j])) j = fail[static_cast<std::size_t>(j - 1)];
    if (a[i] == a[j] && b[i] == b[j]) ++j;
    fail[static_cast<std::size_t>(i)] = j;
  }
  return m - fail[static_cast<std::size_t>(m - 1)];
}

}  // namespace

CommPlan CommPlan::from_streams(i64 ranks, detail::ChannelStreams& streams) {
  CYCLICK_REQUIRE(static_cast<i64>(streams.begin.size()) == ranks * ranks + 1,
                  "channel grid does not match rank count");
  CommPlan plan;
  plan.ranks = ranks;
  plan.channels.resize(static_cast<std::size_t>(ranks * ranks));
  // Pass 1: each channel's addresses after the first become gaps (in
  // place); then its period and the statistics.
  i64 pooled = 0;
  for (std::size_t c = 0; c < plan.channels.size(); ++c) {
    Channel& ch = plan.channels[c];
    const i64 b = streams.begin[c];
    ch.count = streams.begin[c + 1] - b;
    if (ch.count == 0) continue;
    i64* sa = streams.src.data() + b;
    i64* da = streams.dst.data() + b;
    for (i64 i = ch.count - 1; i > 0; --i) {
      sa[i] -= sa[i - 1];
      da[i] -= da[i - 1];
    }
    ch.src_start = sa[0];
    ch.dst_start = da[0];
    ch.period = smallest_gap_period(sa + 1, da + 1, ch.count - 1);
    ch.gap_begin = pooled;
    pooled += ch.period;
    plan.total_elements_ += ch.count;
    if (static_cast<i64>(c) % ranks != static_cast<i64>(c) / ranks) {
      plan.remote_elements_ += ch.count;
      ++plan.message_count_;
    }
  }
  // Pass 2: the period as offsets from the start (prefix sums of the gaps).
  // Element i of a channel lives at start + (i / P) * advance + off[i mod
  // P], the shape the kernel gather/scatter replays without a serially
  // dependent address chain.
  plan.src_off.resize(static_cast<std::size_t>(pooled));
  plan.dst_off.resize(static_cast<std::size_t>(pooled));
  for (std::size_t c = 0; c < plan.channels.size(); ++c) {
    Channel& ch = plan.channels[c];
    const i64* sa = streams.src.data() + streams.begin[c];
    const i64* da = streams.dst.data() + streams.begin[c];
    for (i64 r = 0; r < ch.period; ++r) {
      plan.src_off[static_cast<std::size_t>(ch.gap_begin + r)] = ch.src_advance;
      plan.dst_off[static_cast<std::size_t>(ch.gap_begin + r)] = ch.dst_advance;
      ch.src_advance += sa[r + 1];
      ch.dst_advance += da[r + 1];
    }
    // A side is contiguous iff the whole stream steps by one (KMP then
    // compresses the gaps to the single entry {1}); single-element
    // channels are trivially contiguous. Those pack/unpack as memcpy.
    ch.src_contig = ch.count == 1 || (ch.period == 1 && ch.src_advance == 1);
    ch.dst_contig = ch.count == 1 || (ch.period == 1 && ch.dst_advance == 1);
  }
  plan.scratch_.resize(static_cast<std::size_t>(ranks * ranks));
  return plan;
}

std::size_t CommPlan::plan_bytes() const noexcept {
  return channels.capacity() * sizeof(Channel) +
         (src_off.capacity() + dst_off.capacity()) * sizeof(i64) +
         scratch_.capacity() * sizeof(std::vector<std::byte>);
}

std::size_t CommPlan::scratch_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& buf : scratch_) bytes += buf.capacity();
  return bytes;
}

}  // namespace cyclick
