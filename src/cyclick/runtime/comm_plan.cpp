#include "cyclick/runtime/comm_plan.hpp"

namespace cyclick {
namespace detail {

i64 smallest_gap_period(std::span<const i64> a, std::span<const i64> b) {
  CYCLICK_ASSERT(a.size() == b.size());
  const std::size_t n = a.size();
  if (n == 0) return 0;
  // KMP prefix function over the paired stream; the smallest border period
  // n - fail[n-1] satisfies seq[i] == seq[i - pi] for every i >= pi, which
  // is exactly the property the cyclic gap-table replay needs (the stream
  // need not be a whole number of periods long).
  std::vector<std::size_t> fail(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t j = fail[i - 1];
    while (j > 0 && (a[i] != a[j] || b[i] != b[j])) j = fail[j - 1];
    if (a[i] == a[j] && b[i] == b[j]) ++j;
    fail[i] = j;
  }
  return static_cast<i64>(n - fail[n - 1]);
}

}  // namespace detail

void CommPlan::adopt_channels(std::vector<detail::ChannelAccum>&& accum) {
  CYCLICK_REQUIRE(static_cast<i64>(accum.size()) == ranks * ranks,
                  "channel grid does not match rank count");
  channels.assign(accum.size(), Channel{});
  src_off.clear();
  dst_off.clear();
  message_count_ = 0;
  remote_elements_ = 0;
  total_elements_ = 0;
  for (i64 m = 0; m < ranks; ++m) {
    for (i64 q = 0; q < ranks; ++q) {
      const auto idx = static_cast<std::size_t>(m * ranks + q);
      detail::ChannelAccum& acc = accum[idx];
      Channel& ch = channels[idx];
      ch.count = acc.count;
      if (acc.count == 0) continue;
      ch.src_start = acc.src_start;
      ch.dst_start = acc.dst_start;
      ch.gap_begin = static_cast<i64>(src_off.size());
      ch.period = detail::smallest_gap_period(acc.src_deltas, acc.dst_deltas);
      // Store the period as offsets-from-start (prefix sums of the gaps):
      // element i of the channel then lives at start + (i / P) * advance +
      // off[i mod P], the shape the kernel gather/scatter replays without a
      // serially dependent address chain.
      i64 soff = 0;
      i64 doff = 0;
      for (i64 r = 0; r < ch.period; ++r) {
        src_off.push_back(soff);
        dst_off.push_back(doff);
        soff += acc.src_deltas[static_cast<std::size_t>(r)];
        doff += acc.dst_deltas[static_cast<std::size_t>(r)];
      }
      ch.src_advance = soff;
      ch.dst_advance = doff;
      // A side is contiguous iff the whole stream steps by one (KMP then
      // compresses the gaps to the single entry {1}); single-element
      // channels are trivially contiguous. Those pack/unpack as memcpy.
      ch.src_contig = acc.count == 1 || (ch.period == 1 && ch.src_advance == 1);
      ch.dst_contig = acc.count == 1 || (ch.period == 1 && ch.dst_advance == 1);
      // Release the uncompressed deltas eagerly: construction's transient
      // footprint stays bounded by one receiver's share, not the section.
      acc.src_deltas = {};
      acc.dst_deltas = {};
      total_elements_ += acc.count;
      if (q != m) {
        remote_elements_ += acc.count;
        ++message_count_;
      }
    }
  }
  src_off.shrink_to_fit();
  dst_off.shrink_to_fit();
  scratch_.resize(static_cast<std::size_t>(ranks * ranks));
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
