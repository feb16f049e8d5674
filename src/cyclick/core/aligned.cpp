#include "cyclick/core/aligned.hpp"

#include <algorithm>

#include "cyclick/core/iterator.hpp"
#include "cyclick/core/lattice_addresser.hpp"

namespace cyclick {

AlignedAccessPattern compute_aligned_pattern(const BlockCyclic& dist,
                                             const AffineAlignment& align, i64 n,
                                             const RegularSection& sec, i64 proc) {
  AlignedAccessPattern out;
  out.proc = proc;
  if (sec.empty()) return out;
  CYCLICK_REQUIRE(sec.lower >= 0 && sec.lower < n && sec.last() >= 0 && sec.last() < n,
                  "section must lie within the array");

  const RegularSection image = align.image(sec);  // cell-space section, any stride sign
  const i64 cell_stride = image.stride > 0 ? image.stride : -image.stride;
  const bool descending = image.stride < 0;

  // Anchor: the first cell touched in traversal order that lives on `proc`.
  i64 anchor;
  if (!descending) {
    const auto si = find_start(dist, image.lower, cell_stride, proc);
    if (!si) return out;
    anchor = si->start_global;
    out.length = si->length;
  } else {
    // Descending traversal: the anchor is the largest on-proc cell within
    // one full period below the starting cell (cf. compute_access_pattern_signed).
    const i64 d = gcd_i64(cell_stride, dist.row_length());
    const i64 period_values = (dist.row_length() / d) * cell_stride;
    const RegularSection one_period{image.lower - period_values + cell_stride, image.lower,
                                    cell_stride};
    const auto e0 = find_last(dist, one_period, proc);
    if (!e0) return out;
    anchor = *e0;
    const auto si = find_start(dist, anchor, cell_stride, proc);
    CYCLICK_ASSERT(si && si->start_global == anchor);
    out.length = si->length;
  }

  // Walk one full cycle of cell-space accesses anchored at `anchor`, convert
  // each cell to its packed rank (application 1), and differentiate.
  const PackedLayout packed(dist, align, n, proc);
  LocalAccessIterator it(dist, anchor, cell_stride, proc);
  CYCLICK_ASSERT(!it.done() && it.global() == anchor);

  std::vector<i64> ranks;
  ranks.reserve(static_cast<std::size_t>(out.length) + 1);
  for (i64 i = 0; i <= out.length; ++i) {
    // The cycle's wrap-around may step past the array's last cell; rank
    // against the idealized unbounded layout so the table stays periodic
    // (clamped and unbounded ranks agree for in-extent cells).
    ranks.push_back(packed.rank_unbounded(it.global()));
    it.advance();
  }

  out.gaps.resize(static_cast<std::size_t>(out.length));
  for (std::size_t i = 0; i + 1 < ranks.size(); ++i) out.gaps[i] = ranks[i + 1] - ranks[i];

  if (descending) {
    std::reverse(out.gaps.begin(), out.gaps.end());
    for (i64& g : out.gaps) g = -g;
  }

  const auto idx = align.index_of_cell(anchor);
  CYCLICK_ASSERT(idx.has_value());
  out.start_array_index = *idx;
  out.start_packed_local = ranks.front();
  return out;
}

}  // namespace cyclick
