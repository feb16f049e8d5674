// Access sequences for arrays with non-identity affine alignments.
//
// HPF aligns A(i) with template cell a*i + b; the template, not the array,
// is distributed. The paper (Section 2, citing Chatterjee et al.) reduces
// the aligned problem to two applications of the identity-alignment
// machinery:
//
//   application 1 (the *layout* problem): the template cells occupied by
//     any element of A form the regular section (b : a(n-1)+b : a); a
//     processor stores its share packed in increasing-cell order, so the
//     packed local address of a cell is its *rank* among the processor's
//     layout cells;
//   application 2 (the *section* problem): the cells touched by A(l:u:s)
//     form the section (al+b : au+b : as); enumerating them on a processor
//     is the identity-alignment access problem for stride a*s.
//
// The packed-memory gap table is then the rank difference between
// consecutive section accesses. Ranks are evaluated in O(k) per query from
// per-offset closed forms, giving an O(k^2) table build — acceptable for a
// runtime (the identity fast path, which the benchmarks exercise, stays
// O(k)).
#pragma once

#include <vector>

#include "cyclick/core/access_pattern.hpp"
#include "cyclick/hpf/multidim.hpp"  // PackedLayout: application 1

namespace cyclick {

/// Access pattern of an aligned array's section in *packed* local storage
/// (one slot per array element owned, no holes for skipped template cells).
struct AlignedAccessPattern {
  i64 proc = 0;
  i64 start_array_index = -1;  ///< array index (not template cell) of first access
  i64 start_packed_local = -1; ///< packed local address of first access
  i64 length = 0;
  std::vector<i64> gaps;       ///< gaps in packed local addresses

  [[nodiscard]] bool empty() const noexcept { return length == 0; }
};

/// Two-application solver: the packed-storage access pattern of section
/// `sec` (in array index space) of an n-element array aligned by `align`
/// onto a template distributed by `dist`. The section stride may be
/// negative (descending traversal).
AlignedAccessPattern compute_aligned_pattern(const BlockCyclic& dist,
                                             const AffineAlignment& align, i64 n,
                                             const RegularSection& sec, i64 proc);

}  // namespace cyclick
