// Multidimensional arrays under per-dimension cyclic(k) distributions.
//
// HPF distributes each dimension independently onto one axis of a processor
// grid (paper, Section 2: "In multidimensional arrays, alignments and
// distributions of each dimension are independent of one another"), so the
// multidimensional access problem factors into one one-dimensional problem
// per dimension. This module provides the processor grid, the per-dimension
// mapping descriptor, and the owner / local-address algebra — the storage
// rule every distributed array follows, whatever its rank (a 1-D array is
// the rank-1 case); the cross product of per-dimension access sequences is
// assembled in the runtime.
#pragma once

#include <vector>

#include "cyclick/hpf/alignment.hpp"
#include "cyclick/hpf/distribution.hpp"
#include "cyclick/hpf/section.hpp"
#include "cyclick/support/types.hpp"

namespace cyclick {

/// A Cartesian grid of processors; ranks are linearized row-major
/// (last dimension fastest), matching HPF PROCESSORS arrays.
class ProcessorGrid {
 public:
  explicit ProcessorGrid(std::vector<i64> extents);

  [[nodiscard]] i64 rank_count() const noexcept { return total_; }
  [[nodiscard]] std::size_t dims() const noexcept { return extents_.size(); }
  [[nodiscard]] i64 extent(std::size_t d) const { return extents_.at(d); }

  /// Linear rank of a grid coordinate tuple.
  [[nodiscard]] i64 rank_of(const std::vector<i64>& coords) const;

  /// Grid coordinates of a linear rank.
  [[nodiscard]] std::vector<i64> coords_of(i64 rank) const;

  friend bool operator==(const ProcessorGrid&, const ProcessorGrid&) = default;

 private:
  std::vector<i64> extents_;
  i64 total_;
};

/// Mapping of one array dimension: extent, affine alignment to a template
/// dimension, and the distribution of that template dimension.
struct DimMapping {
  i64 extent;             ///< array extent in this dimension
  AffineAlignment align;  ///< array index -> template cell
  BlockCyclic dist;       ///< distribution of the template dimension

  DimMapping(i64 n, AffineAlignment al, BlockCyclic d)
      : extent(n), align(al), dist(d) {
    CYCLICK_REQUIRE(n >= 1, "dimension extent must be >= 1");
  }

  /// Owning grid coordinate of array index i in this dimension.
  [[nodiscard]] i64 owner(i64 i) const noexcept { return dist.owner(align.cell(i)); }

  friend bool operator==(const DimMapping&, const DimMapping&) = default;
};

/// Application 1 of the paper's two-application reduction for aligned
/// arrays (see core/aligned.hpp): the template cells occupied by an
/// n-element array aligned by `align` form a regular section, and a
/// processor stores its share of them packed in increasing-cell order, so
/// the packed local address of a cell is its *rank* among the processor's
/// layout cells. Construction is O(k); each rank query is O(k).
class PackedLayout {
 public:
  /// Layout of an n-element array aligned by `align` to a template
  /// distributed by `dist`, on processor `proc`.
  PackedLayout(const BlockCyclic& dist, const AffineAlignment& align, i64 n, i64 proc);

  /// Number of array elements stored on this processor.
  [[nodiscard]] i64 size() const noexcept { return size_; }

  /// Packed local address of template cell `cell` (must hold an array
  /// element owned by this processor): the number of owned layout cells
  /// strictly below `cell`.
  [[nodiscard]] i64 rank(i64 cell) const;

  /// rank() against the idealized *unbounded* layout (the array extended
  /// past n with the same alignment). Coincides with rank() for cells
  /// within the layout extent; used to build the periodic gap table, whose
  /// wrap-around entries may reference cells beyond the array's end.
  [[nodiscard]] i64 rank_unbounded(i64 cell) const;

 private:
  struct OffsetClass {
    i64 first_cell;  ///< smallest layout cell at this offset
    i64 count;       ///< how many layout cells at this offset (bounded by n)
  };
  std::vector<OffsetClass> classes_;
  i64 period_ = 0;  ///< cell distance between consecutive layout cells at one offset
  i64 size_ = 0;
};

/// Full mapping of an array of any rank onto a processor grid. The number
/// of dimensions must match the grid's. Each dimension is stored one of two
/// ways on a grid coordinate:
///   - identity alignment: at its template local index, over the
///     template's local capacity (the distribution's natural layout);
///   - any other alignment: packed through that coordinate's PackedLayout,
///     one slot per owned array element.
/// A rank's local storage is dense row-major over its per-dimension local
/// extents, so per-dimension local indices compose linearly. Identity-only
/// mappings give every rank the same storage size; packed dimensions give
/// each rank exactly the elements it owns.
class MultiDimMapping {
 public:
  MultiDimMapping(std::vector<DimMapping> dims, ProcessorGrid grid);

  [[nodiscard]] std::size_t dims() const noexcept { return dims_.size(); }
  [[nodiscard]] const DimMapping& dim(std::size_t d) const { return dims_.at(d); }
  [[nodiscard]] const ProcessorGrid& grid() const noexcept { return grid_; }

  /// Linear rank owning the array element at `index` (one subscript per dim).
  [[nodiscard]] i64 owner_rank(const std::vector<i64>& index) const;

  /// Row-major local address of `index` on its owning rank.
  [[nodiscard]] i64 local_address(const std::vector<i64>& index) const;

  /// Local index of subscript i in dimension d, on the grid coordinate that
  /// owns it: the template local index under identity alignment, the
  /// packed rank otherwise.
  [[nodiscard]] i64 local_index(std::size_t d, i64 i) const;

  /// Local extent of dimension d on grid coordinate `coord`.
  [[nodiscard]] i64 local_extent(std::size_t d, i64 coord) const {
    const DimStorage& st = storage_[d];
    return st.packed.empty() ? st.capacity : st.packed[static_cast<std::size_t>(coord)].size();
  }

  /// Dimension d's packed layout on grid coordinate `coord`, or null under
  /// identity alignment (where the distribution's local index applies).
  [[nodiscard]] const PackedLayout* packed_layout(std::size_t d, i64 coord) const {
    const DimStorage& st = storage_.at(d);
    return st.packed.empty() ? nullptr : &st.packed.at(static_cast<std::size_t>(coord));
  }

  /// Local storage size of `rank`.
  [[nodiscard]] i64 local_size(i64 rank) const;

  /// Largest local storage size over the ranks; every local address lies
  /// below it.
  [[nodiscard]] i64 local_capacity() const noexcept { return capacity_; }

  /// Total number of array elements.
  [[nodiscard]] i64 total_elements() const noexcept;

  /// Same per-dimension mappings on the same grid: two arrays that compare
  /// equal place every index at the same rank and local address.
  friend bool operator==(const MultiDimMapping& x, const MultiDimMapping& y) {
    return x.dims_ == y.dims_ && x.grid_ == y.grid_;
  }

 private:
  struct DimStorage {
    i64 capacity = 0;                  ///< largest local extent over coordinates
    std::vector<PackedLayout> packed;  ///< one per coordinate; empty under identity
  };

  std::vector<DimMapping> dims_;
  ProcessorGrid grid_;
  std::vector<DimStorage> storage_;
  i64 capacity_;
};

}  // namespace cyclick
