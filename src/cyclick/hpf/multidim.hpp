// Multidimensional arrays under per-dimension cyclic(k) distributions.
//
// HPF distributes each dimension independently onto one axis of a processor
// grid (paper, Section 2: "In multidimensional arrays, alignments and
// distributions of each dimension are independent of one another"), so the
// multidimensional access problem factors into one one-dimensional problem
// per dimension. This module provides the processor grid, the per-dimension
// mapping descriptor, and the owner / local-address algebra; the cross
// product of per-dimension access sequences is assembled in the runtime.
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

/// Full mapping of a multidimensional array onto a processor grid. The
/// number of dimensions must match the grid's. Local storage on each rank is
/// dense row-major over the per-dimension *template* local capacities, so
/// that per-dimension local addresses compose linearly. (A packed layout per
/// alignment is what core/aligned.hpp computes for 1-D; for multidimensional
/// arrays we use the standard template-capacity layout that HPF compilers
/// use, which wastes space only for non-unit alignment coefficients.)
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

  /// Per-rank local storage size (identical on all ranks by construction).
  [[nodiscard]] i64 local_capacity() const noexcept { return capacity_; }

  /// Local storage extent of dimension d (local addresses are row-major
  /// over these extents).
  [[nodiscard]] i64 local_extent(std::size_t d) const { return local_extent_.at(d); }

  /// Total number of array elements.
  [[nodiscard]] i64 total_elements() const noexcept;

  /// Same per-dimension mappings on the same grid: two arrays that compare
  /// equal place every index at the same rank and local address.
  friend bool operator==(const MultiDimMapping&, const MultiDimMapping&) = default;

 private:
  std::vector<DimMapping> dims_;
  ProcessorGrid grid_;
  std::vector<i64> local_extent_;  ///< per-dim local capacity
  i64 capacity_;
};

}  // namespace cyclick
