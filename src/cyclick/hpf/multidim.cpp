#include "cyclick/hpf/multidim.hpp"

#include <algorithm>

namespace cyclick {

ProcessorGrid::ProcessorGrid(std::vector<i64> extents)
    : extents_(std::move(extents)), total_(1) {
  CYCLICK_REQUIRE(!extents_.empty(), "processor grid needs at least one dimension");
  for (const i64 e : extents_) {
    CYCLICK_REQUIRE(e >= 1, "grid extent must be >= 1");
    CYCLICK_REQUIRE(total_ <= INT64_MAX / e, "grid size overflows");
    total_ *= e;
  }
}

i64 ProcessorGrid::rank_of(const std::vector<i64>& coords) const {
  CYCLICK_REQUIRE(coords.size() == extents_.size(), "grid coordinate arity mismatch");
  i64 rank = 0;
  for (std::size_t d = 0; d < extents_.size(); ++d) {
    CYCLICK_REQUIRE(coords[d] >= 0 && coords[d] < extents_[d], "grid coordinate out of range");
    rank = rank * extents_[d] + coords[d];
  }
  return rank;
}

std::vector<i64> ProcessorGrid::coords_of(i64 rank) const {
  CYCLICK_REQUIRE(rank >= 0 && rank < total_, "rank out of range");
  std::vector<i64> coords(extents_.size());
  for (std::size_t d = extents_.size(); d-- > 0;) {
    coords[d] = rank % extents_[d];
    rank /= extents_[d];
  }
  return coords;
}

PackedLayout::PackedLayout(const BlockCyclic& dist, const AffineAlignment& align, i64 n,
                           i64 proc) {
  CYCLICK_REQUIRE(n >= 1, "array must have at least one element");
  CYCLICK_REQUIRE(proc >= 0 && proc < dist.procs(), "processor id out of range");
  const RegularSection layout = align.layout(n);  // ascending, stride |a|
  const i64 a = layout.stride;
  const i64 pk = dist.row_length();
  const i64 k = dist.block_size();
  const EgcdResult eg = extended_euclid(floor_mod(a, pk), pk);
  const i64 d = eg.g;
  const i64 steps = pk / d;  // j-period at a fixed offset
  period_ = steps * a;

  const i64 window_lo = k * proc;
  for (i64 o = window_lo + floor_mod(layout.lower - window_lo, d); o < window_lo + k; o += d) {
    const auto j0 = solve_congruence_min_nonneg(a, o - layout.lower, pk, eg);
    CYCLICK_ASSERT(j0.has_value());
    // Offsets first reached beyond the array extent (j0 >= n) hold no real
    // element (count 0) but still belong to the idealized unbounded layout.
    const i64 count = *j0 >= n ? 0 : (n - 1 - *j0) / steps + 1;
    classes_.push_back({layout.lower + *j0 * a, count});
    size_ += count;
  }
}

i64 PackedLayout::rank(i64 cell) const {
  i64 below = 0;
  for (const OffsetClass& cls : classes_) {
    if (cls.first_cell >= cell) continue;
    const i64 in_range = (cell - 1 - cls.first_cell) / period_ + 1;
    below += in_range < cls.count ? in_range : cls.count;
  }
  return below;
}

i64 PackedLayout::rank_unbounded(i64 cell) const {
  i64 below = 0;
  for (const OffsetClass& cls : classes_) {
    if (cls.first_cell >= cell) continue;
    below += (cell - 1 - cls.first_cell) / period_ + 1;
  }
  return below;
}

MultiDimMapping::MultiDimMapping(std::vector<DimMapping> dims, ProcessorGrid grid)
    : dims_(std::move(dims)), grid_(std::move(grid)), capacity_(1) {
  CYCLICK_REQUIRE(dims_.size() == grid_.dims(),
                  "array dimensionality must match processor grid");
  storage_.resize(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    const DimMapping& dm = dims_[d];
    CYCLICK_REQUIRE(dm.dist.procs() == grid_.extent(d),
                    "dimension distribution must match grid extent");
    const i64 first_cell = dm.align.cell(0);
    const i64 last_cell = dm.align.cell(dm.extent - 1);
    CYCLICK_REQUIRE(std::min(first_cell, last_cell) >= 0,
                    "alignment maps array outside template");
    DimStorage& st = storage_[d];
    if (dm.align.is_identity()) {
      st.capacity = dm.dist.local_capacity(dm.extent);
    } else {
      for (i64 c = 0; c < dm.dist.procs(); ++c) {
        st.packed.emplace_back(dm.dist, dm.align, dm.extent, c);
        st.capacity = std::max(st.capacity, st.packed.back().size());
      }
    }
    CYCLICK_REQUIRE(st.capacity == 0 || capacity_ <= INT64_MAX / st.capacity,
                    "local capacity overflows");
    capacity_ *= st.capacity;
  }
}

i64 MultiDimMapping::owner_rank(const std::vector<i64>& index) const {
  CYCLICK_REQUIRE(index.size() == dims_.size(), "subscript arity mismatch");
  i64 rank = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    CYCLICK_REQUIRE(index[d] >= 0 && index[d] < dims_[d].extent, "subscript out of range");
    rank = rank * dims_[d].dist.procs() + dims_[d].owner(index[d]);
  }
  return rank;
}

i64 MultiDimMapping::local_index(std::size_t d, i64 i) const {
  const DimMapping& dm = dims_[d];
  CYCLICK_REQUIRE(i >= 0 && i < dm.extent, "subscript out of range");
  const i64 cell = dm.align.cell(i);
  const DimStorage& st = storage_[d];
  if (st.packed.empty()) return dm.dist.local_index(cell);
  return st.packed[static_cast<std::size_t>(dm.dist.owner(cell))].rank(cell);
}

i64 MultiDimMapping::local_address(const std::vector<i64>& index) const {
  CYCLICK_REQUIRE(index.size() == dims_.size(), "subscript arity mismatch");
  i64 addr = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d)
    addr = addr * local_extent(d, dims_[d].owner(index[d])) + local_index(d, index[d]);
  return addr;
}

i64 MultiDimMapping::local_size(i64 rank) const {
  CYCLICK_REQUIRE(rank >= 0 && rank < grid_.rank_count(), "rank out of range");
  i64 size = 1;
  for (std::size_t d = dims_.size(); d-- > 0;) {
    const i64 e = dims_[d].dist.procs();
    size *= local_extent(d, rank % e);
    rank /= e;
  }
  return size;
}

i64 MultiDimMapping::total_elements() const noexcept {
  i64 total = 1;
  for (const DimMapping& dm : dims_) total *= dm.extent;
  return total;
}

}  // namespace cyclick
