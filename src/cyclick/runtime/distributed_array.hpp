// Distributed arrays of any rank, and the one owned-element walk over them.
//
// An array is a MultiDimMapping — per-dimension affine alignment and
// cyclic(k) distribution onto a processor grid (hpf/multidim.hpp) — plus
// one local buffer per rank, sized exactly by the mapping's storage rule:
// identity-aligned dimensions at their template local index, every other
// dimension packed through the paper's two-application layout
// (core/aligned.hpp). A 1-D array is the rank-1 case, so its buffers hold
// the distribution's natural packed layout (identity) or exactly the
// elements each rank owns (aligned) — the memory model the access-sequence
// algorithms address.
//
// A rank's share of a region is the Cartesian product of its per-dimension
// access sequences (paper, Section 2: "the memory access problem simply
// reduces to multiple applications of the algorithm for the
// one-dimensional case"). The walk tabulates the outer dimensions' shares
// once per call and enumerates the innermost dimension with its
// SectionPlan and compiled kernel, so the paper's 1-D kernels stay the
// innermost enumerator at every rank.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "cyclick/core/engine.hpp"
#include "cyclick/core/kernels.hpp"
#include "cyclick/hpf/multidim.hpp"
#include "cyclick/support/types.hpp"

namespace cyclick {

template <typename T>
class DistributedArray {
 public:
  /// An array over `map`, zero-initialized.
  explicit DistributedArray(MultiDimMapping map) : map_(std::move(map)) {
    size_ = map_.total_elements();
    locals_.resize(static_cast<std::size_t>(map_.grid().rank_count()));
    for (std::size_t r = 0; r < locals_.size(); ++r)
      locals_[r].assign(static_cast<std::size_t>(map_.local_size(static_cast<i64>(r))), T{});
  }

  /// An n-element array aligned by `align` onto a template distributed by
  /// `dist`: the rank-1 mapping over a one-dimensional processor grid.
  DistributedArray(BlockCyclic dist, i64 n, AffineAlignment align = AffineAlignment::identity())
      : DistributedArray(
            MultiDimMapping({DimMapping(n, align, dist)}, ProcessorGrid({dist.procs()}))) {}

  [[nodiscard]] const MultiDimMapping& mapping() const noexcept { return map_; }
  [[nodiscard]] std::size_t dims() const noexcept { return map_.dims(); }
  /// Total number of elements (a 1-D array's extent).
  [[nodiscard]] i64 size() const noexcept { return size_; }

  /// Rank-1 arrays: the distribution and alignment of the one dimension.
  [[nodiscard]] const BlockCyclic& dist() const { return dim0().dist; }
  [[nodiscard]] const AffineAlignment& alignment() const { return dim0().align; }

  /// Rank-1 arrays: the rank owning element i.
  [[nodiscard]] i64 owner_of(i64 i) const {
    const DimMapping& dm = dim0();
    CYCLICK_REQUIRE(i >= 0 && i < dm.extent, "array index out of range");
    return dm.owner(i);
  }

  /// Rank-1 arrays: the local address of element i on its owning rank.
  [[nodiscard]] i64 local_address(i64 i) const {
    (void)dim0();
    return map_.local_index(0, i);
  }

  /// Read/write one element (crosses rank boundaries freely — simulation
  /// only): by index in a rank-1 array, by subscript tuple in any.
  [[nodiscard]] T get(i64 i) const { return slot(owner_of(i), local_address(i)); }
  void set(i64 i, const T& value) { slot(owner_of(i), local_address(i)) = value; }
  [[nodiscard]] T get(const std::vector<i64>& index) const {
    return slot(map_.owner_rank(index), map_.local_address(index));
  }
  void set(const std::vector<i64>& index, const T& value) {
    slot(map_.owner_rank(index), map_.local_address(index)) = value;
  }

  /// Rank-local storage. SPMD node code must only touch its own rank's span.
  [[nodiscard]] std::span<T> local(i64 rank) {
    CYCLICK_REQUIRE(rank >= 0 && rank < map_.grid().rank_count(), "rank out of range");
    return locals_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] std::span<const T> local(i64 rank) const {
    CYCLICK_REQUIRE(rank >= 0 && rank < map_.grid().rank_count(), "rank out of range");
    return locals_[static_cast<std::size_t>(rank)];
  }

  /// The row-major global image (last dimension fastest), for verification
  /// against sequential reference semantics.
  [[nodiscard]] std::vector<T> gather() const;

  /// Distribute a row-major global image into the local buffers.
  void scatter(std::span<const T> image);

  /// Rank-1 arrays: the packed layout of `rank` (non-identity alignments).
  [[nodiscard]] const PackedLayout& packed_layout(i64 rank) const {
    const PackedLayout* layout = packed_layout_or_null(rank);
    CYCLICK_REQUIRE(layout != nullptr, "identity arrays have no packed layout object");
    return *layout;
  }

  /// Rank-1 arrays: the packed layout of `rank`, or nullptr under identity
  /// alignment (where the distribution's O(1) local_index applies).
  [[nodiscard]] const PackedLayout* packed_layout_or_null(i64 rank) const {
    CYCLICK_REQUIRE(rank >= 0 && rank < dim0().dist.procs(), "rank out of range");
    return map_.packed_layout(0, rank);
  }

 private:
  [[nodiscard]] const DimMapping& dim0() const {
    CYCLICK_REQUIRE(map_.dims() == 1, "operation needs a one-dimensional array");
    return map_.dim(0);
  }
  [[nodiscard]] const T& slot(i64 rank, i64 addr) const {
    return locals_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(addr)];
  }
  [[nodiscard]] T& slot(i64 rank, i64 addr) {
    return locals_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(addr)];
  }

  MultiDimMapping map_;
  i64 size_ = 0;
  std::vector<std::vector<T>> locals_;
};

/// The N-D spelling of the one array type.
template <typename T> using MultiDimArray = DistributedArray<T>;

/// A rectangular region: one regular section per dimension. A section of a
/// 1-D array is the rank-1 region {sec}.
using Region = std::vector<RegularSection>;

/// Number of elements in a region (product of per-dim sizes).
inline i64 region_size(const Region& region) {
  i64 n = 1;
  for (const RegularSection& s : region) n *= s.size();
  return n;
}

/// A region as text, "(l:u:s, l:u:s)"; a rank-1 region prints as its
/// section does.
[[nodiscard]] std::string region_text(const Region& region);

namespace detail {

/// One dimension's share of a region on one grid coordinate: the owned
/// section elements in ascending local-index order, with their local
/// indices (template local index, or packed rank under alignment).
struct DimShare {
  std::vector<i64> index;      ///< array indices in this dimension
  std::vector<i64> local_idx;  ///< matching per-dim local indices
};

[[nodiscard]] DimShare dim_share(const MultiDimMapping& map, std::size_t d,
                                 const RegularSection& sec, i64 coord);

/// One rank's share of a region, resolved once per call. Element order is
/// ascending local address: rows in row-major order of the outer shares,
/// each row's innermost elements ascending.
struct OwnedShare {
  bool empty = true;            ///< the rank owns no region element
  std::vector<DimShare> outer;  ///< dimensions 0 .. dims-2
  std::vector<i64> stride;      ///< local address stride per dimension on this rank
  /// Innermost dimension under identity alignment: its engine plan
  /// (ascending cells, which are its indices) and compiled kernel.
  SectionPlan plan;
  KernelPlan kernel;
  /// Innermost dimension under any other alignment: its tabulated share.
  bool packed = false;
  DimShare inner;
};

/// `rank`'s share of `region` over `map`. Empty sections own nothing;
/// nonempty ones must lie within their dimension.
[[nodiscard]] OwnedShare owned_share(const MultiDimMapping& map, const Region& region,
                                     i64 rank);

/// Visit each local row of a share as f(base, pos): `base` is the local
/// address of the row's innermost local index 0, pos[d] the row's position
/// in outer dimension d's share.
template <typename F>
void for_each_row(const OwnedShare& sh, F&& f) {
  const std::size_t outer = sh.outer.size();
  std::vector<std::size_t> pos(outer, 0);
  while (true) {
    i64 base = 0;
    for (std::size_t d = 0; d < outer; ++d)
      base += sh.outer[d].local_idx[pos[d]] * sh.stride[d];
    f(base, static_cast<const std::vector<std::size_t>&>(pos));
    std::size_t d = outer;  // advance the odometer, last outer dimension fastest
    while (true) {
      if (d == 0) return;
      --d;
      if (++pos[d] < sh.outer[d].local_idx.size()) break;
      pos[d] = 0;
    }
  }
}

/// Visit a row's innermost elements in ascending order as f(index, la),
/// `la` relative to the row base.
template <typename F>
void for_each_inner(const OwnedShare& sh, F&& f) {
  if (sh.packed) {
    for (std::size_t j = 0; j < sh.inner.index.size(); ++j)
      f(sh.inner.index[j], sh.inner.local_idx[j]);
    return;
  }
  sh.plan.for_each_run([&](i64 g, i64 la, i64 n) {
    for (i64 i = 0; i < n; ++i) f(g + i, la + i);
  });
}

/// Visit every owned local address in ascending order: f(addr). Identity
/// innermost dimensions replay their compiled kernel.
template <typename F>
void for_each_local(const OwnedShare& sh, F&& f) {
  for_each_row(sh, [&](i64 base, const std::vector<std::size_t>&) {
    if (sh.packed) {
      for (const i64 l : sh.inner.local_idx) f(base + l);
    } else {
      kernel_for_each_local(sh.kernel, [&](i64 la) { f(base + la); });
    }
  });
}

}  // namespace detail

/// Visit every region element owned by `rank`, passing (index tuple, local
/// address) in ascending local-address order. The tuple reference stays
/// valid only during the call. Returns the visit count. Cost: per-dimension
/// O(k_d + share_d) setup, O(1) amortized per element.
template <typename T, typename Body>
i64 for_each_owned_region(const DistributedArray<T>& arr, const Region& region, i64 rank,
                          Body&& body) {
  const detail::OwnedShare sh = detail::owned_share(arr.mapping(), region, rank);
  if (sh.empty) return 0;
  std::vector<i64> index(region.size());
  i64 count = 0;
  detail::for_each_row(sh, [&](i64 base, const std::vector<std::size_t>& pos) {
    for (std::size_t d = 0; d < pos.size(); ++d) index[d] = sh.outer[d].index[pos[d]];
    detail::for_each_inner(sh, [&](i64 i, i64 la) {
      index.back() = i;
      body(static_cast<const std::vector<i64>&>(index), base + la);
      ++count;
    });
  });
  return count;
}

/// Rank-1 arrays: visit every element of `sec` owned by `rank`, passing
/// (t, local address) where t is the element's position in the section.
/// Enumeration is in ascending local-address order (ownership order;
/// statement-order semantics are the caller's concern).
template <typename T, typename Body>
i64 for_each_owned(const DistributedArray<T>& arr, const RegularSection& sec, i64 rank,
                   Body&& body) {
  return for_each_owned_region(arr, Region{sec}, rank,
                               [&](const std::vector<i64>& index, i64 la) {
                                 body((index[0] - sec.lower) / sec.stride, la);
                               });
}

namespace detail {

/// The whole array as a region.
inline Region whole_region(const MultiDimMapping& map) {
  Region region;
  for (std::size_t d = 0; d < map.dims(); ++d)
    region.emplace_back(0, map.dim(d).extent - 1, 1);
  return region;
}

/// Row-major flat position of a subscript tuple.
inline std::size_t flat_index(const MultiDimMapping& map, const std::vector<i64>& index) {
  i64 flat = 0;
  for (std::size_t d = 0; d < index.size(); ++d) flat = flat * map.dim(d).extent + index[d];
  return static_cast<std::size_t>(flat);
}

}  // namespace detail

template <typename T>
std::vector<T> DistributedArray<T>::gather() const {
  std::vector<T> image(static_cast<std::size_t>(size_));
  const Region whole = detail::whole_region(map_);
  for (i64 r = 0; r < map_.grid().rank_count(); ++r) {
    const std::span<const T> in = local(r);
    for_each_owned_region(*this, whole, r, [&](const std::vector<i64>& index, i64 la) {
      image[detail::flat_index(map_, index)] = in[static_cast<std::size_t>(la)];
    });
  }
  return image;
}

template <typename T>
void DistributedArray<T>::scatter(std::span<const T> image) {
  CYCLICK_REQUIRE(static_cast<i64>(image.size()) == size_, "image size mismatch");
  const Region whole = detail::whole_region(map_);
  for (i64 r = 0; r < map_.grid().rank_count(); ++r) {
    const std::span<T> out = local(r);
    for_each_owned_region(*this, whole, r, [&](const std::vector<i64>& index, i64 la) {
      out[static_cast<std::size_t>(la)] = image[detail::flat_index(map_, index)];
    });
  }
}

}  // namespace cyclick
