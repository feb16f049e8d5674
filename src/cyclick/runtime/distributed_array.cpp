#include "cyclick/runtime/distributed_array.hpp"

namespace cyclick {

std::string region_text(const Region& region) {
  std::string out = "(";
  for (std::size_t d = 0; d < region.size(); ++d) {
    if (d) out += ", ";
    out += std::to_string(region[d].lower) + ':' + std::to_string(region[d].upper) + ':' +
           std::to_string(region[d].stride);
  }
  return out + ')';
}

namespace detail {

namespace {

SectionPlan dim_plan(const DimMapping& dm, const RegularSection& sec, i64 coord) {
  return AddressEngine::global().plan(dm.dist, dm.align.image(sec).ascending(), coord);
}

}  // namespace

DimShare dim_share(const MultiDimMapping& map, std::size_t d, const RegularSection& sec,
                   i64 coord) {
  const DimMapping& dm = map.dim(d);
  const PackedLayout* layout = map.packed_layout(d, coord);
  DimShare share;
  dim_plan(dm, sec, coord).for_each([&](i64 cell, i64 la) {
    const auto idx = dm.align.index_of_cell(cell);
    CYCLICK_ASSERT(idx.has_value());
    share.index.push_back(*idx);
    share.local_idx.push_back(layout != nullptr ? layout->rank(cell) : la);
  });
  return share;
}

OwnedShare owned_share(const MultiDimMapping& map, const Region& region, i64 rank) {
  CYCLICK_REQUIRE(region.size() == map.dims(), "region arity mismatch");
  CYCLICK_REQUIRE(rank >= 0 && rank < map.grid().rank_count(), "rank out of range");
  const std::size_t nd = map.dims();
  OwnedShare sh;
  bool any_empty = false;
  for (std::size_t d = 0; d < nd; ++d) {
    const RegularSection& sec = region[d];
    if (sec.empty()) {
      any_empty = true;
      continue;
    }
    const i64 extent = map.dim(d).extent;
    CYCLICK_REQUIRE(sec.lower >= 0 && sec.lower < extent && sec.last() >= 0 &&
                        sec.last() < extent,
                    "section must lie within the array");
  }
  if (any_empty) return sh;
  // Grid coordinates (last dimension fastest) and the rank's row-major
  // local address strides.
  std::vector<i64> coord(nd);
  for (std::size_t d = nd; d-- > 0;) {
    const i64 e = map.grid().extent(d);
    coord[d] = rank % e;
    rank /= e;
  }
  sh.stride.assign(nd, 1);
  for (std::size_t d = nd - 1; d-- > 0;)
    sh.stride[d] = sh.stride[d + 1] * map.local_extent(d + 1, coord[d + 1]);
  for (std::size_t d = 0; d + 1 < nd; ++d) {
    sh.outer.push_back(dim_share(map, d, region[d], coord[d]));
    if (sh.outer.back().index.empty()) return sh;
  }
  const std::size_t in = nd - 1;
  sh.packed = map.packed_layout(in, coord[in]) != nullptr;
  if (sh.packed) {
    sh.inner = dim_share(map, in, region[in], coord[in]);
    sh.empty = sh.inner.index.empty();
  } else {
    sh.plan = dim_plan(map.dim(in), region[in], coord[in]);
    sh.empty = sh.plan.empty();
    if (!sh.empty) sh.kernel = compile_kernel(sh.plan);
  }
  return sh;
}

}  // namespace detail
}  // namespace cyclick
