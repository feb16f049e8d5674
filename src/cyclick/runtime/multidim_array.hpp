// Multidimensional distributed arrays and region operations.
//
// HPF distributes each array dimension independently onto one axis of the
// processor grid (paper, Section 2: "the memory access problem simply
// reduces to multiple applications of the algorithm for the
// one-dimensional case"). A rank's share of a multidimensional region is
// the Cartesian product of its per-dimension access sequences; this module
// materializes the per-dimension sequences with the table-free iterator
// and walks their product.
//
// Region copies compose those per-dimension sequences into one CommPlan —
// the same compressed channel representation the 1-D engine uses — and
// execute it through the redistribution layer's phase-rotated executors,
// so N-D remaps run over every backend (in-process, one process per rank,
// simulated mesh) with byte-identical results. Plans are cached in the
// process-wide RegionPlanCache, so iterative stencils rebuild nothing.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "cyclick/core/engine.hpp"
#include "cyclick/hpf/multidim.hpp"
#include "cyclick/runtime/plan_cache.hpp"
#include "cyclick/runtime/redistribute.hpp"
#include "cyclick/runtime/spmd.hpp"

namespace cyclick {

/// A rectangular region: one regular section per dimension.
using Region = std::vector<RegularSection>;

/// Number of elements in a region (product of per-dim sizes).
inline i64 region_size(const Region& region) {
  i64 n = 1;
  for (const RegularSection& s : region) n *= s.size();
  return n;
}

template <typename T>
class MultiDimArray {
 public:
  explicit MultiDimArray(MultiDimMapping map) : map_(std::move(map)) {
    locals_.resize(static_cast<std::size_t>(map_.grid().rank_count()));
    for (auto& buf : locals_)
      buf.assign(static_cast<std::size_t>(map_.local_capacity()), T{});
  }

  [[nodiscard]] const MultiDimMapping& mapping() const noexcept { return map_; }
  [[nodiscard]] std::size_t dims() const noexcept { return map_.dims(); }

  [[nodiscard]] T get(const std::vector<i64>& index) const {
    return locals_[static_cast<std::size_t>(map_.owner_rank(index))]
                  [static_cast<std::size_t>(map_.local_address(index))];
  }
  void set(const std::vector<i64>& index, const T& value) {
    locals_[static_cast<std::size_t>(map_.owner_rank(index))]
           [static_cast<std::size_t>(map_.local_address(index))] = value;
  }

  [[nodiscard]] std::span<T> local(i64 rank) {
    CYCLICK_REQUIRE(rank >= 0 && rank < map_.grid().rank_count(), "rank out of range");
    return locals_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] std::span<const T> local(i64 rank) const {
    CYCLICK_REQUIRE(rank >= 0 && rank < map_.grid().rank_count(), "rank out of range");
    return locals_[static_cast<std::size_t>(rank)];
  }

  /// Row-major global image (last dimension fastest).
  [[nodiscard]] std::vector<T> gather() const {
    std::vector<T> image(static_cast<std::size_t>(map_.total_elements()));
    std::vector<i64> idx(dims(), 0);
    for (std::size_t flat = 0; flat < image.size(); ++flat) {
      image[flat] = get(idx);
      bump(idx);
    }
    return image;
  }

  void scatter(std::span<const T> image) {
    CYCLICK_REQUIRE(static_cast<i64>(image.size()) == map_.total_elements(),
                    "image size mismatch");
    std::vector<i64> idx(dims(), 0);
    for (std::size_t flat = 0; flat < image.size(); ++flat) {
      set(idx, image[flat]);
      bump(idx);
    }
  }

 private:
  void bump(std::vector<i64>& idx) const {
    for (std::size_t d = dims(); d-- > 0;) {
      if (++idx[d] < map_.dim(d).extent) return;
      idx[d] = 0;
    }
  }

  MultiDimMapping map_;
  std::vector<std::vector<T>> locals_;
};

namespace detail {

/// Per-dimension share of a region on one grid coordinate: the dimension's
/// on-coordinate section elements with their per-dim local indices.
struct DimShare {
  std::vector<i64> index;      ///< array indices in this dimension
  std::vector<i64> local_idx;  ///< matching per-dim local indices
};

inline DimShare dim_share(const DimMapping& dm, const RegularSection& sec, i64 grid_coord) {
  CYCLICK_REQUIRE(!sec.empty(), "region sections must be nonempty");
  CYCLICK_REQUIRE(sec.lower >= 0 && sec.lower < dm.extent && sec.last() >= 0 &&
                      sec.last() < dm.extent,
                  "region section out of bounds");
  DimShare share;
  const SectionPlan plan =
      AddressEngine::global().plan(dm.dist, dm.align.image(sec).ascending(), grid_coord);
  plan.for_each([&](i64 cell, i64 la) {
    const auto idx = dm.align.index_of_cell(cell);
    CYCLICK_ASSERT(idx.has_value());
    share.index.push_back(*idx);
    share.local_idx.push_back(la);
  });
  return share;
}

}  // namespace detail

/// Visit every region element owned by `rank`, passing (index tuple,
/// local address). The tuple reference stays valid only during the call.
/// Returns the visit count. Cost: per-dimension O(k_d + share_d) setup,
/// O(dims) per element.
template <typename T, typename Body>
i64 for_each_owned_region(const MultiDimArray<T>& arr, const Region& region, i64 rank,
                          Body&& body) {
  const MultiDimMapping& map = arr.mapping();
  CYCLICK_REQUIRE(region.size() == map.dims(), "region arity mismatch");
  const auto coords = map.grid().coords_of(rank);

  std::vector<detail::DimShare> shares;
  shares.reserve(map.dims());
  for (std::size_t d = 0; d < map.dims(); ++d) {
    shares.push_back(detail::dim_share(map.dim(d), region[d], coords[d]));
    if (shares.back().index.empty()) return 0;  // this rank owns nothing
  }

  // Walk the Cartesian product (last dimension fastest), composing local
  // addresses from per-dim local indices row-major over local extents.
  const std::size_t nd = map.dims();
  std::vector<std::size_t> pos(nd, 0);
  std::vector<i64> index(nd);
  i64 count = 0;
  while (true) {
    i64 addr = 0;
    for (std::size_t d = 0; d < nd; ++d) {
      index[d] = shares[d].index[pos[d]];
      addr = addr * map.local_extent(d) + shares[d].local_idx[pos[d]];
    }
    body(index, addr);
    ++count;
    std::size_t d = nd;
    while (d-- > 0) {
      if (++pos[d] < shares[d].index.size()) break;
      pos[d] = 0;
      if (d == 0) return count;
    }
  }
}

/// arr(region) = value, executed SPMD.
template <typename T>
void fill_region(MultiDimArray<T>& arr, const Region& region, const T& value,
                 const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(exec.ranks() == arr.mapping().grid().rank_count(),
                  "executor/array rank mismatch");
  exec.run([&](i64 rank) {
    auto local = arr.local(rank);
    for_each_owned_region(arr, region, rank, [&](const std::vector<i64>&, i64 addr) {
      local[static_cast<std::size_t>(addr)] = value;
    });
  });
}

/// arr(region) = f(arr(region)) elementwise, executed SPMD.
template <typename T, typename F>
void transform_region(MultiDimArray<T>& arr, const Region& region, F&& f,
                      const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(exec.ranks() == arr.mapping().grid().rank_count(),
                  "executor/array rank mismatch");
  exec.run([&](i64 rank) {
    auto local = arr.local(rank);
    for_each_owned_region(arr, region, rank, [&](const std::vector<i64>&, i64 addr) {
      auto& slot = local[static_cast<std::size_t>(addr)];
      slot = f(slot);
    });
  });
}

namespace detail {

/// Common validation for region plans. With `spread` set, a source
/// dimension of size 1 is allowed to broadcast across the matching
/// destination dimension.
template <typename T>
void require_region_copy_shape(const MultiDimArray<T>& src, const Region& sregion,
                               const MultiDimArray<T>& dst, const Region& dregion,
                               const SpmdExecutor& exec, bool spread) {
  CYCLICK_REQUIRE(sregion.size() == src.dims() && dregion.size() == dst.dims(),
                  "region arity mismatch");
  CYCLICK_REQUIRE(sregion.size() == dregion.size(), "copy regions must have equal rank");
  for (std::size_t d = 0; d < sregion.size(); ++d) {
    if (spread && sregion[d].size() == 1) continue;
    CYCLICK_REQUIRE(sregion[d].size() == dregion[d].size(),
                    "copy region extents must match per dimension");
  }
  CYCLICK_REQUIRE(exec.ranks() == dst.mapping().grid().rank_count(),
                  "executor/destination rank mismatch");
  CYCLICK_REQUIRE(exec.ranks() == src.mapping().grid().rank_count(),
                  "executor/source rank mismatch");
}

/// Everything an N-D region plan's shape depends on, flattened: rank
/// count, spread flag, arity, then per dimension the source and
/// destination mapping fields (extent, alignment, distribution, grid
/// axis extent) and both sections.
template <typename T>
RegionPlanKey make_region_plan_key(const MultiDimArray<T>& src, const Region& sregion,
                                   const MultiDimArray<T>& dst, const Region& dregion,
                                   const SpmdExecutor& exec, bool spread) {
  RegionPlanKey key;
  key.reserve(3 + sregion.size() * 18);
  key.push_back(exec.ranks());
  key.push_back(spread ? 1 : 0);
  key.push_back(static_cast<i64>(sregion.size()));
  const auto mix_dim = [&key](const DimMapping& dm, i64 grid_extent,
                              const RegularSection& sec) {
    key.push_back(dm.extent);
    key.push_back(dm.align.a);
    key.push_back(dm.align.b);
    key.push_back(dm.dist.procs());
    key.push_back(dm.dist.block_size());
    key.push_back(grid_extent);
    key.push_back(sec.lower);
    key.push_back(sec.upper);
    key.push_back(sec.stride);
  };
  for (std::size_t d = 0; d < sregion.size(); ++d) {
    mix_dim(src.mapping().dim(d), src.mapping().grid().extent(d), sregion[d]);
    mix_dim(dst.mapping().dim(d), dst.mapping().grid().extent(d), dregion[d]);
  }
  return key;
}

}  // namespace detail

/// Build the scheduled plan for dst(dregion) = src(sregion): each receiver
/// enumerates its destination share (the Cartesian product of per-dim
/// access sequences) and resolves the matching source owner per element;
/// the per-channel address streams compress to their shortest period
/// exactly like the 1-D builder's. With `spread`, source dimensions of
/// size 1 broadcast across the matching destination dimension (HPF SPREAD
/// semantics — the shape SUMMA's panel broadcasts take).
template <typename T>
[[nodiscard]] RedistributionPlan build_region_plan(const MultiDimArray<T>& src,
                                                   const Region& sregion,
                                                   const MultiDimArray<T>& dst,
                                                   const Region& dregion,
                                                   const SpmdExecutor& exec,
                                                   bool spread = false) {
  detail::require_region_copy_shape(src, sregion, dst, dregion, exec, spread);
  const i64 p = exec.ranks();
  CYCLICK_COUNT("redist.region_builds", 0, 1);
  CYCLICK_TIME_SCOPE("redist.region_build_us", 0);
  CYCLICK_SPAN("plan_build", 0);
  // Count, then fill: the only transient is the two flat streams.
  std::vector<i64> sidx(sregion.size());
  const auto walk = [&](auto&& emit) {
    for (i64 m = 0; m < p; ++m)
      for_each_owned_region(dst, dregion, m, [&](const std::vector<i64>& didx, i64 addr) {
        for (std::size_t d = 0; d < sregion.size(); ++d) {
          // A size-1 source dimension pins its subscript (broadcast); every
          // other dimension maps the destination position back through the
          // section pair.
          if (sregion[d].size() == 1) {
            sidx[d] = sregion[d].lower;
          } else {
            const i64 t = (didx[d] - dregion[d].lower) / dregion[d].stride;
            sidx[d] = sregion[d].element(t);
          }
        }
        emit(m * p + src.mapping().owner_rank(sidx), addr);
      });
  };
  detail::ChannelStreams streams;
  streams.reset(p * p);
  walk([&](i64 c, i64) { streams.count(c); });
  streams.layout();
  walk([&](i64 c, i64 addr) {
    streams.put_run(c, src.mapping().local_address(sidx), 0, addr, 0, 1);
  });
  return finish_redistribution_plan(CommPlan::from_streams(p, streams),
                                    static_cast<i64>(dregion.size()));
}

/// Cache-aware region plan lookup (process-wide RegionPlanCache).
template <typename T>
std::shared_ptr<const RedistributionPlan> cached_region_plan(
    const MultiDimArray<T>& src, const Region& sregion, const MultiDimArray<T>& dst,
    const Region& dregion, const SpmdExecutor& exec, bool spread = false,
    RegionPlanCache& cache = RegionPlanCache::global()) {
  const RegionPlanKey key =
      detail::make_region_plan_key(src, sregion, dst, dregion, exec, spread);
  if (auto hit = cache.find(key)) return hit;
  auto plan = std::make_shared<const RedistributionPlan>(
      build_region_plan(src, sregion, dst, dregion, exec, spread));
  // Keep-existing insert: if another thread raced this build and cached its
  // plan first, ours is dropped. Safe because the key fully determines the
  // plan's content — returning either copy is equivalent; inserting here is
  // never a refresh. See LruCache::insert for the contract.
  cache.insert(key, plan);
  return plan;
}

/// dst(dregion) = src(sregion), where the regions have identical per-dim
/// sizes. Builds (or replays from cache) the composed N-D CommPlan and
/// executes it through the redistribution layer, so the copy runs
/// message-shaped over whichever backend is active — in-process arena,
/// the process mesh (--backend=proc), or the simulated mesh — with
/// byte-identical results.
template <typename T>
void copy_region(const MultiDimArray<T>& src, const Region& sregion, MultiDimArray<T>& dst,
                 const Region& dregion, const SpmdExecutor& exec) {
  detail::require_region_copy_shape(src, sregion, dst, dregion, exec, /*spread=*/false);
  const auto plan = cached_region_plan(src, sregion, dst, dregion, exec);
  execute_redistribution(*plan, src, dst, exec);
}

/// dst(dregion) = SPREAD(src(sregion)): like copy_region, but any source
/// dimension of size 1 replicates across the matching destination
/// dimension. This is the HPF SPREAD lowering — e.g. SUMMA's panel
/// broadcast ta(i, j) = A(i, t) for all j.
template <typename T>
void spread_region(const MultiDimArray<T>& src, const Region& sregion, MultiDimArray<T>& dst,
                   const Region& dregion, const SpmdExecutor& exec) {
  detail::require_region_copy_shape(src, sregion, dst, dregion, exec, /*spread=*/true);
  const auto plan = cached_region_plan(src, sregion, dst, dregion, exec, /*spread=*/true);
  execute_redistribution(*plan, src, dst, exec);
}

/// Reduction over a region.
template <typename T, typename Op>
T reduce_region(const MultiDimArray<T>& arr, const Region& region, T init, Op&& op,
                const SpmdExecutor& exec) {
  CYCLICK_REQUIRE(exec.ranks() == arr.mapping().grid().rank_count(),
                  "executor/array rank mismatch");
  std::vector<T> partial(static_cast<std::size_t>(exec.ranks()), T{});
  std::vector<char> seen(static_cast<std::size_t>(exec.ranks()), 0);
  exec.run([&](i64 rank) {
    auto local = arr.local(rank);
    for_each_owned_region(arr, region, rank, [&](const std::vector<i64>&, i64 addr) {
      const T& v = local[static_cast<std::size_t>(addr)];
      if (!seen[static_cast<std::size_t>(rank)]) {
        partial[static_cast<std::size_t>(rank)] = v;
        seen[static_cast<std::size_t>(rank)] = 1;
      } else {
        partial[static_cast<std::size_t>(rank)] =
            op(partial[static_cast<std::size_t>(rank)], v);
      }
    });
  });
  T out = init;
  for (i64 r = 0; r < exec.ranks(); ++r)
    if (seen[static_cast<std::size_t>(r)]) out = op(out, partial[static_cast<std::size_t>(r)]);
  return out;
}

}  // namespace cyclick
