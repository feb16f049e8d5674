// Block-scattered dense matrices: the ScaLAPACK-style 2-D block-cyclic
// decomposition that Dongarra, van de Geijn and Walker advocate — the use
// case the paper's introduction cites for efficient cyclic(k) support.
//
// A DistMatrix wraps a 2-D DistributedArray whose rows are cyclic(rb) over the
// grid's row dimension and columns cyclic(cb) over its column dimension.
// The key structural property (used by SUMMA, `blas.hpp`): every rank in
// one grid row owns the same set of matrix rows, and every rank in one grid
// column owns the same set of matrix columns.
#pragma once

#include "cyclick/runtime/section_ops.hpp"

namespace cyclick {

template <typename T>
class DistMatrix {
 public:
  /// rows x cols matrix, cyclic(rb) x cyclic(cb) over a pr x pc grid.
  DistMatrix(i64 rows, i64 cols, i64 rb, i64 cb, i64 pr, i64 pc)
      : rows_(rows),
        cols_(cols),
        row_dist_(pr, rb),
        col_dist_(pc, cb),
        data_(make_mapping(rows, cols, row_dist_, col_dist_)) {}

  [[nodiscard]] i64 rows() const noexcept { return rows_; }
  [[nodiscard]] i64 cols() const noexcept { return cols_; }
  [[nodiscard]] const BlockCyclic& row_dist() const noexcept { return row_dist_; }
  [[nodiscard]] const BlockCyclic& col_dist() const noexcept { return col_dist_; }
  [[nodiscard]] const ProcessorGrid& grid() const noexcept { return data_.mapping().grid(); }
  [[nodiscard]] i64 ranks() const noexcept { return grid().rank_count(); }

  [[nodiscard]] DistributedArray<T>& data() noexcept { return data_; }
  [[nodiscard]] const DistributedArray<T>& data() const noexcept { return data_; }

  [[nodiscard]] T get(i64 i, i64 j) const { return data_.get({i, j}); }
  void set(i64 i, i64 j, const T& v) { data_.set({i, j}, v); }

  /// Load from a dense row-major image.
  void from_dense(std::span<const T> image) { data_.scatter(image); }

  /// Assemble the dense row-major image.
  [[nodiscard]] std::vector<T> to_dense() const { return data_.gather(); }

  /// Matrix rows owned by grid-row coordinate `gr` (ascending).
  [[nodiscard]] std::vector<i64> owned_rows(i64 gr) const {
    return owned_indices(row_dist_, rows_, gr);
  }
  /// Matrix columns owned by grid-column coordinate `gc` (ascending).
  [[nodiscard]] std::vector<i64> owned_cols(i64 gc) const {
    return owned_indices(col_dist_, cols_, gc);
  }

 private:
  static MultiDimMapping make_mapping(i64 rows, i64 cols, const BlockCyclic& rd,
                                      const BlockCyclic& cd) {
    std::vector<DimMapping> dims;
    dims.emplace_back(rows, AffineAlignment::identity(), rd);
    dims.emplace_back(cols, AffineAlignment::identity(), cd);
    return {std::move(dims), ProcessorGrid({rd.procs(), cd.procs()})};
  }

  static std::vector<i64> owned_indices(const BlockCyclic& dist, i64 n, i64 coord) {
    std::vector<i64> out;
    if (n == 0) return out;
    out.reserve(static_cast<std::size_t>(dist.local_size(coord, n)));
    // Unit stride classifies as dense runs: whole owned blocks at a time.
    AddressEngine::global().plan(dist, {0, n - 1, 1}, coord).for_each_run(
        [&](i64 g0, i64, i64 len) {
          for (i64 i = 0; i < len; ++i) out.push_back(g0 + i);
        });
    return out;
  }

  i64 rows_;
  i64 cols_;
  BlockCyclic row_dist_;
  BlockCyclic col_dist_;
  DistributedArray<T> data_;
};

}  // namespace cyclick
