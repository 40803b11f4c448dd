// Uniform grid index: the engine's one range index (the game-industry
// broad-phase workhorse). O(n) build via counting sort into cells (CSR
// layout), O(n) memory; queries enumerate overlapping cells and filter.
// Backs every range-indexed accum site (JoinStrategy::kGrid).
//
// A build may index only a subset of the rows (the accum's inner filter,
// evaluated once per row by the caller) and may partition the cells by a
// per-row key: cell = partition × spatial cells + spatial cell. A probe
// carrying a key walks only the partitions whose key is `!=` its own, so
// the accum's `it.f != key(outer)` conjunct costs nothing per pair.
//
// Rebuilt every tick, so Build reuses all internal buffers (coords copy,
// CSR offsets/items, counting-sort scratch) at their high-water capacity:
// a steady-state rebuild performs zero heap allocations.
#ifndef SGL_INDEX_GRID_INDEX_H_
#define SGL_INDEX_GRID_INDEX_H_

#include <vector>

#include "src/common/types.h"
#include "src/index/probe_batch.h"

namespace sgl {

/// Most key partitions one grid lays out. A build that sees more distinct
/// keys keeps one partition, and its probes drop equal-key rows after the
/// range filter instead: the same rows come out either way. Two keys is
/// the one count where the partitions win: a probe then walks one
/// partition and skips half the rows, whereas at three or more keys the
/// extra cell walks per probe cost more than the per-row check they save
/// (BM_GridQueryBatch in bench/bench_e7_index_memory.cc).
constexpr int kMaxKeyPartitions = 2;

/// d-dimensional uniform grid over points identified by RowIdx 0..n-1.
class GridIndex {
 public:
  /// `dims` in [1, kMaxIndexDims]; `target_per_cell` controls resolution:
  /// the grid picks ~n / target_per_cell spatial cells over the indexed
  /// rows' bounding box.
  explicit GridIndex(int dims, double target_per_cell = 4.0);

  int dims() const { return dims_; }
  /// Rows indexed by the last build.
  size_t size() const { return cell_items_.size(); }
  /// Key partitions of the last build: 1 when unkeyed or over the cap.
  int num_partitions() const { return num_parts_; }

  /// (Re)builds over every row of coords[k][i] with no NaN coordinate
  /// (no box holds a NaN coordinate). O(n + cells); no allocation once the
  /// internal buffers have grown to the workload's high-water size.
  void Build(const std::vector<std::vector<double>>& coords);
  /// Filtered, keyed rebuild that swaps `coords` and `keys` with the
  /// internal copies (the caller gets last build's buffers back, capacity
  /// intact), so the per-tick rebuild path copies each column exactly once.
  /// Indexes only `rows` (ascending ids into coords; null = every row),
  /// and of those only the rows with no NaN coordinate. A non-empty `keys`
  /// (keys[i] is row i's key, one per coords row) makes the grid keyed:
  /// indexed rows are grouped into key partitions by IEEE equality (-0.0
  /// joins 0.0, every NaN key joins one NaN partition), at most
  /// kMaxKeyPartitions of them.
  void Build(std::vector<std::vector<double>>&& coords,
             std::vector<double>&& keys, const std::vector<RowIdx>* rows);

  /// Appends every indexed point in the closed box to `out`, whatever its
  /// key. A box with an inverted or NaN edge holds nothing.
  void Query(const double* lo, const double* hi,
             std::vector<RowIdx>* out) const;

  /// Batched probe over num_probes boxes given as per-dim columns
  /// (lo[k][p], hi[k][p]); result contract in probe_batch.h. Slice p holds
  /// what Query(box p) + sort returns, minus, when `keys` is non-null (a
  /// keyed grid only), every row whose key is not `!=` keys[p]. Only the
  /// partitions whose key is `!=` keys[p] are walked (a NaN on either side
  /// walks all); past the partition cap the range filter's survivors are
  /// compared one by one. Restructured for the probe-bound join loop:
  /// probes are visited grouped by their box's first cell (sorted 64-bit
  /// cell<<32|probe keys), each box's innermost-dim cell run is one
  /// contiguous CSR span per partition (CellIndex is row-major with the
  /// last dim fastest) walked with the SIMD range filter, the next probe's
  /// span is prefetched, and each probe's candidates are scattered into
  /// pooled CSR output in ascending row order by EmitAscending (no
  /// comparison sort on dense slices). Zero allocations at buffer
  /// high-water.
  void QueryBatch(const double* const* lo, const double* const* hi,
                  const double* keys, size_t num_probes,
                  ProbeBatch* out) const;

  size_t MemoryBytes() const;

 private:
  /// Shared rebuild body: bins the rows of coords_ listed in `rows` (null =
  /// all) into the CSR cell layout.
  void BuildCells(const std::vector<RowIdx>* rows);
  int64_t CellCoord(int dim, double v) const;
  /// cell_of_ mark of a row the build skips (a NaN coordinate).
  static constexpr uint32_t kNoCell = UINT32_MAX;
  size_t CellIndex(const int64_t* cc) const;
  /// True if a probe with key `q` walks partition `part`.
  bool Walks(int part, const double* q) const {
    return q == nullptr || key_check_ || part_key_[part] != *q;
  }

  int dims_;
  double target_per_cell_;
  size_t n_ = 0;  // coords rows
  std::vector<std::vector<double>> coords_;
  std::vector<double> keys_;  // row -> key; empty when unkeyed
  std::vector<double> min_, max_, cell_size_;
  std::vector<int64_t> cells_per_dim_;
  size_t spatial_cells_ = 1;
  int num_parts_ = 1;
  double part_key_[kMaxKeyPartitions] = {};
  bool key_check_ = false;  // keyed, but over the cap: compare per row
  std::vector<uint32_t> cell_start_;  // CSR offsets, size = #cells + 1
  std::vector<RowIdx> cell_items_;    // point ids grouped by cell
  std::vector<uint32_t> cell_of_;     // build scratch: indexed point -> cell
  std::vector<uint32_t> cursor_;      // build scratch: CSR fill cursors
};

}  // namespace sgl

#endif  // SGL_INDEX_GRID_INDEX_H_
