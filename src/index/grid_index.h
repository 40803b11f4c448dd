// Uniform grid index: the engine's one range index (the game-industry
// broad-phase workhorse). O(n) build via counting sort into cells (CSR
// layout), O(n) memory; queries enumerate overlapping cells and filter.
// Backs every range-indexed accum site (JoinStrategy::kGrid).
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

/// d-dimensional uniform grid over points identified by RowIdx 0..n-1.
class GridIndex {
 public:
  /// `dims` in [1, kMaxIndexDims]; `target_per_cell` controls resolution:
  /// the grid picks ~n / target_per_cell cells over the data's bounding box.
  explicit GridIndex(int dims, double target_per_cell = 4.0);

  int dims() const { return dims_; }
  size_t size() const { return n_; }

  /// (Re)builds over coords[k][i]. O(n + cells); no allocation once the
  /// internal buffers have grown to the workload's high-water size.
  void Build(const std::vector<std::vector<double>>& coords);
  /// Move-in overload: swaps `coords` with the internal copy (the caller
  /// gets last build's buffers back, capacity intact) — the per-tick
  /// rebuild path copies each column exactly once.
  void Build(std::vector<std::vector<double>>&& coords);

  /// Appends every point in the closed box to `out`.
  void Query(const double* lo, const double* hi,
             std::vector<RowIdx>* out) const;

  /// Batched probe over num_probes boxes given as per-dim columns
  /// (lo[k][p], hi[k][p]); result contract in probe_batch.h. Semantically
  /// identical to Query + sort per box, but restructured for the
  /// probe-bound join loop: probes are visited grouped by their box's
  /// primary cell (sorted 64-bit cell<<32|probe keys), each box's
  /// innermost-dim cell run is one contiguous CSR span (CellIndex is
  /// row-major with the last dim fastest) walked with the SIMD range
  /// filter, the next probe's span is prefetched, and each probe's
  /// candidates are scattered into pooled CSR output in ascending row
  /// order by EmitAscending (no comparison sort on dense slices). Zero
  /// allocations at buffer high-water.
  void QueryBatch(const double* const* lo, const double* const* hi,
                  size_t num_probes, ProbeBatch* out) const;

  size_t MemoryBytes() const;

 private:
  /// Shared rebuild body: bins coords_ into the CSR cell layout.
  void BuildCells();
  int64_t CellCoord(int dim, double v) const;
  size_t CellIndex(const int64_t* cc) const;

  int dims_;
  double target_per_cell_;
  size_t n_ = 0;
  std::vector<std::vector<double>> coords_;
  std::vector<double> min_, max_, cell_size_;
  std::vector<int64_t> cells_per_dim_;
  std::vector<uint32_t> cell_start_;  // CSR offsets, size = #cells + 1
  std::vector<RowIdx> cell_items_;    // point ids grouped by cell
  std::vector<uint32_t> cell_of_;     // build scratch: point -> cell
  std::vector<uint32_t> cursor_;      // build scratch: CSR fill cursors
};

}  // namespace sgl

#endif  // SGL_INDEX_GRID_INDEX_H_
