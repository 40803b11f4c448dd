// Static d-dimensional orthogonal range tree (§4.2), flat arena layout.
//
// The paper: "SGL makes extensive use of large multi-dimensional orthogonal
// range tree indices. Each of these trees takes Θ(n·log^(d−1) n) space ...
// a tree with 100,000 entries of 16 bytes each takes about 2 GB to store."
// This is that structure: a layered range tree — a balanced hierarchy on
// dimension k whose every canonical node owns an associated structure over
// the same points on dimension k+1; the final dimension is a sorted array.
//
// Because O(n) points move every tick (§4.1), the tree is bulk-rebuilt per
// tick rather than dynamically maintained. The layout is therefore built for
// rebuilding: instead of node-per-allocation pointers, every layer is a
// 16-byte record slicing two global CSR-style arrays (`keys_`, `items_`),
// and every hierarchy node is a 16-byte record in one contiguous `nodes_`
// array addressing its children by index (left = first_child, right =
// first_child + 1) and its associated structure by layer index. All arrays —
// including the build scratch — are member-owned and keep their high-water
// capacity, so a steady-state rebuild performs zero heap allocations and
// MemoryBytes() is O(1) instead of a pointer walk.

#ifndef SGL_INDEX_RANGE_TREE_H_
#define SGL_INDEX_RANGE_TREE_H_

#include <vector>

#include "src/common/types.h"
#include "src/index/probe_batch.h"

namespace sgl {

/// Layered static range tree over points identified by RowIdx 0..n-1.
class RangeTree {
 public:
  /// `dims` >= 1. `leaf_size` bounds the intervals stored without an
  /// associated subtree (they are filter-scanned instead); larger leaves
  /// trade memory for query-time filtering.
  explicit RangeTree(int dims, int leaf_size = 8);

  RangeTree(const RangeTree&) = delete;
  RangeTree& operator=(const RangeTree&) = delete;

  int dims() const { return dims_; }
  size_t size() const { return n_; }

  /// (Re)builds over `coords`, where coords[k][i] is point i's k-th
  /// coordinate. All vectors must have equal length. Every internal array
  /// (coordinate copy, flat layer/node records, build scratch) is reused at
  /// its high-water capacity: a steady-state rebuild allocates nothing.
  void Build(const std::vector<std::vector<double>>& coords);
  /// Move-in overload: swaps `coords` with the internal copy, so on return
  /// the caller holds the previous build's `dims()` column buffers with
  /// their capacity intact (the first build hands back `dims()` empty
  /// columns). Cycling one buffer through this overload makes the per-tick
  /// rebuild cost exactly one O(dims·n) column copy and zero allocations.
  void Build(std::vector<std::vector<double>>&& coords);

  /// Appends every point inside the closed box [lo[k], hi[k]] for all k to
  /// `out`. Result order is deterministic (tree order) but unspecified.
  void Query(const double* lo, const double* hi,
             std::vector<RowIdx>* out) const;

  /// Batched probe over num_probes boxes given as per-dim columns
  /// (lo[k][p], hi[k][p]); result contract in probe_batch.h. The layered
  /// traversal cannot be fused across probes the way the grid's CSR walk
  /// can, so this runs one traversal per box — the win over the executor's
  /// old loop is the devirtualized probe call, the pooled CSR emission,
  /// and the in-place EmitAscending ordering of each slice. Requires
  /// dims() <= kMaxIndexDims.
  void QueryBatch(const double* const* lo, const double* const* hi,
                  size_t num_probes, ProbeBatch* out) const;

  /// Number of points in the box. Pure counting traversal — covered
  /// canonical ranges contribute their width without being materialized, so
  /// no heap allocation happens.
  size_t Count(const double* lo, const double* hi) const;

  /// Measured heap bytes of the structure (keys, items, layer/node records,
  /// coords, build scratch). O(1): sums vector capacities.
  size_t MemoryBytes() const;

  /// The paper's space formula: n * max(1, ceil(log2 n))^(d-1) * entry_bytes.
  static size_t TheoreticalBytes(size_t n, int d, size_t entry_bytes = 16);

 private:
  /// Null index into layers_ / nodes_.
  static constexpr uint32_t kNone = 0xffffffffu;

  /// One layer: `count` points sorted by `dim`, stored as the slice
  /// [off, off+count) of keys_/items_. `root` indexes nodes_ (kNone when the
  /// layer is small or on the last dimension and is scanned directly).
  struct Layer {
    uint32_t off = 0;
    uint32_t count = 0;
    uint32_t root = kNone;
    uint32_t dim = 0;
  };

  /// One balanced-hierarchy node over positions [begin, end) of its owning
  /// layer's slice. Internal nodes have an associated layer `sub` on dim+1
  /// and two children at first_child / first_child+1; leaves have neither
  /// (queries filter-scan the position interval instead).
  struct SegNode {
    uint32_t begin = 0;
    uint32_t end = 0;
    uint32_t sub = kNone;
    uint32_t first_child = kNone;
  };

  /// Shared rebuild body over the already-populated coords_.
  void BuildLayers();
  /// Appends a layer over `m` points (`src`, sorted by `dim`) to the arena
  /// and queues it for hierarchy construction. Returns its layers_ index.
  uint32_t NewLayer(int dim, const RowIdx* src, uint32_t m);
  /// Builds layer `li`'s balanced hierarchy level-by-level (ping-pong
  /// distribution of the dim+1-sorted order down the node slices).
  void BuildHierarchy(uint32_t li);
  void QueryLayer(uint32_t li, const double* lo, const double* hi,
                  std::vector<RowIdx>* out) const;
  void QuerySeg(const Layer& layer, uint32_t ni, uint32_t a, uint32_t b,
                const double* lo, const double* hi,
                std::vector<RowIdx>* out) const;
  size_t CountLayer(uint32_t li, const double* lo, const double* hi) const;
  size_t CountSeg(const Layer& layer, uint32_t ni, uint32_t a, uint32_t b,
                  const double* lo, const double* hi) const;
  /// Filter-scans positions [begin,end) of `layer` on dims >= `from_dim`;
  /// appends hits to `out` or, when `out` is null, just counts them.
  size_t ScanFilter(const Layer& layer, uint32_t begin, uint32_t end,
                    int from_dim, const double* lo, const double* hi,
                    std::vector<RowIdx>* out) const;
  /// Bisects layer `li`'s key slice to the position range matching
  /// [lo, hi] on the layer's own dimension.
  void KeyRange(const Layer& layer, double lo, double hi, uint32_t* a,
                uint32_t* b) const;

  int dims_;
  int leaf_size_;
  size_t n_ = 0;
  std::vector<std::vector<double>> coords_;

  // Flat arena: rebuilt (cleared + refilled) by every Build, never freed.
  std::vector<Layer> layers_;   ///< layers_[0] is the dim-0 root layer
  std::vector<SegNode> nodes_;
  std::vector<double> keys_;    ///< concatenated per-layer sorted keys
  std::vector<RowIdx> items_;   ///< concatenated per-layer point ids

  // Build scratch (high-water reuse; valid only during Build).
  std::vector<uint32_t> pos_of_;    ///< point -> position in current layer
  std::vector<RowIdx> level_;       ///< current level's dim+1-sorted slices
  std::vector<RowIdx> next_level_;  ///< ping-pong partner of level_
  struct Pending {
    uint32_t node = 0;       ///< nodes_ index awaiting expansion
    uint32_t slice_off = 0;  ///< its slice's offset into level_
  };
  std::vector<Pending> pend_, pend_next_;
  std::vector<uint32_t> tasks_;  ///< layer indices awaiting BuildHierarchy
};

}  // namespace sgl

#endif  // SGL_INDEX_RANGE_TREE_H_
