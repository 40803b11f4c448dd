// IndexManager: owns the spatial indices compiled plans depend on and
// rebuilds them lazily once per tick (§4.1: with O(n) updates per tick,
// bulk rebuild dominates dynamic maintenance; build cost is part of every
// tick and every benchmark).

#ifndef SGL_INDEX_INDEX_MANAGER_H_
#define SGL_INDEX_INDEX_MANAGER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/index/grid_index.h"
#include "src/index/probe_batch.h"
#include "src/index/range_tree.h"
#include "src/storage/world.h"

namespace sgl {

/// Which physical index structure backs an access path.
enum class IndexKind : uint8_t { kRangeTree, kGrid };

const char* IndexKindName(IndexKind kind);

/// Identifies one index: a class, an ordered list of numeric state fields
/// (the dimensions), and the structure kind.
struct IndexSpec {
  ClassId cls = kInvalidClass;
  std::vector<FieldIdx> fields;
  IndexKind kind = IndexKind::kRangeTree;

  bool operator<(const IndexSpec& o) const {
    if (cls != o.cls) return cls < o.cls;
    if (fields != o.fields) return fields < o.fields;
    return kind < o.kind;
  }
};

/// Type-erasing handle over RangeTree / GridIndex.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;
  virtual int dims() const = 0;
  virtual void Query(const double* lo, const double* hi,
                     std::vector<RowIdx>* out) const = 0;
  /// Batched probe: one virtual call answers num_probes boxes given as
  /// per-dim bound columns (lo[k][p], hi[k][p], k < dims()), emitting
  /// pooled CSR output whose slices are sorted ascending — bit-identical
  /// to Query + sort per box (contract: src/index/probe_batch.h). Each
  /// backend forwards to its native batch walk.
  virtual void QueryBatch(const double* const* lo, const double* const* hi,
                          size_t num_probes, ProbeBatch* out) const = 0;
  virtual size_t MemoryBytes() const = 0;
};

/// Rebuild-per-tick index cache with build-cost accounting.
class IndexManager {
 public:
  IndexManager() = default;

  /// Returns the index for `spec`, building it from the world's current
  /// column contents if it has not yet been built for `tick`.
  const SpatialIndex* GetOrBuild(const World& world, const IndexSpec& spec,
                                 Tick tick);

  /// Marks all built indices stale (e.g., after despawns compacted rows).
  /// The structures and their high-water buffers are kept: the next
  /// GetOrBuild for a spec rebuilds in place without allocating.
  void InvalidateAll();

  /// Cumulative statistics (reset with ResetStats).
  int64_t builds() const { return builds_; }
  int64_t build_micros() const { return build_micros_; }
  void ResetStats() {
    builds_ = 0;
    build_micros_ = 0;
  }

  /// Heap bytes across all currently built indices.
  size_t MemoryBytes() const;

 private:
  struct Entry {
    std::unique_ptr<SpatialIndex> index;
    Tick built_at = -1;
    /// Reused column-extraction buffers: the per-tick rebuild copies the
    /// world's columns here without allocating past the high-water mark.
    std::vector<std::vector<double>> coords;
  };
  std::map<IndexSpec, Entry> entries_;
  int64_t builds_ = 0;
  int64_t build_micros_ = 0;
};

}  // namespace sgl

#endif  // SGL_INDEX_INDEX_MANAGER_H_
