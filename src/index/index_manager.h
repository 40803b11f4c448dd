// IndexManager: owns the grid indices compiled plans depend on and
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
#include "src/storage/world.h"

namespace sgl {

/// Identifies one index: a class and an ordered list of numeric state
/// fields (the dimensions).
struct IndexSpec {
  ClassId cls = kInvalidClass;
  std::vector<FieldIdx> fields;

  bool operator<(const IndexSpec& o) const {
    if (cls != o.cls) return cls < o.cls;
    return fields < o.fields;
  }
};

/// Rebuild-per-tick index cache with build-cost accounting.
class IndexManager {
 public:
  IndexManager() = default;

  /// Returns the index for `spec`, building it from the world's current
  /// column contents if it has not yet been built for `tick`.
  const GridIndex* GetOrBuild(const World& world, const IndexSpec& spec,
                              Tick tick);

  /// Cumulative statistics.
  int64_t builds() const { return builds_; }
  int64_t build_micros() const { return build_micros_; }

  /// Heap bytes across all currently built indices.
  size_t MemoryBytes() const;

 private:
  struct Entry {
    std::unique_ptr<GridIndex> index;
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
