// IndexManager: owns the grid indices compiled plans depend on and
// rebuilds them lazily once per tick (§4.1: with O(n) updates per tick,
// bulk rebuild dominates dynamic maintenance; build cost is part of every
// tick and every benchmark).

#ifndef SGL_INDEX_INDEX_MANAGER_H_
#define SGL_INDEX_INDEX_MANAGER_H_

#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/index/grid_index.h"
#include "src/storage/world.h"
#include "src/vm/vm.h"

namespace sgl {

/// Identifies one index: a class, an ordered list of numeric state fields
/// (the dimensions), and the accum predicate parts pushed into the build.
struct IndexSpec {
  ClassId cls = kInvalidClass;
  std::vector<FieldIdx> fields;
  /// Rows failing this inner-only predicate are left out; null = none.
  /// Borrowed from the compiled program; compared structurally, so sites
  /// with equal filters share a grid and sites with different ones never
  /// do.
  const Expr* inner_filter = nullptr;
  /// Numeric state field the cells are partitioned by; kInvalidField =
  /// unkeyed.
  FieldIdx key_field = kInvalidField;

  bool operator==(const IndexSpec& o) const;
};

/// Rebuild-per-tick index cache with build-cost accounting.
class IndexManager {
 public:
  IndexManager() = default;

  /// Returns the index for `spec`, building it from the world's current
  /// column contents if it has not yet been built for `tick`. A spec with
  /// an inner filter evaluates it once per row of the class on the VM,
  /// with `regs` as its register files.
  const GridIndex* GetOrBuild(const World& world, const IndexSpec& spec,
                              Tick tick, VmRegisters* regs);

  /// Cumulative statistics.
  int64_t builds() const { return builds_; }
  int64_t build_micros() const { return build_micros_; }

  /// Heap bytes across all currently built indices.
  size_t MemoryBytes() const;

 private:
  struct Entry {
    IndexSpec spec;
    std::unique_ptr<GridIndex> index;
    Tick built_at = -1;
    /// Reused column-extraction buffers: the per-tick rebuild copies the
    /// world's columns here without allocating past the high-water mark.
    std::vector<std::vector<double>> coords;
    std::vector<double> keys;
    /// The inner filter's bytecode, its input rows (0..n-1) and survivors.
    VmProgram filter_vm;
    std::vector<RowIdx> all_rows;
    std::vector<RowIdx> kept;
  };
  /// A handful of specs per program, so a linear scan finds one. Grids
  /// live behind unique_ptr, so the pointers handed out survive growth.
  std::vector<Entry> entries_;
  int64_t builds_ = 0;
  int64_t build_micros_ = 0;
};

}  // namespace sgl

#endif  // SGL_INDEX_INDEX_MANAGER_H_
