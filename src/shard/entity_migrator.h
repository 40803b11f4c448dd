// EntityMigrator: bulk columnar row movement between world shards.
//
// A migration batch is applied per class as one arena rebuild: rows are
// regrouped by destination shard (stable within a shard, so surviving
// relative order is preserved) and moved with EntityTable::RebuildBySlices
// — one memcpy per (column, contiguous run), no per-row Value
// round-trips — after which the open-addressing directory is refreshed in
// a single pass. The same slice machinery implements bulk spawn (append a
// default-initialized block, then slide it into the target shard's range)
// and bulk despawn (slices that skip the victims).
//
// All scratch (assignment bytes, slice lists, per-class grouping) keeps
// its high-water capacity, so a steady rhythm of migration batches
// allocates nothing once warmed up.

#ifndef SGL_SHARD_ENTITY_MIGRATOR_H_
#define SGL_SHARD_ENTITY_MIGRATOR_H_

#include <vector>

#include "src/common/status.h"
#include "src/storage/entity_table.h"

namespace sgl {

class ShardedWorld;
struct ShardMove;

class EntityMigrator {
 public:
  /// Moves each entity to its destination shard. Unknown ids fail the
  /// whole batch before any row moves. Duplicate ids: the last move wins.
  Status Migrate(ShardedWorld* sharded, const ShardMove* moves, size_t n);

  /// Appends `n` default rows of `cls` and places them at the end of
  /// `shard`'s range. New ids append to `out_ids` if non-null.
  Status SpawnBatch(ShardedWorld* sharded, ClassId cls, size_t n, int shard,
                    std::vector<EntityId>* out_ids);

  /// Removes the given entities (directory + rows) with one rebuild per
  /// affected class.
  Status DespawnBatch(ShardedWorld* sharded, const EntityId* ids, size_t n);

 private:
  /// Regroups `cls`'s rows by assign_[row] (stable) and refreshes the
  /// partition + directory. assign_ must hold a destination shard per row.
  void RebuildClass(ShardedWorld* sharded, ClassId cls);

  TableRebuildScratch table_scratch_;
  std::vector<uint8_t> assign_;      ///< per-row destination shard
  std::vector<RowSlice> runs_;       ///< maximal same-shard runs, row order
  std::vector<uint8_t> run_shard_;   ///< destination of each run
  std::vector<uint32_t> run_starts_; ///< counting-sort offsets by shard
  std::vector<RowSlice> slices_;     ///< runs in (shard, row) order
  std::vector<uint32_t> sizes_;      ///< per-shard row counts
  std::vector<EntityId> spawn_ids_;
  std::vector<uint8_t> class_touched_;
};

}  // namespace sgl

#endif  // SGL_SHARD_ENTITY_MIGRATOR_H_
