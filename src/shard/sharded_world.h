// ShardedWorld: a World partitioned into N row-range shards.
//
// Shard s of class c owns the contiguous row range
// [shard_begin(c, s), shard_end(c, s)) of the class's column arena — the
// shard's "table" is a row slice, not a separate object, so the QUERY
// phase's cross-shard *reads* (accum joins over the full class extent,
// TargetKind::kRef dereferences) cost nothing: they are ordinary column
// reads of the replicated-by-construction read view, exactly what a
// distributed deployment gets from full-interest replication. Cross-shard
// *writes* are where the partition bites: effects targeting rows outside
// the emitting shard's ranges are routed through ShardRouter mailboxes and
// merged at the tick barrier (shard_router.h), and transaction intents
// carry their shard-of-owner in the per-shard TxnIntentLog dimension.
//
// The block partition keeps each shard's rows contiguous *and* in global
// spawn order, which is what makes the sharded tick bit-comparable to the
// single-shard one (see src/shard/README.md). Rows never change shard:
// new rows join the last shard when the partition next catches up
// (EnsurePartition), and a despawn stable-erases its row and shrinks the
// owning shard's range.

#ifndef SGL_SHARD_SHARDED_WORLD_H_
#define SGL_SHARD_SHARDED_WORLD_H_

#include <string>
#include <vector>

#include "src/storage/world.h"

namespace sgl {

class ShardedWorld {
 public:
  /// Partitions `world` (not owned, must outlive this) into `num_shards`
  /// block ranges. May be built before entities exist: the partition is
  /// (re)computed lazily on first use, so entities spawn through the
  /// plain World API.
  ShardedWorld(World* world, int num_shards);

  World& world() { return *world_; }
  const World& world() const { return *world_; }
  int num_shards() const { return num_shards_; }

  /// Block-partitions every class's current rows evenly, without moving
  /// any row. Also the fallback recovery path after a checkpoint restore
  /// whose partition cannot be resumed (different shard count).
  void PartitionBlock();

  /// Serializes the current partition (per-class shard boundaries) for a
  /// sharded checkpoint. Builds the partition first if it never was.
  void SerializePartition(std::string* out);
  /// Restores a partition serialized by SerializePartition over the
  /// already-restored world: validates shard/class counts and that the
  /// boundaries cover each class's current row count exactly, then
  /// rebuilds the per-row shard map. On error the existing partition
  /// state is left untouched — callers fall back to PartitionBlock().
  Status RestorePartition(const std::string& data);

  /// Builds the partition if it never was, and folds rows spawned since
  /// into the last shard (a pure append). Idempotent.
  void EnsurePartition();

  // --- Partition queries (valid after EnsurePartition) -----------------

  RowIdx shard_begin(ClassId cls, int s) const {
    return parts_[static_cast<size_t>(cls)].base[static_cast<size_t>(s)];
  }
  RowIdx shard_end(ClassId cls, int s) const {
    return parts_[static_cast<size_t>(cls)].base[static_cast<size_t>(s) + 1];
  }
  int ShardOfRow(ClassId cls, RowIdx row) const {
    return parts_[static_cast<size_t>(cls)].shard_of[row];
  }
  /// Shard owning `id`, or -1 if the entity does not exist. Catches the
  /// partition up first, so an entity spawned since the last tick reads
  /// as the last shard's.
  int ShardOfEntity(EntityId id);

  /// Removes an entity without disturbing range contiguity (tick-boundary
  /// only; World::Despawn's swap-remove must not be used on a partitioned
  /// world): its row is stable-erased and its shard's range shrinks by one.
  Status Despawn(EntityId id);

  /// Validates ranges, shard_of, and directory coherence (tests).
  bool PartitionConsistent() const;

 private:
  /// Row partition of one class: shard s owns [base[s], base[s+1]).
  struct ClassPartition {
    std::vector<RowIdx> base;       ///< size num_shards + 1 (prefix sums)
    std::vector<uint8_t> shard_of;  ///< per row; O(1) effect routing
  };

  World* world_;
  int num_shards_;
  bool partitioned_ = false;
  std::vector<ClassPartition> parts_;  ///< by class
  TableRebuildScratch rebuild_scratch_;  ///< Despawn's row erase
};

}  // namespace sgl

#endif  // SGL_SHARD_SHARDED_WORLD_H_
