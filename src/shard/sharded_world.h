// ShardedWorld: a World partitioned into N row-range shards.
//
// Shard s of class c owns the contiguous row range
// [shard_begin(c, s), shard_end(c, s)) of the class's column arena — the
// shard's "table" is a row slice, not a separate object. A shard is only
// the unit of work one executor worker selects and runs: reads see the
// whole shared arena, and effects, the merge and despawns go through the
// same code as the one-partition layout (src/exec/tick_executor.h,
// World::Despawn).
//
// The partition never moves a row. New rows join the last shard when the
// partition next catches up (EnsurePartition). A despawn is World's
// swap-remove: the survivor moved into the victim's row joins the
// victim's shard, and EnsurePartition clamps the boundaries to the class
// size, so the last non-empty shard shrinks.

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
  /// boundaries cover each class's current row count exactly. On error the
  /// existing partition state is left untouched — callers fall back to
  /// PartitionBlock().
  Status RestorePartition(const std::string& data);

  /// Builds the partition if it never was, and catches it up with the
  /// class sizes: every boundary is clamped to the class size (despawns
  /// shrink the last non-empty shard) and rows spawned since join the last
  /// shard. Idempotent.
  void EnsurePartition();

  // --- Partition queries (valid after EnsurePartition) -----------------

  RowIdx shard_begin(ClassId cls, int s) const {
    return bases_[static_cast<size_t>(cls)][static_cast<size_t>(s)];
  }
  RowIdx shard_end(ClassId cls, int s) const {
    return bases_[static_cast<size_t>(cls)][static_cast<size_t>(s) + 1];
  }
  /// Shard owning `id`, or -1 if the entity does not exist. Catches the
  /// partition up first, so an entity spawned since the last tick reads
  /// as the last shard's.
  int ShardOfEntity(EntityId id);

  /// Validates the ranges and directory coherence (tests). Catches the
  /// partition up first, like ShardOfEntity.
  bool PartitionConsistent();

 private:
  World* world_;
  int num_shards_;
  bool partitioned_ = false;
  /// By class: num_shards + 1 prefix sums; shard s owns
  /// [base[s], base[s + 1]).
  std::vector<std::vector<RowIdx>> bases_;
};

}  // namespace sgl

#endif  // SGL_SHARD_SHARDED_WORLD_H_
