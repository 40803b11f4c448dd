// World: the complete main-memory game state.
//
// Owns one EntityTable + EffectBuffer per class, the EntityId allocator, and
// the id -> (class, row) directory (a flat open-addressing EntityDirectory —
// Find is a probe, not a node walk). Spawn/despawn are tick-boundary
// operations; within a tick rows are stable, which is what allows compiled
// plans to work on dense RowIdx vectors. ReindexClass and DirectoryErase
// exist for the sharded despawn, which stable-erases a row (shifting the
// rows after it) and then refreshes the class's locators in one pass.

#ifndef SGL_STORAGE_WORLD_H_
#define SGL_STORAGE_WORLD_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/schema/catalog.h"
#include "src/storage/effect_buffer.h"
#include "src/storage/entity_directory.h"
#include "src/storage/entity_table.h"

namespace sgl {

/// All live entities of all classes, plus this tick's effect accumulators.
class World {
 public:
  /// Builds empty tables for every class in `catalog` (must be finalized).
  /// Each table keeps its numeric state in one interleaved block; see
  /// entity_table.h for why there is no other layout.
  explicit World(const Catalog* catalog);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const Catalog& catalog() const { return *catalog_; }

  /// Where an entity lives.
  using Locator = EntityLocator;

  /// Creates an entity of `cls` with default field values.
  EntityId Spawn(ClassId cls);

  /// Creates an entity by class name with named initial state values.
  StatusOr<EntityId> Spawn(
      const std::string& cls_name,
      const std::vector<std::pair<std::string, Value>>& init);

  /// Removes an entity (swap-remove; other rows of the class may move).
  /// Tick-boundary only.
  Status Despawn(EntityId id);

  /// Locator for an entity, or nullptr if it does not exist.
  const Locator* Find(EntityId id) const { return directory_.Find(id); }

  /// Re-stamps the directory locator of every row of `cls` from the table's
  /// current id order. Called after a row rebuild that repositions many
  /// rows at once (the sharded despawn); allocation-free.
  void ReindexClass(ClassId cls);

  /// Removes `id` from the directory without touching its table row. The
  /// caller owns the row's removal (the sharded despawn).
  bool DirectoryErase(EntityId id) { return directory_.Erase(id); }

  EntityTable& table(ClassId cls) {
    return *tables_[static_cast<size_t>(cls)];
  }
  const EntityTable& table(ClassId cls) const {
    return *tables_[static_cast<size_t>(cls)];
  }
  EffectBuffer& effects(ClassId cls) {
    return *effects_[static_cast<size_t>(cls)];
  }
  const EffectBuffer& effects(ClassId cls) const {
    return *effects_[static_cast<size_t>(cls)];
  }

  /// Resets every class's effect buffer to its table's current size.
  /// Called by the executor at the start of each tick.
  void ResetEffects();

  /// Boxed state access by entity + field name (debugger, tests, examples).
  StatusOr<Value> Get(EntityId id, const std::string& field) const;
  Status Set(EntityId id, const std::string& field, const Value& v);

  /// Total live entities across classes.
  size_t TotalEntities() const;

  /// Approximate heap bytes of all tables.
  size_t MemoryBytes() const;

  /// Binary snapshot of all state (not effects; checkpoints are taken at
  /// tick boundaries where effect buffers are empty).
  void Serialize(std::string* out) const;
  /// Restores a snapshot taken from a World over the same catalog/layout.
  Status Deserialize(const std::string& data);

 private:
  const Catalog* catalog_;
  std::vector<std::unique_ptr<EntityTable>> tables_;
  std::vector<std::unique_ptr<EffectBuffer>> effects_;
  EntityDirectory directory_;
  EntityId next_id_ = 1;
};

}  // namespace sgl

#endif  // SGL_STORAGE_WORLD_H_
