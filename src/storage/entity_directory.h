// EntityDirectory: the id -> (class, row) map behind World::Find.
//
// Every ref dereference (accum joins over set domains, TargetKind::kRef
// effect writes, transaction target resolution) goes through this map, so it
// is engineered as a flat open-addressing table instead of an
// unordered_map: one power-of-two slot array, linear probing, no nodes, no
// per-entry allocation. Slots are *generation-stamped*: a slot is live iff
// its stamp equals the table's current generation, so Clear() (checkpoint
// restore, bulk reloads) is a counter bump instead of a scan or free, and
// erased slots recycle without tombstone decay (Knuth's backward-shift
// deletion keeps probe chains tight).
//
// Row moves lean on this: a swap-remove despawn rewrites the moved row's
// locator with a plain probe + store — no rehash, no allocation once the
// table reaches its high-water capacity.

#ifndef SGL_STORAGE_ENTITY_DIRECTORY_H_
#define SGL_STORAGE_ENTITY_DIRECTORY_H_

#include <cstddef>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"

namespace sgl {

/// Where an entity lives: its class and dense row position.
struct EntityLocator {
  ClassId cls = kInvalidClass;
  RowIdx row = kInvalidRow;
};

/// Open-addressing EntityId -> EntityLocator map with O(1) Clear().
class EntityDirectory {
 public:
  EntityDirectory() { Rehash(kMinCapacity); }

  /// Drops every entry (generation bump; slot array kept).
  void Clear() {
    size_ = 0;
    if (++gen_ == 0) {  // wrapped: old stamps would alias the new generation
      for (Slot& s : slots_) s.gen = 0;
      gen_ = 1;
    }
  }

  /// Grows the slot array so `n` entries fit without rehashing.
  void Reserve(size_t n);

  /// Locator for `id`, or nullptr. The pointer is valid until the next
  /// Insert/Erase/Clear (callers never store it across mutations).
  const EntityLocator* Find(EntityId id) const {
    const Slot* s = FindSlot(id);
    return s != nullptr ? &s->loc : nullptr;
  }

  /// Inserts `id` (must not be present) at (cls, row).
  void Insert(EntityId id, ClassId cls, RowIdx row);

  /// Repositions an existing entry (row moves on despawn). The entry must
  /// be present; never allocates.
  void Update(EntityId id, ClassId cls, RowIdx row) {
    Slot* s = const_cast<Slot*>(FindSlot(id));
    SGL_DCHECK(s != nullptr);
    s->loc.cls = cls;
    s->loc.row = row;
  }

  /// Removes `id`; returns false if it was not present.
  bool Erase(EntityId id);

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    EntityId id = kNullEntity;
    uint32_t gen = 0;  ///< live iff == current generation
    EntityLocator loc;
  };

  static constexpr size_t kMinCapacity = 64;

  static uint64_t Mix(EntityId id) {
    // splitmix64 finalizer: ids are sequential, so the low bits need mixing
    // before they index a power-of-two table.
    return Mix64(static_cast<uint64_t>(id));
  }

  size_t Home(EntityId id) const { return Mix(id) & (slots_.size() - 1); }
  bool Live(const Slot& s) const { return s.gen == gen_; }

  const Slot* FindSlot(EntityId id) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(id);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (!Live(s)) return nullptr;
      if (s.id == id) return &s;
    }
  }

  void Rehash(size_t new_capacity);

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint32_t gen_ = 1;
};

}  // namespace sgl

#endif  // SGL_STORAGE_ENTITY_DIRECTORY_H_
