#include "src/storage/world.h"

#include <cstring>

namespace sgl {

World::World(const Catalog* catalog) : catalog_(catalog) {
  SGL_CHECK(catalog_->finalized());
  for (ClassId c = 0; c < catalog_->num_classes(); ++c) {
    const ClassDef& cls = catalog_->Get(c);
    tables_.push_back(std::make_unique<EntityTable>(&cls));
    effects_.push_back(std::make_unique<EffectBuffer>(&cls));
  }
}

EntityId World::Spawn(ClassId cls) {
  EntityId id = next_id_++;
  RowIdx row = table(cls).AddRow(id);
  directory_.Insert(id, cls, row);
  return id;
}

StatusOr<EntityId> World::Spawn(
    const std::string& cls_name,
    const std::vector<std::pair<std::string, Value>>& init) {
  ClassId cls = catalog_->Find(cls_name);
  if (cls == kInvalidClass) {
    return Status::NotFound("class '" + cls_name + "' not found");
  }
  EntityId id = Spawn(cls);
  const ClassDef& def = catalog_->Get(cls);
  const Locator loc = *directory_.Find(id);
  for (const auto& [field, value] : init) {
    FieldIdx f = def.FindState(field);
    if (f == kInvalidField) {
      return Status::NotFound("state field '" + field + "' not found in '" +
                              cls_name + "'");
    }
    SGL_RETURN_IF_ERROR(table(cls).SetValue(loc.row, f, value));
  }
  return id;
}

Status World::Despawn(EntityId id) {
  const Locator* found = directory_.Find(id);
  if (found == nullptr) {
    return Status::NotFound("entity does not exist");
  }
  Locator loc = *found;
  directory_.Erase(id);
  EntityId moved = table(loc.cls).SwapRemoveRow(loc.row);
  if (moved != kNullEntity) directory_.Update(moved, loc.cls, loc.row);
  return Status::OK();
}

void World::ResetEffects() {
  for (ClassId c = 0; c < catalog_->num_classes(); ++c) {
    effects(c).Reset(table(c).size());
  }
}

StatusOr<Value> World::Get(EntityId id, const std::string& field) const {
  const Locator* loc = Find(id);
  if (loc == nullptr) return Status::NotFound("entity does not exist");
  const ClassDef& def = catalog_->Get(loc->cls);
  FieldIdx f = def.FindState(field);
  if (f == kInvalidField) {
    return Status::NotFound("state field '" + field + "' not found in '" +
                            def.name() + "'");
  }
  return table(loc->cls).GetValue(loc->row, f);
}

Status World::Set(EntityId id, const std::string& field, const Value& v) {
  const Locator* loc = Find(id);
  if (loc == nullptr) return Status::NotFound("entity does not exist");
  const ClassDef& def = catalog_->Get(loc->cls);
  FieldIdx f = def.FindState(field);
  if (f == kInvalidField) {
    return Status::NotFound("state field '" + field + "' not found in '" +
                            def.name() + "'");
  }
  return table(loc->cls).SetValue(loc->row, f, v);
}

size_t World::TotalEntities() const { return directory_.size(); }

size_t World::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& t : tables_) bytes += t->MemoryBytes();
  return bytes;
}

void World::Serialize(std::string* out) const {
  uint64_t next = static_cast<uint64_t>(next_id_);
  out->append(reinterpret_cast<const char*>(&next), sizeof(next));
  uint64_t ntables = tables_.size();
  out->append(reinterpret_cast<const char*>(&ntables), sizeof(ntables));
  for (const auto& t : tables_) t->Serialize(out);
}

Status World::Deserialize(const std::string& data) {
  const char* cursor = data.data();
  const char* end = data.data() + data.size();
  uint64_t next, ntables;
  if (static_cast<size_t>(end - cursor) < 2 * sizeof(uint64_t)) {
    return Status::Internal("corrupt checkpoint header");
  }
  std::memcpy(&next, cursor, sizeof(next));
  cursor += sizeof(next);
  std::memcpy(&ntables, cursor, sizeof(ntables));
  cursor += sizeof(ntables);
  if (ntables != tables_.size()) {
    return Status::Internal("checkpoint class count mismatch");
  }
  next_id_ = static_cast<EntityId>(next);
  for (auto& t : tables_) {
    SGL_RETURN_IF_ERROR(t->Deserialize(&cursor, end));
  }
  // Rebuild the directory from table contents.
  directory_.Clear();
  size_t total = 0;
  for (ClassId c = 0; c < catalog_->num_classes(); ++c) total += table(c).size();
  directory_.Reserve(total);
  for (ClassId c = 0; c < catalog_->num_classes(); ++c) {
    const EntityTable& t = table(c);
    for (RowIdx r = 0; r < t.size(); ++r) {
      directory_.Insert(t.id_at(r), c, r);
    }
  }
  ResetEffects();
  return Status::OK();
}

}  // namespace sgl
