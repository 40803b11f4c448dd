#include "src/storage/entity_table.h"

#include <cstring>

namespace sgl {

namespace {

// Little serialization helpers: length-prefixed raw little-endian dumps.
// The format is internal to one build; we never exchange checkpoints across
// architectures.
template <typename T>
void PutPod(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool GetPod(const char** cursor, const char* end, T* v) {
  if (static_cast<size_t>(end - *cursor) < sizeof(T)) return false;
  std::memcpy(v, *cursor, sizeof(T));
  *cursor += sizeof(T);
  return true;
}

template <typename T>
void PutVec(std::string* out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  PutPod<uint64_t>(out, v.size());
  if (!v.empty()) {
    out->append(reinterpret_cast<const char*>(v.data()),
                v.size() * sizeof(T));
  }
}

template <typename T>
bool GetVec(const char** cursor, const char* end, std::vector<T>* v) {
  uint64_t n;
  if (!GetPod(cursor, end, &n)) return false;
  // Divide instead of multiplying: n * sizeof(T) could wrap for a corrupt n.
  if (n > static_cast<size_t>(end - *cursor) / sizeof(T)) return false;
  v->resize(n);
  if (n > 0) std::memcpy(v->data(), *cursor, n * sizeof(T));
  *cursor += n * sizeof(T);
  return true;
}

}  // namespace

EntityTable::EntityTable(const ClassDef* cls) : cls_(cls) {
  slots_.resize(cls_->state_fields().size());
  for (const FieldDef& f : cls_->state_fields()) {
    size_t& slot = slots_[static_cast<size_t>(f.index)];
    switch (f.type.kind) {
      case TypeKind::kNumber:
        slot = stride_++;
        break;
      case TypeKind::kBool:
        slot = bools_.size();
        bools_.emplace_back();
        break;
      case TypeKind::kRef:
        slot = refs_.size();
        refs_.emplace_back();
        break;
      case TypeKind::kSet:
        slot = sets_.size();
        sets_.emplace_back();
        break;
    }
  }
}

NumberColumn EntityTable::Num(FieldIdx state_field) {
  SGL_DCHECK(cls_->state_field(state_field).type.is_number());
  return NumberColumn{nums_.data() + slots_[static_cast<size_t>(state_field)],
                      stride_};
}

ConstNumberColumn EntityTable::Num(FieldIdx state_field) const {
  SGL_DCHECK(cls_->state_field(state_field).type.is_number());
  return ConstNumberColumn{
      nums_.data() + slots_[static_cast<size_t>(state_field)], stride_};
}

uint8_t* EntityTable::BoolCol(FieldIdx f) {
  return bools_[slots_[static_cast<size_t>(f)]].data();
}
const uint8_t* EntityTable::BoolCol(FieldIdx f) const {
  return bools_[slots_[static_cast<size_t>(f)]].data();
}
EntityId* EntityTable::RefCol(FieldIdx f) {
  return refs_[slots_[static_cast<size_t>(f)]].data();
}
const EntityId* EntityTable::RefCol(FieldIdx f) const {
  return refs_[slots_[static_cast<size_t>(f)]].data();
}
EntitySet* EntityTable::SetCol(FieldIdx f) {
  return sets_[slots_[static_cast<size_t>(f)]].data();
}
const EntitySet* EntityTable::SetCol(FieldIdx f) const {
  return sets_[slots_[static_cast<size_t>(f)]].data();
}

RowIdx EntityTable::AddRow(EntityId id) {
  RowIdx row = static_cast<RowIdx>(ids_.size());
  ids_.push_back(id);
  nums_.resize(nums_.size() + stride_);
  for (auto& b : bools_) b.push_back(0);
  for (auto& r : refs_) r.push_back(kNullEntity);
  for (auto& s : sets_) s.emplace_back();
  // Apply declared defaults.
  for (const FieldDef& f : cls_->state_fields()) {
    Status st = SetValue(row, f.index, f.default_value);
    SGL_CHECK(st.ok());
  }
  return row;
}

EntityId EntityTable::SwapRemoveRow(RowIdx row) {
  SGL_CHECK(row < ids_.size());
  RowIdx last = static_cast<RowIdx>(ids_.size() - 1);
  EntityId moved = kNullEntity;
  if (row != last) {
    moved = ids_[last];
    ids_[row] = ids_[last];
    for (size_t k = 0; k < stride_; ++k) {
      nums_[row * stride_ + k] = nums_[last * stride_ + k];
    }
    for (auto& b : bools_) b[row] = b[last];
    for (auto& r : refs_) r[row] = r[last];
    for (auto& s : sets_) s[row] = std::move(s[last]);
  }
  ids_.pop_back();
  nums_.resize(nums_.size() - stride_);
  for (auto& b : bools_) b.pop_back();
  for (auto& r : refs_) r.pop_back();
  for (auto& s : sets_) s.pop_back();
  return moved;
}

Value EntityTable::GetValue(RowIdx row, FieldIdx state_field) const {
  const FieldDef& f = cls_->state_field(state_field);
  switch (f.type.kind) {
    case TypeKind::kNumber:
      return Value::Number(Num(state_field)[row]);
    case TypeKind::kBool:
      return Value::Bool(BoolCol(state_field)[row] != 0);
    case TypeKind::kRef:
      return Value::Ref(RefCol(state_field)[row]);
    case TypeKind::kSet:
      return Value::Set(SetCol(state_field)[row]);
  }
  return Value::Number(0);
}

Status EntityTable::SetValue(RowIdx row, FieldIdx state_field,
                             const Value& v) {
  const FieldDef& f = cls_->state_field(state_field);
  switch (f.type.kind) {
    case TypeKind::kNumber:
      if (!v.is_number()) break;
      Num(state_field).at(row) = v.AsNumber();
      return Status::OK();
    case TypeKind::kBool:
      if (!v.is_bool()) break;
      BoolCol(state_field)[row] = v.AsBool() ? 1 : 0;
      return Status::OK();
    case TypeKind::kRef:
      if (!v.is_ref()) break;
      RefCol(state_field)[row] = v.AsRef();
      return Status::OK();
    case TypeKind::kSet:
      if (!v.is_set()) break;
      SetCol(state_field)[row] = v.AsSet();
      return Status::OK();
  }
  return Status::InvalidArgument("value kind mismatch for field '" + f.name +
                                 "' of type " + f.type.ToString());
}

size_t EntityTable::MemoryBytes() const {
  size_t bytes = ids_.capacity() * sizeof(EntityId) +
                 nums_.capacity() * sizeof(double);
  for (const auto& b : bools_) bytes += b.capacity();
  for (const auto& r : refs_) bytes += r.capacity() * sizeof(EntityId);
  for (const auto& s : sets_) {
    bytes += s.capacity() * sizeof(EntitySet);
    for (const auto& es : s) bytes += es.HeapBytes();
  }
  return bytes;
}

void EntityTable::Serialize(std::string* out) const {
  PutVec(out, ids_);
  // The group count (0 or 1) predates the single numeric block; it stays
  // so checkpoint bytes do not change.
  const uint64_t num_blocks = stride_ > 0 ? 1 : 0;
  PutPod<uint64_t>(out, num_blocks);
  if (num_blocks > 0) PutVec(out, nums_);
  PutPod<uint64_t>(out, bools_.size());
  for (const auto& b : bools_) PutVec(out, b);
  PutPod<uint64_t>(out, refs_.size());
  for (const auto& r : refs_) PutVec(out, r);
  PutPod<uint64_t>(out, sets_.size());
  for (const auto& s : sets_) {
    PutPod<uint64_t>(out, s.size());
    for (const EntitySet& es : s) {
      PutPod<uint64_t>(out, es.size());
      out->append(reinterpret_cast<const char*>(es.data()),
                  es.size() * sizeof(EntityId));
    }
  }
}

Status EntityTable::Deserialize(const char** cursor, const char* end) {
  auto corrupt = [] { return Status::Internal("corrupt checkpoint"); };
  if (!GetVec(cursor, end, &ids_)) return corrupt();
  uint64_t n;
  if (!GetPod(cursor, end, &n) || n != (stride_ > 0 ? 1u : 0u)) {
    return corrupt();
  }
  if (n > 0) {
    if (!GetVec(cursor, end, &nums_)) return corrupt();
    if (nums_.size() != ids_.size() * stride_) return corrupt();
  }
  if (!GetPod(cursor, end, &n) || n != bools_.size()) return corrupt();
  for (auto& b : bools_) {
    if (!GetVec(cursor, end, &b) || b.size() != ids_.size()) return corrupt();
  }
  if (!GetPod(cursor, end, &n) || n != refs_.size()) return corrupt();
  for (auto& r : refs_) {
    if (!GetVec(cursor, end, &r) || r.size() != ids_.size()) return corrupt();
  }
  if (!GetPod(cursor, end, &n) || n != sets_.size()) return corrupt();
  for (auto& s : sets_) {
    uint64_t m;
    if (!GetPod(cursor, end, &m) || m != ids_.size()) return corrupt();
    s.clear();
    s.reserve(m);
    for (uint64_t i = 0; i < m; ++i) {
      std::vector<EntityId> ids;
      if (!GetVec(cursor, end, &ids)) return corrupt();
      // EntitySet copies the elements into its own (possibly inline)
      // storage; the source vector cannot be adopted.
      s.emplace_back(ids);
    }
  }
  return Status::OK();
}

}  // namespace sgl
