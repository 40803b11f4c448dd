// EntityTable: the generated relational representation of one SGL class.
//
// One dense, main-memory table per class. Every numeric state field lives
// in one interleaved block (array-of-structs: row r's numeric fields are
// adjacent, in state-field order); bool/ref/set state and all effect
// staging are per-field. Rows are dense; despawn swap-removes. EntityIds
// are the stable handles, RowIdx values are positions valid only within a
// tick.
//
// §2.1 lets the compiler choose a layout per class ("break a class up into
// multiple tables"). The engine used to offer three: this interleaved
// block, pure per-field columns, and groups mined from attribute
// co-occurrence. Measured on a 4-vCPU x86 VM, no workload told them apart
// (unified / per-field / affinity; seed 1, three alternating 5 s runs
// each): battle tick p50 4.45-4.84 / 4.29-4.91 / 4.46-4.91 ms, market
// 4.49-6.01 / 4.59-5.42 / 4.93-5.62 ms; the E2 accumulate-join bench's
// medians were 13.9 / 13.1 / 15.3 ms with a 0.4-1.4 ms stddev. So the
// layout is fixed at the one every workload already ran.

#ifndef SGL_STORAGE_ENTITY_TABLE_H_
#define SGL_STORAGE_ENTITY_TABLE_H_

#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/schema/class_def.h"

namespace sgl {

/// Unowned view of one numeric state column: every `stride`-th double of
/// the table's interleaved numeric block. The hot-path accessor for
/// expression evaluation.
struct NumberColumn {
  double* base = nullptr;
  size_t stride = 1;

  double operator[](size_t row) const { return base[row * stride]; }
  double& at(size_t row) { return base[row * stride]; }
};

struct ConstNumberColumn {
  const double* base = nullptr;
  size_t stride = 1;

  ConstNumberColumn() = default;
  ConstNumberColumn(const double* b, size_t s) : base(b), stride(s) {}
  ConstNumberColumn(const NumberColumn& c)  // NOLINT: implicit view decay
      : base(c.base), stride(c.stride) {}

  double operator[](size_t row) const { return base[row * stride]; }
};

/// Columnar storage for all live entities of one class.
class EntityTable {
 public:
  /// Builds an empty table for `cls`.
  explicit EntityTable(const ClassDef* cls);

  const ClassDef& cls() const { return *cls_; }
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// EntityId living at dense position `row`.
  EntityId id_at(RowIdx row) const { return ids_[row]; }
  const std::vector<EntityId>& ids() const { return ids_; }

  /// Mutable / const views of a numeric state column.
  NumberColumn Num(FieldIdx state_field);
  ConstNumberColumn Num(FieldIdx state_field) const;

  uint8_t* BoolCol(FieldIdx state_field);
  const uint8_t* BoolCol(FieldIdx state_field) const;
  EntityId* RefCol(FieldIdx state_field);
  const EntityId* RefCol(FieldIdx state_field) const;
  EntitySet* SetCol(FieldIdx state_field);
  const EntitySet* SetCol(FieldIdx state_field) const;

  /// Appends a row initialized to the class's default values; returns its
  /// position. The caller (World) maintains the id -> row map.
  RowIdx AddRow(EntityId id);

  /// Swap-removes `row`. Returns the EntityId that moved into `row`
  /// (kNullEntity if `row` was the last row). Caller updates its map.
  EntityId SwapRemoveRow(RowIdx row);

  /// Boxed read of any state field.
  Value GetValue(RowIdx row, FieldIdx state_field) const;
  /// Boxed write of any state field (kind must match).
  Status SetValue(RowIdx row, FieldIdx state_field, const Value& v);

  /// Approximate heap bytes used by column storage (for E7 accounting).
  size_t MemoryBytes() const;

  /// Binary serialization (checkpointing, §3.3).
  void Serialize(std::string* out) const;
  Status Deserialize(const char** cursor, const char* end);

 private:
  const ClassDef* cls_;
  std::vector<EntityId> ids_;
  // Numeric state, row-major: row r's field at slot k is nums_[r*stride_+k].
  std::vector<double> nums_;
  size_t stride_ = 0;                         // numeric state field count
  // Per state FieldIdx: the slot within a nums_ row for a numeric field,
  // else the index into bools_ / refs_ / sets_.
  std::vector<size_t> slots_;
  std::vector<std::vector<uint8_t>> bools_;   // one per bool state field
  std::vector<std::vector<EntityId>> refs_;   // one per ref state field
  std::vector<std::vector<EntitySet>> sets_;  // one per set state field
};

}  // namespace sgl

#endif  // SGL_STORAGE_ENTITY_TABLE_H_
