// EffectBuffer: per-class ⊕-accumulators for one tick's effect assignments.
//
// During the query/effect phase every `x <- v` lands here; nothing is visible
// to reads until the update phase (state read-only / effects write-only, §2).
// The executor's worker 0 writes the world's own buffers; every other worker
// writes full-size buffers of its own, merged into the world's in worker
// order. Order-keyed (first/last), idempotent and counting combinators give
// the same result for any worker count; sums and averages may differ in
// floating-point association only.
//
// Set-typed accumulators are CSR-pooled rather than value-per-row: inserts
// and unions append (row, element) pairs to one contiguous log per field;
// FinalizeSets() (run once after merge, before the update phase reads) sorts
// the log, dedups it per row, and materializes one pooled EntitySet per
// *assigned* row. Accumulation and merging are therefore O(1) appends into
// high-water buffers — no per-row set objects, no allocation after warmup —
// and the sort makes the result independent of append (thread) order.

#ifndef SGL_STORAGE_EFFECT_BUFFER_H_
#define SGL_STORAGE_EFFECT_BUFFER_H_

#include <memory>
#include <vector>

#include "src/common/value.h"
#include "src/schema/class_def.h"

namespace sgl {

/// One tick's worth of effect accumulation for one class.
class EffectBuffer {
 public:
  explicit EffectBuffer(const ClassDef* cls);

  const ClassDef& cls() const { return *cls_; }
  size_t rows() const { return rows_; }

  /// Clears all accumulators to combinator identities for `rows` entities.
  void Reset(size_t rows);

  // --- Accumulation (query/effect phase) ------------------------------
  // `order_key` must be globally unique and deterministic per assignment;
  // it resolves kFirst/kLast. Ignored by other combinators.

  void AddNumber(FieldIdx f, RowIdx row, double v, uint64_t order_key);
  void AddBool(FieldIdx f, RowIdx row, bool v, uint64_t order_key);
  void AddRef(FieldIdx f, RowIdx row, EntityId v, uint64_t order_key);
  void AddSetInsert(FieldIdx f, RowIdx row, EntityId v);
  void AddSetUnion(FieldIdx f, RowIdx row, const EntitySet& v);

  /// Folds a worker's same-size buffer into this one. Deterministic for
  /// any content because every combinator is commutative/associative (or
  /// order-keyed); a row this buffer never assigned copies the worker's
  /// accumulator whole. Set logs concatenate and are canonicalized by
  /// FinalizeSets().
  void MergeFrom(const EffectBuffer& worker);

  /// Canonicalizes the set logs (sort + per-row dedup + pooled
  /// materialization). Must run after the last Add*/MergeFrom of the tick
  /// and before any FinalSet read. Idempotent per tick.
  void FinalizeSets();

  // --- Reads (update phase) -------------------------------------------

  /// True if the field received at least one assignment for `row`.
  bool Assigned(FieldIdx f, RowIdx row) const {
    return accums_[static_cast<size_t>(f)].cnt[row] > 0;
  }
  uint32_t Count(FieldIdx f, RowIdx row) const {
    return accums_[static_cast<size_t>(f)].cnt[row];
  }

  /// Final (post-⊕, avg-finalized) value. Requires Assigned().
  double FinalNumber(FieldIdx f, RowIdx row) const;
  bool FinalBool(FieldIdx f, RowIdx row) const;
  EntityId FinalRef(FieldIdx f, RowIdx row) const;
  /// Requires FinalizeSets() to have run this tick. Unassigned rows yield
  /// the empty set (the kUnion identity).
  const EntitySet& FinalSet(FieldIdx f, RowIdx row) const;

 private:
  /// One (row, element) set-effect assignment, log-ordered.
  struct SetEntry {
    RowIdx row;
    EntityId elem;
  };
  static constexpr uint32_t kNoSet = static_cast<uint32_t>(-1);

  struct Accum {
    Combinator comb = Combinator::kSum;
    TypeKind kind = TypeKind::kNumber;
    std::vector<double> num;
    std::vector<uint8_t> bools;
    std::vector<EntityId> refs;
    std::vector<uint32_t> cnt;
    std::vector<uint64_t> key;  // kFirst/kLast only
    bool keyed = false;
    // Set kind only: the CSR log plus per-row handle into set_pool_
    // (kNoSet = unassigned). Both keep high-water capacity across ticks.
    std::vector<SetEntry> set_log;
    std::vector<uint32_t> set_ref;
    bool sets_final = false;
  };

  const ClassDef* cls_;
  size_t rows_ = 0;
  std::vector<Accum> accums_;  // indexed by effect FieldIdx
  /// Materialized per-assigned-row sets, shared by all set fields of the
  /// class. unique_ptr keeps addresses stable while the pool grows (FinalSet
  /// hands out references); each slot's EntitySet keeps its capacity, so
  /// steady-state finalization allocates nothing.
  std::vector<std::unique_ptr<EntitySet>> set_pool_;
  size_t set_pool_used_ = 0;
};

}  // namespace sgl

#endif  // SGL_STORAGE_EFFECT_BUFFER_H_
