// Expression evaluation: vectorized (set-at-a-time) and scalar
// (object-at-a-time / transaction admission).
//
// Vectorized evaluation produces one output element per selected row (or per
// join pair); this is the engine the paper's declarative-processing claim
// rests on. Scalar evaluation of the *same* IR powers the baseline
// interpreter (E1's comparator) and the transaction engine's tentative-state
// constraint checks, guaranteeing both paths share one semantics.

#ifndef SGL_RA_EVAL_H_
#define SGL_RA_EVAL_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/vec_util.h"
#include "src/ra/expr.h"
#include "src/storage/world.h"

namespace sgl {

/// A stack-disciplined pool of reusable vectors. Acquire/Release must nest
/// like scopes (use ScopedVec); vectors keep their high-water capacity, so a
/// steady-state workload stops allocating after warmup. Single-threaded —
/// the executor owns one pool set per worker.
template <typename T>
class VecPool {
 public:
  std::vector<T>* Acquire() {
    if (in_use_ == pool_.size()) {
      pool_.push_back(std::make_unique<std::vector<T>>());
    }
    std::vector<T>* v = pool_[in_use_++].get();
    v->clear();
    return v;
  }
  /// Releases the most recently acquired vector (strict LIFO).
  void Release() {
    SGL_DCHECK(in_use_ > 0);
    --in_use_;
  }

 private:
  std::vector<std::unique_ptr<std::vector<T>>> pool_;  // stable addresses
  size_t in_use_ = 0;
};

/// Per-worker pools for every element type the vectorized engine uses as
/// evaluation or operator scratch (§4's "work done by something else" —
/// allocator traffic — engineered away).
struct EvalScratch {
  VecPool<double> num;
  VecPool<uint8_t> bools;
  VecPool<EntityId> refs;
  VecPool<RowIdx> rows;
};

namespace internal {
template <typename T>
struct PoolSelector;
template <>
struct PoolSelector<double> {
  static VecPool<double>* Get(EvalScratch* s) {
    return s != nullptr ? &s->num : nullptr;
  }
};
template <>
struct PoolSelector<uint8_t> {
  static VecPool<uint8_t>* Get(EvalScratch* s) {
    return s != nullptr ? &s->bools : nullptr;
  }
};
template <>
struct PoolSelector<EntityId> {
  static VecPool<EntityId>* Get(EvalScratch* s) {
    return s != nullptr ? &s->refs : nullptr;
  }
};
template <>
struct PoolSelector<RowIdx> {
  static VecPool<RowIdx>* Get(EvalScratch* s) {
    return s != nullptr ? &s->rows : nullptr;
  }
};
}  // namespace internal

/// RAII handle on a pooled vector; falls back to an owned vector when no
/// scratch is available (cold paths, standalone eval calls).
template <typename T>
class ScopedVec {
 public:
  explicit ScopedVec(EvalScratch* scratch)
      : pool_(internal::PoolSelector<T>::Get(scratch)),
        v_(pool_ != nullptr ? pool_->Acquire() : &own_) {}
  ~ScopedVec() {
    if (pool_ != nullptr) pool_->Release();
  }
  ScopedVec(const ScopedVec&) = delete;
  ScopedVec& operator=(const ScopedVec&) = delete;

  std::vector<T>* get() { return v_; }
  std::vector<T>& operator*() { return *v_; }
  std::vector<T>* operator->() { return v_; }

 private:
  VecPool<T>* pool_;
  std::vector<T> own_;  // fallback storage; must precede v_
  std::vector<T>* v_;
};

/// Storage for let-bound locals and accum results: full columns aligned to
/// the outer class's table rows (slot-indexed; only the vector matching the
/// slot's type is populated).
struct LocalColumns {
  std::vector<std::vector<double>> num;
  std::vector<std::vector<uint8_t>> bools;
  std::vector<std::vector<EntityId>> refs;

  void EnsureSlots(size_t n) {
    if (num.size() < n) {
      num.resize(n);
      bools.resize(n);
      refs.resize(n);
    }
  }
};

/// Zero-fills `locals` for `rows` rows of every slot in `types` (capacity
/// kept).
void AllocateLocalColumns(const std::vector<SglType>& types, size_t rows,
                          LocalColumns* locals);

/// Tentative state deltas used during transaction admission (§3.1): reads of
/// overlaid fields see the would-be-committed value instead of the table.
///
/// Layout: one dense column per (class, txn-owned field), parallel to the
/// class's table rows, with a per-row epoch stamp — a row's overlay entry is
/// live iff its stamp equals the current epoch, so Clear() is a counter
/// bump, not a scan or free. Set values live in a pool of reusable
/// EntitySets (stable addresses, capacity kept across ticks); the column
/// stores the pool slot. A touched-list records live entries in write order
/// for write-back. All buffers are high-water: after warmup, a tick of
/// admission performs zero heap allocations.
class StateOverlay {
 public:
  /// Sizes the per-field columns against the current table sizes. Call once
  /// per tick before writing; reuses buffers across ticks. `txn_owned`
  /// lists, per class, every state field atomic blocks may write.
  void BeginTick(const World& world,
                 const std::vector<std::vector<FieldIdx>>& txn_owned);

  /// Drops every overlaid value (epoch bump; buffers retained).
  void Clear() {
    touched_.clear();
    set_pool_used_ = 0;
    if (++epoch_ == 0) {  // wrapped: old stamps would alias the new epoch
      for (FieldOverlay& f : fields_) {
        std::fill(f.epoch.begin(), f.epoch.end(), 0u);
      }
      epoch_ = 1;
    }
  }

  // --- Reads (scalar evaluation during admission) ---------------------
  // Return nullptr when (cls, row, field) has no live overlay entry —
  // including fields no atomic block writes (no column exists for them).

  const double* GetNum(ClassId cls, RowIdx row, FieldIdx field) const {
    const FieldOverlay* f = FindField(cls, field);
    return f != nullptr && f->epoch[row] == epoch_ ? &f->num[row] : nullptr;
  }
  const EntityId* GetRef(ClassId cls, RowIdx row, FieldIdx field) const {
    const FieldOverlay* f = FindField(cls, field);
    return f != nullptr && f->epoch[row] == epoch_ ? &f->ref[row] : nullptr;
  }
  const EntitySet* GetSet(ClassId cls, RowIdx row, FieldIdx field) const {
    const FieldOverlay* f = FindField(cls, field);
    return f != nullptr && f->epoch[row] == epoch_
               ? set_pool_[f->set_slot[row]].get()
               : nullptr;
  }

  // --- Writes (transaction engine only) -------------------------------
  // Mutable* returns the entry's value slot; *fresh reports whether the
  // entry was just created (caller seeds it from the table and records the
  // undo). A fresh set entry's EntitySet is a cleared pooled slot.

  double* MutableNum(ClassId cls, RowIdx row, FieldIdx field, bool* fresh);
  EntityId* MutableRef(ClassId cls, RowIdx row, FieldIdx field, bool* fresh);
  EntitySet* MutableSet(ClassId cls, RowIdx row, FieldIdx field, bool* fresh);

  /// Removes an overlaid value (used to undo tentative transaction writes).
  void Erase(ClassId cls, RowIdx row, FieldIdx field) {
    FieldOverlay* f = FindField(cls, field);
    SGL_DCHECK(f != nullptr);
    f->epoch[row] = 0;
  }

  /// Visits every live entry in touch order (write-back after admission).
  /// Entries erased after their first touch are skipped; a re-touched entry
  /// may be visited twice with the same final value (write-back is
  /// idempotent per key).
  template <typename NumFn, typename SetFn, typename RefFn>
  void ForEachTouched(NumFn num_fn, SetFn set_fn, RefFn ref_fn) const {
    for (const Touched& t : touched_) {
      const FieldOverlay& f = fields_[t.field_index];
      if (f.epoch[t.row] != epoch_) continue;  // undone
      switch (f.kind) {
        case TypeKind::kNumber:
          num_fn(f.cls, t.row, f.field, f.num[t.row]);
          break;
        case TypeKind::kSet:
          set_fn(f.cls, t.row, f.field, *set_pool_[f.set_slot[t.row]]);
          break;
        case TypeKind::kRef:
          ref_fn(f.cls, t.row, f.field, f.ref[t.row]);
          break;
        case TypeKind::kBool:
          break;  // bools are never txn-owned
      }
    }
  }

 private:
  /// Dense overlay columns for one (class, field).
  struct FieldOverlay {
    ClassId cls = kInvalidClass;
    FieldIdx field = kInvalidField;
    TypeKind kind = TypeKind::kNumber;
    std::vector<uint32_t> epoch;     ///< live iff == current epoch
    std::vector<double> num;         ///< kNumber only
    std::vector<EntityId> ref;       ///< kRef only
    std::vector<uint32_t> set_slot;  ///< kSet only: index into set_pool_
  };
  struct Touched {
    uint32_t field_index;  ///< into fields_
    RowIdx row;
  };

  const FieldOverlay* FindField(ClassId cls, FieldIdx field) const {
    const auto& per_class = field_map_[static_cast<size_t>(cls)];
    if (static_cast<size_t>(field) >= per_class.size()) return nullptr;
    const int32_t idx = per_class[static_cast<size_t>(field)];
    return idx < 0 ? nullptr : &fields_[static_cast<size_t>(idx)];
  }
  FieldOverlay* FindField(ClassId cls, FieldIdx field) {
    return const_cast<FieldOverlay*>(
        static_cast<const StateOverlay*>(this)->FindField(cls, field));
  }
  /// Stamps (field, row) live; returns true if it was not live before.
  bool Touch(FieldOverlay* f, RowIdx row);

  std::vector<std::vector<int32_t>> field_map_;  ///< [cls][field] -> fields_
  std::vector<FieldOverlay> fields_;
  std::vector<Touched> touched_;
  std::vector<std::unique_ptr<EntitySet>> set_pool_;
  size_t set_pool_used_ = 0;
  uint32_t epoch_ = 1;
};

/// Context for vectorized evaluation. Output element i corresponds to
/// outer row (*outer_rows)[i] (and inner row (*inner_rows)[i] in join
/// contexts).
struct VecContext {
  const World* world = nullptr;
  const EntityTable* outer = nullptr;
  const std::vector<RowIdx>* outer_rows = nullptr;
  const EntityTable* inner = nullptr;
  const std::vector<RowIdx>* inner_rows = nullptr;
  const LocalColumns* locals = nullptr;
  const EffectBuffer* effects = nullptr;  // update-phase reads
  /// Pools for evaluation temporaries; null falls back to per-call vectors.
  EvalScratch* scratch = nullptr;

  size_t count() const { return outer_rows->size(); }
};

/// Context for one-row evaluation.
struct ScalarContext {
  const World* world = nullptr;
  ClassId outer_cls = kInvalidClass;
  RowIdx outer_row = kInvalidRow;
  ClassId inner_cls = kInvalidClass;
  RowIdx inner_row = kInvalidRow;
  const LocalColumns* locals = nullptr;   // read at outer_row
  const EffectBuffer* effects = nullptr;  // outer class's buffer
  const StateOverlay* overlay = nullptr;  // txn tentative state
};

// Vectorized evaluation. `expr.type` must match the function's result type.
void EvalNum(const Expr& expr, const VecContext& ctx,
             std::vector<double>* out);
void EvalBool(const Expr& expr, const VecContext& ctx,
              std::vector<uint8_t>* out);
void EvalRef(const Expr& expr, const VecContext& ctx,
             std::vector<EntityId>* out);

// Scalar evaluation.
double EvalScalarNum(const Expr& expr, const ScalarContext& ctx);
bool EvalScalarBool(const Expr& expr, const ScalarContext& ctx);
EntityId EvalScalarRef(const Expr& expr, const ScalarContext& ctx);
/// Set-valued scalar evaluation (state/effect/gathered/if expressions over
/// sets — used by set-typed update rules).
const EntitySet& EvalScalarSet(const Expr& expr, const ScalarContext& ctx);

}  // namespace sgl

#endif  // SGL_RA_EVAL_H_
