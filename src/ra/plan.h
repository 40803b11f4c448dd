// Physical plan operators — what SGL scripts compile into (§2.1, §4).
//
// A script is a sequence of ops per phase (phases come from waitNextTick
// desugaring, §3.2). The mapping to relational algebra:
//   ComputeLocalsOp      π (extend with computed columns)
//   EffectsOp            σ_guard → π_(target,value) → ⊕-aggregate into effects
//   AccumOp              σ_guard(E) ⋈_pred σ_filter(Inner) → γ_(outer;⊕) plus
//                        pair effect writes; the join predicate is decomposed
//                        into four parts:
//                          1 d-dim range conjuncts (grid-joinable) and
//                            entity-id equality conjuncts (hash-joinable);
//                          2 an inner filter: conjuncts over the inner row's
//                            state and literals alone (a selection pushed
//                            below the join, applied when the grid is built);
//                          3 one key conjunct it.f != key(outer) on a numeric
//                            field (the grid partitions its cells by f);
//                          4 the residual: every other conjunct
//   TxnEmitOp            σ_guard → transaction-intent emission (§3.1)
//
// AccumOp's physical strategy is the optimizer's main decision knob (§4.1);
// it can be switched between ticks without recompiling anything else.

#ifndef SGL_RA_PLAN_H_
#define SGL_RA_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ra/expr.h"
#include "src/schema/combinator.h"

namespace sgl {

/// Physical algorithm for an AccumOp's join.
enum class JoinStrategy : uint8_t {
  kNestedLoop,  ///< scan all inner rows per outer row
  kGrid,        ///< uniform grid on the range-predicate dims
  kHash,        ///< look the entity-id equality key up in the directory
};

const char* JoinStrategyName(JoinStrategy s);

/// Whose effect an EffectWrite targets.
enum class TargetKind : uint8_t {
  kSelf,  ///< the script's own entity
  kIter,  ///< the accum-loop iteration entity (pair context only)
  kRef,   ///< an entity named by a ref expression
};

/// One `target.field <- value` effect assignment with its path condition.
struct EffectWrite {
  ExprPtr guard;  ///< bool; may be null (unconditional)
  TargetKind target_kind = TargetKind::kSelf;
  ExprPtr target_ref;        ///< kRef only: evaluates to the target entity
  ClassId target_cls = kInvalidClass;
  FieldIdx field = kInvalidField;  ///< effect field in target class
  bool set_insert = false;   ///< set-typed: insert the ref `value` (vs union)
  ExprPtr value;             ///< assigned value
  int assign_id = 0;         ///< program-unique; builds first/last order keys
};

/// A let-binding: computes a column for `slot` over the selected rows.
struct LocalDef {
  int slot = -1;
  SglType type;
  ExprPtr value;
};

/// One dimension of an extracted rectangular join predicate:
/// inner.field ∈ [lo(outer), hi(outer)].
struct RangeDim {
  FieldIdx inner_field = kInvalidField;
  ExprPtr lo;  ///< outer-only expr; null means unbounded below
  ExprPtr hi;  ///< outer-only expr; null means unbounded above
};

/// One id-equality conjunct: it == key(outer). Numeric equality on an
/// inner field is a degenerate range dim (lo == hi) instead.
struct HashDim {
  ExprPtr key;  ///< outer-only ref expr
};

/// An assignment to the accum variable inside BLOCK1 (pair context).
struct AccumAssign {
  ExprPtr guard;  ///< bool over the pair; may be null
  ExprPtr value;
};

/// Base of all plan operators.
struct PlanOp {
  enum class Kind : uint8_t { kComputeLocals, kEffects, kAccum, kTxnEmit };
  explicit PlanOp(Kind k) : kind(k) {}
  virtual ~PlanOp() = default;
  virtual std::string DebugString() const = 0;
  Kind kind;
};

struct ComputeLocalsOp : PlanOp {
  ComputeLocalsOp() : PlanOp(Kind::kComputeLocals) {}
  std::vector<LocalDef> defs;
  std::string DebugString() const override;
};

struct EffectsOp : PlanOp {
  EffectsOp() : PlanOp(Kind::kEffects) {}
  std::vector<EffectWrite> writes;
  std::string DebugString() const override;
};

struct AccumOp : PlanOp {
  AccumOp() : PlanOp(Kind::kAccum) {}

  ExprPtr outer_guard;  ///< narrows the phase selection; may be null

  // Iteration domain: a class extent, or a set-valued state field of self.
  ClassId inner_cls = kInvalidClass;
  FieldIdx inner_set_field = kInvalidField;  ///< kInvalidField = class extent

  // Decomposed join predicate.
  std::vector<RangeDim> range_dims;
  std::vector<HashDim> hash_dims;
  /// Inner-only conjuncts: read the inner row's state and literals, no
  /// outer state, locals or outer row id. May be null.
  ExprPtr inner_filter;
  /// The key conjunct it.key_field != key; kInvalidField / null = none.
  FieldIdx key_field = kInvalidField;
  ExprPtr key;       ///< outer-only numeric expr
  ExprPtr residual;  ///< leftover pair predicate; may be null
  bool exclude_self = false;  ///< predicate implied `it != self`

  // Accumulation into a local slot (read by BLOCK2 ops that follow).
  int accum_slot = -1;
  SglType accum_type;
  Combinator accum_comb = Combinator::kSum;
  std::vector<AccumAssign> accum_assigns;

  // Effect writes inside BLOCK1 (evaluated per matching pair).
  std::vector<EffectWrite> pair_writes;

  // Physical choice — owned by the optimizer, switchable per tick (§4.1).
  JoinStrategy strategy = JoinStrategy::kNestedLoop;
  int site_id = -1;  ///< adaptive-optimizer site identifier

  std::string DebugString() const override;
};

/// What a transaction write does to a txn-owned state field.
enum class TxnWriteOp : uint8_t {
  kAddDelta,   ///< numeric: committed txns add their delta
  kSetInsert,  ///< set: insert an entity
  kSetRemove,  ///< set: remove an entity — the element must be present at
               ///< admission time or the whole transaction aborts (this
               ///< structural rule is what kills duplication bugs, §3.1)
  kSetRef,     ///< ref: overwrite (admission order resolves conflicts)
};

struct TxnWrite {
  TargetKind target_kind = TargetKind::kSelf;
  ExprPtr target_ref;  ///< kRef only
  ClassId target_cls = kInvalidClass;
  FieldIdx state_field = kInvalidField;  ///< txn-owned state field
  TxnWriteOp op = TxnWriteOp::kAddDelta;
  ExprPtr value;  ///< number (delta) or ref (set element)
};

struct TxnEmitOp : PlanOp {
  TxnEmitOp() : PlanOp(Kind::kTxnEmit) {}
  ExprPtr guard;  ///< may be null
  std::string label;
  std::vector<ExprPtr> constraints;  ///< checked on tentative state (§3.1)
  std::vector<TxnWrite> writes;
  /// Numeric state field on the issuing class receiving 1 (committed),
  /// 0 (aborted), or -1 (no transaction issued this tick).
  FieldIdx status_field = kInvalidField;
  int site_id = -1;
  std::string DebugString() const override;
};

/// A fully compiled script: per-phase op lists plus PC bookkeeping.
struct CompiledScript {
  std::string name;
  ClassId cls = kInvalidClass;
  /// Multi-phase only (waitNextTick): the implicit program-counter state
  /// field and its next-value effect field. kInvalidField when one phase.
  FieldIdx pc_state = kInvalidField;
  FieldIdx pc_effect = kInvalidField;
  std::vector<std::vector<std::unique_ptr<PlanOp>>> phases;
  std::vector<SglType> local_types;  ///< slot -> type

  int num_phases() const { return static_cast<int>(phases.size()); }
};

/// A compiled reactive handler (§3.2): condition + ops, run set-at-a-time.
struct CompiledHandler {
  std::string name;
  ClassId cls = kInvalidClass;
  ExprPtr cond;
  std::vector<std::unique_ptr<PlanOp>> ops;
  std::vector<SglType> local_types;
};

/// One update rule: state_field = value(state, effects) (§2.2).
struct UpdateRule {
  ClassId cls = kInvalidClass;
  FieldIdx state_field = kInvalidField;
  ExprPtr value;
};

/// Renders an op list as an indented plan tree (EXPLAIN).
std::string ExplainOps(const std::vector<std::unique_ptr<PlanOp>>& ops);

}  // namespace sgl

#endif  // SGL_RA_PLAN_H_
