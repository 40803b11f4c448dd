// Effect tracing hook (§3.3: "developers should be able to select an
// individual NPC and view the effects assigned to it").
//
// When a sink is attached, every effect assignment (vectorized or scalar
// path) reports (target, field, value, source assignment). The executor
// checks one pointer when no sink is attached, so tracing is pay-as-you-go.

#ifndef SGL_DEBUG_TRACE_H_
#define SGL_DEBUG_TRACE_H_

#include "src/common/types.h"
#include "src/common/value.h"

namespace sgl {

/// Provenance tag attached to every effect-assignment event: which join
/// site emitted the write, from which shard, reading which source rows,
/// and — for transaction-resolved writes — which intent committed it.
///
/// `site` is -1 for plan-level (non-site) effect ops. `txn` is -1 for
/// query-phase effect writes and the intent order key
/// ((site_id << 32) | issuing_row) for writes applied at transaction
/// admission. `src_shard` is attribution of the emitting worker's shard
/// (always 0 in unsharded runs) — topology metadata, not part of the
/// deterministic causal content of a record.
struct EffectProv {
  int32_t site = -1;
  int32_t src_shard = 0;
  EntityId src_outer = kNullEntity;
  EntityId src_inner = kNullEntity;
  int64_t txn = -1;
};

/// The canonical within-tick order of effect records: phase (query-phase
/// effect writes before transaction write-backs — ⊕ keys and intent keys
/// live in different namespaces and must not interleave), then order key,
/// with (target, field, assign_id) breaking the astronomically rare key
/// collision so the order never depends on which worker recorded what.
/// `EffectTracer::Records()` and the flight recorder's frames both sort by
/// it, so the two orders cannot drift apart.
struct EffectOrder {
  bool txn = false;
  uint64_t order_key = 0;
  EntityId target = kNullEntity;
  FieldIdx field = kInvalidField;
  int assign_id = 0;
};

inline bool operator<(const EffectOrder& a, const EffectOrder& b) {
  if (a.txn != b.txn) return b.txn;
  if (a.order_key != b.order_key) return a.order_key < b.order_key;
  if (a.target != b.target) return a.target < b.target;
  if (a.field != b.field) return a.field < b.field;
  return a.assign_id < b.assign_id;
}

/// Receives effect-assignment events during the query/effect phase.
class EffectTraceSink {
 public:
  virtual ~EffectTraceSink() = default;

  /// Called once per effect assignment. `assign_id` identifies the source
  /// statement in the compiled program; `order_key` is the deterministic
  /// ⊕-resolution key; `prov` attributes the write to its emitting site,
  /// shard, source rows, and (if any) transaction.
  virtual void OnEffectAssign(Tick tick, EntityId target, ClassId target_cls,
                              FieldIdx field, const Value& value,
                              int assign_id, uint64_t order_key,
                              const EffectProv& prov) = 0;
};

}  // namespace sgl

#endif  // SGL_DEBUG_TRACE_H_
