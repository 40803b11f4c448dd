// EffectTracer: records the effect assignments targeting selected entities
// (§3.3: "developers should be able to select an individual NPC and view the
// effects assigned to it"). Works identically under the compiled and the
// object-at-a-time engines and under parallel execution (records are sorted
// by deterministic order key on read).
//
// Record path (hot): a membership test against a sorted flat watch list,
// then an append to the calling worker's pooled lane
// (src/telemetry/worker_lanes.h) — no mutex serializing parallel workers,
// no per-record allocation once lanes reach their high-water capacity, so
// an armed tracer holds the steady-state allocs_per_tick == 0 contract
// when Clear() is called between ticks (capacity is kept).
//
// Read path (off-tick): lanes merge and sort into the canonical
// (tick, order_key) order — the same total order the old single-vector
// implementation exposed, now independent of which worker recorded what.
//
// Watch/Clear configure the tracer and must run between ticks
// (the barrier thread); OnEffectAssign may run from any worker.

#ifndef SGL_DEBUG_TRACER_H_
#define SGL_DEBUG_TRACER_H_

#include <string>
#include <vector>

#include "src/debug/trace.h"
#include "src/telemetry/worker_lanes.h"

namespace sgl {

/// One recorded effect assignment.
struct TraceRecord {
  Tick tick = 0;
  EntityId target = kNullEntity;
  ClassId target_cls = kInvalidClass;
  FieldIdx field = kInvalidField;
  Value value;
  int assign_id = 0;
  uint64_t order_key = 0;
  EffectProv prov;
};

/// Canonical record order: tick, then the within-tick `EffectOrder`.
inline EffectOrder CanonicalOrderOf(const TraceRecord& r) {
  return EffectOrder{r.prov.txn >= 0, r.order_key, r.target, r.field,
                     r.assign_id};
}

inline bool TraceRecordCanonicalLess(const TraceRecord& a,
                                     const TraceRecord& b) {
  if (a.tick != b.tick) return a.tick < b.tick;
  return CanonicalOrderOf(a) < CanonicalOrderOf(b);
}

class EffectTracer : public EffectTraceSink {
 public:
  /// `max_lanes` bounds the distinct recording threads (WorkerLanes).
  explicit EffectTracer(int max_lanes = 64) : lanes_(max_lanes) {}

  /// Starts watching an entity. No filter set = trace nothing.
  /// Configure between ticks (see header comment).
  void Watch(EntityId id);

  /// Watch-all mode records every assignment regardless of the watch list.
  /// Configure between ticks.
  void set_watch_all(bool on) { watch_all_ = on; }

  void OnEffectAssign(Tick tick, EntityId target, ClassId target_cls,
                      FieldIdx field, const Value& value, int assign_id,
                      uint64_t order_key, const EffectProv& prov) override;

  /// Records so far, ordered by (tick, deterministic order key).
  std::vector<TraceRecord> Records() const;
  /// Records for one entity in one tick, in canonical order.
  std::vector<TraceRecord> RecordsFor(EntityId id, Tick tick) const;

  /// Drops every record, keeping lane capacity (between ticks).
  void Clear();
  size_t size() const;

 private:
  std::vector<EntityId> watched_;  ///< sorted; binary-searched on record
  bool watch_all_ = false;
  WorkerLanes<TraceRecord> lanes_;
};

}  // namespace sgl

#endif  // SGL_DEBUG_TRACER_H_
