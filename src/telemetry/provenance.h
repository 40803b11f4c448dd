// Provenance queries over the flight recorder's ring: "why did this value
// change?" (§3.3 — the state-effect pattern makes every write an explicit,
// ordered record, so causality is a query, not a debugging session).
//
// WhyDidChange(entity, field, tick) returns the causal chain for one
// (entity, field) in one tick: every recorded write targeting it — site id,
// ⊕/intent order key, transaction id, writing source rows — in canonical
// order, plus the field's value before (the latest earlier in-ring
// after-value) and after the tick, read from the frames' after-values.
// ExplainTick(t) returns the tick's TickStats as captured plus per-site
// record counts.
//
// Both answer from flat per-frame indexes: a sorted permutation of the
// frame's records keyed by (target, field) — CSR-style, one contiguous run
// per written field — and an AfterIndex over the frame's after-values,
// built lazily per frame *off the hot path* and cached by frame sequence
// number, so repeated queries over one frame binary-search instead of
// rescanning. Correctness is verified differentially against a
// brute-force scan of the full effect stream (tests/telemetry_flight_test).
//
// Eviction is honest: a tick that fell off the ring reports kEvicted, never
// a wrong or partial chain; a frame that truncated records reports
// kTruncated.

#ifndef SGL_TELEMETRY_PROVENANCE_H_
#define SGL_TELEMETRY_PROVENANCE_H_

#include <cstdint>
#include <vector>

#include "src/telemetry/flight_recorder.h"

namespace sgl {

/// Query outcome.
enum class ProvStatus : uint8_t {
  kOk = 0,
  kEvicted,      ///< tick older than the ring window (wrap or restore)
  kNotRecorded,  ///< tick never captured (future, disarmed, or gap)
  kTruncated,    ///< frame dropped records; the chain may be incomplete
  kNoWrites,     ///< frame present, nothing wrote this (entity, field)
};

const char* ProvStatusName(ProvStatus s);

/// One writing record in a causal chain.
struct ProvStep {
  Tick tick = -1;
  int32_t site = -1;          ///< accum site id; -1 = plan-level / txn write
  int assign_id = 0;          ///< rule/assign id within the site (or intent
                              ///< write index for txn steps)
  uint64_t order_key = 0;     ///< deterministic ⊕ key / txn intent key
  bool is_txn = false;        ///< true: transaction write-back (state field)
  int64_t txn = -1;           ///< intent order key when is_txn
  EntityId src_outer = kNullEntity;  ///< issuing/outer source row
  EntityId src_inner = kNullEntity;  ///< inner join row (kNullEntity = none)
  /// The contribution (the ⊕ operand / intent delta), not the final value.
  ValueKind contrib_kind = ValueKind::kNumber;
  double contrib_num = 0.0;
  bool contrib_bool = false;
  EntityId contrib_ref = kNullEntity;
  int64_t contrib_set_size = -1;  ///< only for set-typed contributions
};

/// A resolved field value (before/after snapshots in query results).
struct ProvValue {
  bool known = false;
  TypeKind kind = TypeKind::kNumber;
  double num = 0.0;
  bool b = false;
  EntityId ref = kNullEntity;
  int64_t set_size = -1;
};

/// WhyDidChange result: the canonical chain plus before/after.
struct WhyResult {
  ProvStatus status = ProvStatus::kNotRecorded;
  Tick tick = -1;
  EntityId entity = kNullEntity;
  FieldIdx field = kInvalidField;
  /// Value before the tick: the latest earlier in-ring after-value for the
  /// same (entity, field); unknown when no earlier frame wrote it.
  ProvValue before;
  /// Value after the tick (the after-value of the last chain step's
  /// (entity, field, phase)).
  ProvValue after;
  std::vector<ProvStep> steps;  ///< canonical order
};

/// Per-site row of an ExplainTick breakdown: one per site that ran or
/// wrote. The site's timings and counters are its row in `stats.sites`.
struct ExplainSiteRow {
  int site = -1;  ///< -1 aggregates plan-level / txn records
  int64_t records = 0;  ///< effect records attributed to the site
};

/// ExplainTick result: the frame's TickStats and per-site breakdown.
struct ExplainResult {
  ProvStatus status = ProvStatus::kNotRecorded;
  Tick tick = -1;
  TickStats stats;  ///< the frame's copy (TickFrame::stats)
  int64_t num_records = 0;
  int64_t dropped_records = 0;
  std::vector<ExplainSiteRow> sites;  ///< ascending by site id, -1 first
};

/// Query front-end over one FlightRecorder. Owns the lazy per-frame
/// indexes; the recorder must outlive it. Queries run off the hot path
/// (between ticks) and may allocate.
class ProvenanceIndex {
 public:
  explicit ProvenanceIndex(const FlightRecorder* recorder);

  /// The causal chain for (entity, field) in `tick`. `field` matches both
  /// namespaces (effect fields for query-phase ⊕ writes, state fields for
  /// transaction write-backs); steps carry `is_txn` to discriminate.
  WhyResult WhyDidChange(EntityId entity, FieldIdx field, Tick tick) const;

  /// The captured TickStats of `tick` and its per-site record counts.
  ExplainResult ExplainTick(Tick tick) const;

 private:
  /// Sorted-permutation index of one frame: record positions ordered by
  /// (target, field); one contiguous run per written field (flat CSR).
  struct FrameIndex {
    uint64_t seq = ~uint64_t{0};
    Tick tick = -1;
    std::vector<uint32_t> perm;
    AfterIndex afters;
  };

  /// Index for the frame holding `tick` (built on first touch, cached by
  /// frame seq); nullptr with `*status` set when the frame is unavailable.
  const FrameIndex* IndexFor(const TickFrame** frame_out, Tick tick,
                             ProvStatus* status) const;
  /// Classifies an absent tick as evicted vs never recorded.
  ProvStatus ClassifyMiss(Tick tick) const;

  const FlightRecorder* rec_;
  mutable std::vector<FrameIndex> cache_;  ///< one slot per ring slot
};

}  // namespace sgl

#endif  // SGL_TELEMETRY_PROVENANCE_H_
