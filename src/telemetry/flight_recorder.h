// FlightRecorder: a pooled ring of the last K ticks — "what just happened"
// as data, not printf (§3.3: the engine must be able to explain its own
// decisions and effects after the fact).
//
// Each ring frame holds one tick's
//   * TickStats — the executor's own record of the tick (phase micros, job
//     and txn counters, shard gauges, per-site rows), copied whole
//     rather than re-declared, so a frame reads exactly like last_stats(),
//   * canonical effect records with provenance tags (site id, ⊕/intent
//     order key, txn phase, source rows, source shard) and each record's
//     *resolved after-value* — the post-merge effect value or the
//     post-write-back state value of the written field,
//   * a wall-clock window (for span extraction into dumps).
//
// Capture path (armed): the recorder is itself the executors' effect sink.
// Each write becomes one 64-byte FrameRecord (a trivially copyable POD:
// contribution and after-value are one 8-byte payload each with kind bits,
// no boxed Value) appended to the writing worker's pooled lane
// (WorkerLanes). At tick bookkeeping — before the executor reads the
// allocation counters, so frame assembly is held to the allocs_per_tick
// == 0 contract — the stats copy into the current frame, the first
// non-empty lane's buffer swaps into the frame in O(1) (the lane records
// on into the frame's old buffer, so pooled capacities rotate), any other
// lanes append after it, and one pass resolves after-values from the world
// while checking canonical order. One worker emits a site's writes in
// (assign, outer, inner) key order, so a single-lane frame is already
// canonical; std::sort runs only when that pass finds a descent (several
// lanes, or several runs in one lane).
// Frames wrap-overwrite (newest wins) with eviction accounting; record
// overflow within a frame keeps the first max_records_per_frame records in
// lane order and counts the rest as dropped. Disarmed: one branch per tick
// in the executor plus one null check per effect write.
//
// Black-box triggers: after each capture the trigger engine checks
//   * tick time > anomaly_p95_factor × rolling p95 over the ring,
//   * any FaultInjector fire since the previous capture,
//   * crash detected on restore (Engine::Restore → NotifyRestore),
// and writes a self-contained dump (reason, Chrome trace of the ring
// window, metrics snapshot, site table JSON, serialized provenance tail,
// world checksum) into a BlackBoxStore, the "SGLBBOX1" instance of the
// checkpoint container (src/debug/CHECKPOINT_FORMAT.md). Dump writing is
// off the steady-state contract — it allocates freely; a cooldown keeps a
// sustained anomaly from flooding the store.
//
// The provenance tail and world checksum serialize only deterministic
// content (no wall-clock), so a never-crashed run and a crash/recover run
// over the same program produce byte-identical provenance sections — the
// recovery differential the tests compare.
//
// Queries over the ring (WhyDidChange / ExplainTick) live in
// src/telemetry/provenance.h; this class owns the data they read.

#ifndef SGL_TELEMETRY_FLIGHT_RECORDER_H_
#define SGL_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/debug/trace.h"
#include "src/exec/tick_executor.h"
#include "src/schema/type.h"
#include "src/telemetry/worker_lanes.h"

namespace sgl {

class BlackBoxStore;
class FaultInjector;
class Telemetry;
class World;

/// Sizing and trigger knobs. Everything that can preallocate does so at
/// construction; triggers default off (0 / false = disabled).
struct FlightRecorderOptions {
  /// Ring depth in ticks. Older frames are overwritten (evicted_frames()).
  int ring_ticks = 16;
  /// Per-frame record budget; beyond it records drop (dropped_records()).
  size_t max_records_per_frame = 1 << 16;
  /// Capture worker lanes (threads beyond this drop their records).
  int max_lanes = 64;

  // --- Black-box triggers (0 / false = disabled) -------------------------
  /// Fire when tick total µs exceeds `factor × p95` of the in-ring frames.
  double anomaly_p95_factor = 0.0;
  /// Fire when the attached FaultInjector's total_fires() advanced since
  /// the previous capture.
  bool dump_on_fault = false;
  /// Fire from NotifyRestore (crash detected on restore).
  bool dump_on_restore = false;
  /// Minimum ticks between automatic dumps (dumps_suppressed() counts).
  Tick dump_cooldown_ticks = 16;
};

/// Frames required in the ring before the p95 trigger can fire.
constexpr int kMinFramesForAnomaly = 8;

/// An 8-byte record payload; the record's kind bits say which member is
/// live. Numbers use `num`; refs, bools (0/1) and set cardinalities use
/// `i` — a set is never boxed.
union FramePayload {
  double num;
  int64_t i;
};

/// One captured effect write plus its resolved after-value: a trivially
/// copyable 64-byte POD, written once into a capture lane and never boxed.
/// The frame carries the tick. `contrib` is the contribution (the
/// assigned / ⊕-combined operand, kind `contrib_kind`); `after` is the
/// field's value at end of tick (kind `after_kind`, valid when
/// `after_known`) — the merged effect value for query-phase records, the
/// post-write-back state value for transaction records.
struct FrameRecord {
  EntityId target;
  uint64_t order_key;  ///< ⊕ key, or the intent key for a txn write
  EntityId src_outer;
  EntityId src_inner;  ///< kNullEntity = no inner row
  FramePayload contrib;
  FramePayload after;
  ClassId target_cls;
  FieldIdx field;  ///< state-field space when is_txn, else effect-field
  /// Site ids and assign ids are bounded by the program's statement count;
  /// 24 bits exceed the order key's own 20-bit assign field.
  int32_t site : 24;        ///< emitting site; -1 = plan-level
  uint32_t src_shard : 8;   ///< < 255, enforced by Engine::Create
  int32_t assign_id : 24;   ///< source statement (txn: write index)
  /// Transaction write-back; its txn id is `order_key` (EffectProv::txn).
  bool is_txn : 1;
  uint32_t contrib_kind : 2;  ///< ValueKind
  uint32_t after_kind : 2;    ///< TypeKind; 0 when !after_known
  bool after_known : 1;       ///< false: target despawned / unresolvable
};
static_assert(std::is_trivially_copyable_v<FrameRecord> &&
                  sizeof(FrameRecord) <= 64,
              "FrameRecord must stay a compact POD");

/// The frame records' canonical order (the same key as
/// TraceRecordCanonicalLess; a frame holds one tick).
inline EffectOrder CanonicalOrderOf(const FrameRecord& r) {
  return EffectOrder{r.is_txn, r.order_key, r.target, r.field, r.assign_id};
}

inline bool TraceRecordCanonicalLess(const FrameRecord& a,
                                     const FrameRecord& b) {
  return CanonicalOrderOf(a) < CanonicalOrderOf(b);
}

/// One ring slot: everything the recorder kept about one tick.
struct TickFrame {
  Tick tick = -1;      ///< -1: slot never written
  uint64_t seq = 0;    ///< capture sequence (wrap generation)
  int64_t begin_ns = 0, end_ns = 0;  ///< wall-clock window (Telemetry epoch)

  /// The executor's record of the tick, site rows included (a pooled copy:
  /// copy-assignment reuses the slot's `sites` capacity). Its
  /// allocs_per_tick / bytes_per_tick are 0 — capture runs before the
  /// executor closes the allocation window.
  TickStats stats;

  /// Canonically sorted records; `num_records` is the used prefix (the
  /// buffer is pooled: it rotates with the capture lanes and never
  /// shrinks).
  std::vector<FrameRecord> records;
  size_t num_records = 0;
  int64_t dropped_records = 0;  ///< truncated past max_records_per_frame
};

class FlightRecorder : public EffectTraceSink {
 public:
  explicit FlightRecorder(
      const FlightRecorderOptions& options = FlightRecorderOptions());
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Armed = capture; disarmed = executors see a null sink. Flip between
  /// ticks. World checksums are bit-identical armed vs disarmed — capture
  /// only observes.
  bool armed() const { return armed_; }
  void set_armed(bool on) { armed_ = on; }

  /// Optional attachments (borrowed; must outlive the recorder).
  /// Telemetry feeds the dump's Chrome trace / metrics / site sections;
  /// the fault injector feeds the dump_on_fault trigger; the store
  /// receives the dumps (no store = triggers evaluate but write nothing,
  /// still counted in dumps_suppressed()).
  void set_telemetry(Telemetry* tel) { tel_ = tel; }
  void set_fault(FaultInjector* fault);
  void AttachStore(BlackBoxStore* store) { store_ = store; }

  /// The effect-write sink the executors fan into this tick (null when
  /// disarmed — the executors re-read this every tick).
  EffectTraceSink* capture_sink() { return armed_ ? this : nullptr; }

  /// Capture: appends one FrameRecord to the calling worker's lane.
  void OnEffectAssign(Tick tick, EntityId target, ClassId target_cls,
                      FieldIdx field, const Value& value, int assign_id,
                      uint64_t order_key, const EffectProv& prov) override;

  /// Seals the tick `stats` describes into a ring frame (stats copy, lane
  /// swap + append, one after-value/order pass against `world`, a sort only
  /// if that pass found the records out of order), then evaluates the dump
  /// triggers. Allocation-free at the high-water mark. No-op when disarmed.
  void CaptureTick(const TickStats& stats, const World& world);

  /// Crash-recovery notification (Engine::Restore). Forgets the abandoned
  /// timeline's dump tick (the cooldown counts from the recovered run
  /// only), writes a "crash.restore" dump when dump_on_restore is set, then
  /// clears the ring.
  void NotifyRestore(Tick tick, const World* world);

  /// Writes a dump now, regardless of triggers and cooldown (tests,
  /// operator request). Allocates freely. Fails when no store is attached.
  Status DumpNow(const std::string& reason, Tick tick, const World* world);

  // --- Ring access (provenance queries, tests) ---------------------------
  /// Frame holding tick `t`; nullptr when evicted or never captured.
  const TickFrame* frame(Tick t) const;
  /// Oldest / newest captured tick still in the ring (-1 when empty).
  Tick oldest_tick() const;
  Tick newest_tick() const;
  int ring_ticks() const { return static_cast<int>(ring_.size()); }
  const FlightRecorderOptions& options() const { return options_; }

  /// Deterministic serialization of every in-ring frame's records
  /// (oldest → newest): the dump's provenance section. binio format, no
  /// wall-clock content.
  void SerializeProvenanceTail(std::string* out) const;

  // --- Accounting --------------------------------------------------------
  int64_t frames_captured() const { return frames_captured_; }
  int64_t evicted_frames() const {
    const int64_t n = frames_captured_ - static_cast<int64_t>(ring_.size());
    return n > 0 ? n : 0;
  }
  int64_t dropped_records() const { return dropped_records_total_; }
  int64_t dumps_written() const { return dumps_written_; }
  int64_t dumps_suppressed() const { return dumps_suppressed_; }
  /// Reason string of the most recent trigger ("" when none fired yet).
  const std::string& last_trigger() const { return last_trigger_; }

 private:
  /// Resolves every record's after-value and returns whether the records
  /// were already in canonical order (one pass does both).
  bool ResolveAndCheckOrder(TickFrame* frame, const World& world);
  /// Evaluates triggers for the just-captured frame; returns the reason
  /// ("" = none).
  const char* EvaluateTriggers(const TickFrame& frame);
  void TriggerDump(const char* reason, Tick tick, const World* world);

  FlightRecorderOptions options_;
  bool armed_ = false;
  Telemetry* tel_ = nullptr;
  FaultInjector* fault_ = nullptr;
  BlackBoxStore* store_ = nullptr;

  WorkerLanes<FrameRecord> lanes_;  ///< this tick's captured records
  std::vector<TickFrame> ring_;
  int64_t frames_captured_ = 0;
  int64_t dropped_records_total_ = 0;
  int64_t dumps_written_ = 0;
  int64_t dumps_suppressed_ = 0;
  Tick last_dump_tick_ = -1;
  int64_t last_fault_fires_ = 0;
  std::string last_trigger_;
  std::vector<int64_t> p95_scratch_;  ///< pre-reserved rolling-p95 buffer
};

}  // namespace sgl

#endif  // SGL_TELEMETRY_FLIGHT_RECORDER_H_
