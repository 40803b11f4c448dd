// FlightRecorder: a pooled ring of the last K ticks — "what just happened"
// as data, not printf (§3.3: the engine must be able to explain its own
// decisions and effects after the fact).
//
// Each ring frame holds one tick's
//   * TickStats — the executor's own record of the tick (phase micros, job
//     and txn counters, per-site rows), copied whole
//     rather than re-declared, so a frame reads exactly like last_stats(),
//   * canonical effect records with provenance tags (site id, ⊕/intent
//     order key, txn phase, source rows),
//   * the tick's after-values: the end-of-tick value of each (target,
//     field) written — the post-merge effect value or the post-write-back
//     state value — stored once per pair, not once per record,
//   * a wall-clock window (for span extraction into dumps).
//
// Capture path (armed): the producers — the vectorized write loop, the
// scalar oracle and the txn write-back — build 56-byte FrameRecords (a
// trivially copyable POD: the contribution is one 8-byte payload with kind
// bits, no boxed Value) straight into the writing worker's pooled lane
// (WorkerLanes) through a FlightRecorder::Batch: one lane reservation and
// one publish per write statement per morsel. At tick bookkeeping — before
// the executor reads the allocation counters, so frame assembly is held to
// the allocs_per_tick == 0 contract — the stats copy into the current
// frame, the first non-empty lane's buffer swaps into the frame in O(1)
// (the lane records on into the frame's old buffer, so pooled capacities
// rotate), and any other lanes append after it. One worker emits a site's
// writes in (assign, outer, inner) key order, so a single-lane frame is
// usually canonical already; each Batch compares a record with the lane's
// previous one as it records, so such a frame needs no order pass. A frame
// of several lanes takes one order pass. std::sort runs only on a descent
// (several lanes, or several runs in one lane — morsels).
// The after-values are copied per pair, not resolved per record:
// every effect-buffer row assigned this tick and every cell the txn
// write-back touched (NoteWriteBack) becomes one AfterValue, read from the
// world at capture. Queries and dumps look them up by (target, field,
// phase) through an AfterIndex built off the hot path.
// Frames wrap-overwrite (newest wins) with eviction accounting; record
// overflow within a frame keeps the first max_records_per_frame records in
// lane order and counts the rest as dropped. Disarmed: one branch per tick
// in the executor plus one null check per write statement.
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

#include <atomic>
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

  static FramePayload Num(double v) {
    FramePayload p;
    p.num = v;
    return p;
  }
  static FramePayload Int(int64_t v) {
    FramePayload p;
    p.i = v;
    return p;
  }
};

/// One captured effect write or txn write-back: a trivially copyable
/// 56-byte POD, written once into a capture lane and never boxed. The
/// frame carries the tick and the after-values (TickFrame::afters).
/// `contrib` is the contribution (the assigned / ⊕-combined operand, kind
/// `contrib_kind`).
struct FrameRecord {
  EntityId target;
  uint64_t order_key;  ///< ⊕ key, or the intent key for a txn write
  EntityId src_outer;
  EntityId src_inner;  ///< kNullEntity = no inner row
  FramePayload contrib;
  ClassId target_cls;
  FieldIdx field;  ///< state-field space when is_txn, else effect-field
  /// Site ids and assign ids are bounded by the program's statement count;
  /// 24 bits exceed the order key's own 20-bit assign field.
  int32_t site : 24;       ///< emitting site; -1 = plan-level
  int32_t assign_id : 24;  ///< source statement (txn: write index)
  /// Transaction write-back; its txn id is `order_key` (EffectProv::txn).
  bool is_txn : 1;
  uint32_t contrib_kind : 2;  ///< ValueKind
};
static_assert(std::is_trivially_copyable_v<FrameRecord> &&
                  sizeof(FrameRecord) <= 56,
              "FrameRecord must stay a compact POD");

/// The end-of-tick value of one (target, field) written in a frame — the
/// merged effect value for query-phase writes, the post-write-back state
/// value for transaction writes. One per pair, whatever the record count.
struct AfterValue {
  EntityId target;
  FramePayload value;  ///< set-typed values hold their cardinality
  FieldIdx field;      ///< state-field space when is_txn, else effect-field
  bool is_txn;
  TypeKind kind;
};

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

  /// After-values, in capture order (pooled; look up with AfterIndex). A
  /// record whose pair has no entry has an unknown after-value: its target
  /// was gone at capture, or its effect field was never assigned.
  std::vector<AfterValue> afters;
};

/// Looks up a frame's after-values by (target, field, phase): a sorted
/// permutation of TickFrame::afters, built off the hot path (provenance
/// queries, dumps).
class AfterIndex {
 public:
  void Build(const TickFrame& frame);
  /// The after-value of `r`'s (target, field, phase) in `frame` (the frame
  /// Build() saw), or nullptr when unknown.
  const AfterValue* Find(const TickFrame& frame, const FrameRecord& r) const;

 private:
  std::vector<uint32_t> order_;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(
      const FlightRecorderOptions& options = FlightRecorderOptions());
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Armed = capture; disarmed = executors see a null recorder. Flip
  /// between ticks. World checksums are bit-identical armed vs disarmed —
  /// capture only observes.
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

  /// Capture: up to `max_records` records from one producer step (one
  /// write statement over one morsel, one scalar write, one committed
  /// intent), reserved in the calling worker's lane at construction and
  /// published at destruction. Producers build each FrameRecord directly.
  /// Each Add also compares the record with the lane's previous one, while
  /// both are still in registers, so a frame drained from one lane needs
  /// no order pass: a descent anywhere is flagged for CaptureTick.
  class Batch {
   public:
    Batch(FlightRecorder* rec, size_t max_records)
        : rec_(rec),
          slots_(rec != nullptr ? rec->lanes_.Reserve(max_records)
                                : WorkerLanes<FrameRecord>::Reservation{}) {
      if (slots_.prev != nullptr) last_ = CanonicalOrderOf(*slots_.prev);
    }
    ~Batch() {
      if (rec_ == nullptr) return;
      rec_->lanes_.Publish(slots_, used_);
      if (descent_) rec_->descent_.store(true, std::memory_order_relaxed);
    }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    void Add(const FrameRecord& r) {
      const EffectOrder key = CanonicalOrderOf(r);
      descent_ |= key < last_;
      last_ = key;
      if (slots_.slots != nullptr) slots_.slots[used_] = r;
      ++used_;  // a lane-less thread's records count as dropped
    }

   private:
    FlightRecorder* rec_;
    WorkerLanes<FrameRecord>::Reservation slots_;
    size_t used_ = 0;
    /// The lane's previous record's key; the default key sorts before
    /// every record (txn = false, order key 0, target 0 = kNullEntity).
    EffectOrder last_;
    bool descent_ = false;
  };

  /// Capture: the txn write-back touched (cls, row, field) this tick; its
  /// end-of-tick state value becomes an after-value at CaptureTick.
  /// Barrier thread only.
  void NoteWriteBack(ClassId cls, RowIdx row, FieldIdx field) {
    writeback_cells_.push_back(Cell{cls, row, field});
  }

  /// Seals the tick `stats` describes into a ring frame (stats copy, lane
  /// swap + append, the after-values of the pairs written this tick copied
  /// from `world`, a sort only if the records descend somewhere), then
  /// evaluates the dump triggers. Allocation-free at the high-water mark.
  /// No-op when disarmed.
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
  /// A txn write-back cell (NoteWriteBack).
  struct Cell {
    ClassId cls;
    RowIdx row;
    FieldIdx field;
  };

  /// Copies the end-of-tick value of every effect-buffer row assigned this
  /// tick and every write-back cell into `frame->afters`.
  void CaptureAfters(const World& world, TickFrame* frame);
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
  /// Some lane's records descend in canonical order this tick (Batch).
  std::atomic<bool> descent_{false};
  std::vector<Cell> writeback_cells_;  ///< this tick's txn write-back cells
  std::vector<RowIdx> assigned_rows_;  ///< CaptureAfters scratch
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
