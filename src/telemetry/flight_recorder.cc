#include "src/telemetry/flight_recorder.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "src/common/bin_io.h"
#include "src/debug/checkpoint.h"
#include "src/debug/checkpoint_file.h"
#include "src/fault/fault_injector.h"
#include "src/schema/class_def.h"
#include "src/storage/world.h"
#include "src/telemetry/telemetry.h"

namespace sgl {

namespace {

/// Provenance-section format tag ("SGLPROV1", little-endian).
constexpr uint64_t kProvMagic = 0x31564f52504c4753ULL;

/// Resets a frame slot to "never written", keeping every pooled capacity.
void ClearFrame(TickFrame* f) {
  f->tick = -1;
  f->seq = 0;
  f->stats.Reset(-1);
  f->num_records = 0;
  f->dropped_records = 0;
  f->afters.clear();
}

/// The final value of effect field `fd` in an assigned `row`.
FramePayload EffectPayload(const EffectBuffer& eb, const FieldDef& fd,
                           RowIdx row) {
  switch (fd.type.kind) {
    case TypeKind::kNumber:
      return FramePayload::Num(eb.FinalNumber(fd.index, row));
    case TypeKind::kBool:
      return FramePayload::Int(eb.FinalBool(fd.index, row) ? 1 : 0);
    case TypeKind::kRef:
      return FramePayload::Int(eb.FinalRef(fd.index, row));
    case TypeKind::kSet:
      return FramePayload::Int(
          static_cast<int64_t>(eb.FinalSet(fd.index, row).size()));
  }
  return FramePayload::Int(0);  // not reached: every kind returns above
}

/// The value of state field `fd` in `row`.
FramePayload StatePayload(const EntityTable& table, const FieldDef& fd,
                          RowIdx row) {
  switch (fd.type.kind) {
    case TypeKind::kNumber:
      return FramePayload::Num(table.Num(fd.index)[row]);
    case TypeKind::kBool:
      return FramePayload::Int(table.BoolCol(fd.index)[row] != 0 ? 1 : 0);
    case TypeKind::kRef:
      return FramePayload::Int(table.RefCol(fd.index)[row]);
    case TypeKind::kSet:
      return FramePayload::Int(
          static_cast<int64_t>(table.SetCol(fd.index)[row].size()));
  }
  return FramePayload::Int(0);  // not reached: every kind returns above
}

/// Sort key of an after-value lookup.
struct AfterKey {
  EntityId target;
  FieldIdx field;
  bool is_txn;
};

bool AfterKeyLess(const AfterKey& a, const AfterKey& b) {
  if (a.target != b.target) return a.target < b.target;
  if (a.field != b.field) return a.field < b.field;
  return a.is_txn < b.is_txn;
}

AfterKey KeyOf(const AfterValue& a) {
  return AfterKey{a.target, a.field, a.is_txn};
}

}  // namespace

void AfterIndex::Build(const TickFrame& frame) {
  order_.resize(frame.afters.size());
  std::iota(order_.begin(), order_.end(), 0u);
  std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
    return AfterKeyLess(KeyOf(frame.afters[a]), KeyOf(frame.afters[b]));
  });
}

const AfterValue* AfterIndex::Find(const TickFrame& frame,
                                   const FrameRecord& r) const {
  const AfterKey want{r.target, r.field, r.is_txn};
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), want, [&](uint32_t pos, const AfterKey& k) {
        return AfterKeyLess(KeyOf(frame.afters[pos]), k);
      });
  if (it == order_.end() || AfterKeyLess(want, KeyOf(frame.afters[*it]))) {
    return nullptr;
  }
  return &frame.afters[*it];
}

FlightRecorder::FlightRecorder(const FlightRecorderOptions& options)
    : options_(options), lanes_(options.max_lanes) {
  if (options_.ring_ticks < 1) options_.ring_ticks = 1;
  ring_.resize(static_cast<size_t>(options_.ring_ticks));
  for (TickFrame& f : ring_) ClearFrame(&f);
  p95_scratch_.reserve(ring_.size());
}

void FlightRecorder::set_fault(FaultInjector* fault) {
  fault_ = fault;
  // Baseline the fire counter so pre-attachment fires never trigger.
  last_fault_fires_ = fault != nullptr ? fault->total_fires() : 0;
}

void FlightRecorder::CaptureTick(const TickStats& stats, const World& world) {
  if (!armed_) return;
  TickFrame& f = ring_[static_cast<size_t>(frames_captured_) % ring_.size()];
  f.tick = stats.tick;
  f.seq = static_cast<uint64_t>(frames_captured_);
  f.end_ns = Telemetry::NowNs();
  f.begin_ns = f.end_ns - stats.total_micros * 1000;
  f.stats = stats;

  const size_t published = lanes_.size();
  const bool one_lane = lanes_.active_lanes() <= 1;
  const bool descent = descent_.exchange(false, std::memory_order_relaxed);
  f.num_records = lanes_.DrainInto(&f.records, options_.max_records_per_frame);
  f.dropped_records = static_cast<int64_t>(published - f.num_records);
  dropped_records_total_ += f.dropped_records;
  CaptureAfters(world, &f);
  // One lane without a descent is already canonical (Batch checked it as
  // it recorded). Several lanes take one order pass for their junctions;
  // either way std::sort runs only on a descent.
  const auto begin = f.records.begin();
  const auto end = begin + static_cast<ptrdiff_t>(f.num_records);
  if (one_lane ? descent
               : std::is_sorted_until(begin, end, TraceRecordCanonicalLess) !=
                     end) {
    std::sort(begin, end, TraceRecordCanonicalLess);
  }

  ++frames_captured_;
  const char* reason = EvaluateTriggers(f);
  if (reason[0] != '\0') TriggerDump(reason, f.tick, &world);
}

void FlightRecorder::CaptureAfters(const World& world, TickFrame* frame) {
  std::vector<AfterValue>& out = frame->afters;
  out.clear();
  // The most pairs a tick can write, reserved so a slot's first capture at
  // this world size is its only allocation.
  size_t bound = writeback_cells_.size();
  const int num_classes = world.catalog().num_classes();
  for (ClassId c = 0; c < num_classes; ++c) {
    bound += world.table(c).size() * world.table(c).cls().effect_fields().size();
  }
  out.reserve(bound);

  // Query-phase effects: the merged (post-⊕, finalized) value is still in
  // the effect buffer — ResetEffects runs at the *next* tick start. The
  // assigned rows are gathered first, so the copy loop takes no
  // data-dependent branch.
  for (ClassId c = 0; c < num_classes; ++c) {
    const EntityTable& table = world.table(c);
    const EffectBuffer& eb = world.effects(c);
    if (eb.rows() != table.size()) continue;  // no tick since a spawn
    if (assigned_rows_.size() < eb.rows()) assigned_rows_.resize(eb.rows());
    for (const FieldDef& fd : table.cls().effect_fields()) {
      const size_t m = eb.AssignedRows(fd.index, assigned_rows_.data());
      for (size_t k = 0; k < m; ++k) {
        const RowIdx row = assigned_rows_[k];
        out.push_back(AfterValue{table.id_at(row),
                                 EffectPayload(eb, fd, row), fd.index,
                                 /*is_txn=*/false, fd.type.kind});
      }
    }
  }

  // Transaction writes: the admitted value was written back during UPDATE —
  // read the state column.
  for (const Cell& cell : writeback_cells_) {
    const EntityTable& table = world.table(cell.cls);
    if (cell.row >= table.size()) continue;
    const FieldDef& fd = table.cls().state_field(cell.field);
    out.push_back(AfterValue{table.id_at(cell.row),
                             StatePayload(table, fd, cell.row), cell.field,
                             /*is_txn=*/true, fd.type.kind});
  }
  writeback_cells_.clear();
}

const char* FlightRecorder::EvaluateTriggers(const TickFrame& frame) {
  const char* reason = "";
  if (fault_ != nullptr) {
    const int64_t fires = fault_->total_fires();
    if (options_.dump_on_fault && fires > last_fault_fires_) {
      reason = "fault.fired";
    }
    last_fault_fires_ = fires;
  }
  if (reason[0] == '\0' && options_.anomaly_p95_factor > 0.0) {
    p95_scratch_.clear();
    for (const TickFrame& g : ring_) {
      if (g.tick < 0 || g.seq == frame.seq) continue;
      p95_scratch_.push_back(g.stats.total_micros);
    }
    if (static_cast<int>(p95_scratch_.size()) >= kMinFramesForAnomaly) {
      size_t k = p95_scratch_.size() * 95 / 100;
      if (k >= p95_scratch_.size()) k = p95_scratch_.size() - 1;
      std::nth_element(p95_scratch_.begin(),
                       p95_scratch_.begin() + static_cast<ptrdiff_t>(k),
                       p95_scratch_.end());
      const int64_t p95 = p95_scratch_[k];
      if (p95 > 0 && static_cast<double>(frame.stats.total_micros) >
                         options_.anomaly_p95_factor *
                             static_cast<double>(p95)) {
        reason = "anomaly.tick_time";
      }
    }
  }
  return reason;
}

void FlightRecorder::TriggerDump(const char* reason, Tick tick,
                                 const World* world) {
  if (options_.dump_cooldown_ticks > 0 && last_dump_tick_ >= 0 &&
      tick - last_dump_tick_ < options_.dump_cooldown_ticks) {
    ++dumps_suppressed_;
    return;
  }
  if (store_ == nullptr) {
    last_trigger_ = reason;
    ++dumps_suppressed_;
    return;
  }
  (void)DumpNow(reason, tick, world);
}

void FlightRecorder::NotifyRestore(Tick tick, const World* world) {
  // A dump tick from the abandoned timeline may lie ahead of the restored
  // one; left in place it would hold every trigger in cooldown until the
  // replay caught up with it.
  last_dump_tick_ = -1;
  if (options_.dump_on_restore && store_ != nullptr) {
    // The ring still holds the pre-crash window — that *is* the black box.
    (void)DumpNow("crash.restore", tick, world);
  }
  // The abandoned timeline's frames must not mix with the recovered run:
  // re-executed ticks would collide with stale pre-crash frames. Keep every
  // pooled capacity, drop the contents.
  lanes_.Clear();
  descent_.store(false, std::memory_order_relaxed);
  writeback_cells_.clear();
  for (TickFrame& f : ring_) ClearFrame(&f);
  frames_captured_ = 0;
}

Status FlightRecorder::DumpNow(const std::string& reason, Tick tick,
                               const World* world) {
  if (store_ == nullptr) {
    return Status::InvalidArgument("flight recorder: no black-box store");
  }
  last_trigger_ = reason;
  BlackBoxDump dump;
  dump.tick = tick;
  dump.world_checksum = world != nullptr ? WorldChecksum(*world) : 0;
  dump.reason = reason;
  if (tel_ != nullptr) {
    dump.chrome_trace = tel_->DumpChromeTrace();
    dump.metrics = tel_->metrics().Snapshot().Describe();
    dump.sites = tel_->DescribeSitesJson();
  } else {
    dump.chrome_trace = "{\"traceEvents\":[]}\n";
    dump.sites = "[]\n";
  }
  SerializeProvenanceTail(&dump.provenance);
  const Status s = store_->Save(dump);
  if (s.ok()) {
    ++dumps_written_;
    last_dump_tick_ = tick;
  }
  return s;
}

const TickFrame* FlightRecorder::frame(Tick t) const {
  for (const TickFrame& f : ring_) {
    if (f.tick >= 0 && f.tick == t) return &f;
  }
  return nullptr;
}

Tick FlightRecorder::oldest_tick() const {
  Tick best = -1;
  for (const TickFrame& f : ring_) {
    if (f.tick >= 0 && (best < 0 || f.tick < best)) best = f.tick;
  }
  return best;
}

Tick FlightRecorder::newest_tick() const {
  Tick best = -1;
  for (const TickFrame& f : ring_) {
    if (f.tick > best) best = f.tick;
  }
  return best;
}

void FlightRecorder::SerializeProvenanceTail(std::string* out) const {
  const int64_t size = static_cast<int64_t>(ring_.size());
  const int64_t first =
      frames_captured_ > size ? frames_captured_ - size : 0;
  binio::Append<uint64_t>(out, kProvMagic);
  binio::Append<int64_t>(out, frames_captured_ - first);
  AfterIndex afters;
  for (int64_t s = first; s < frames_captured_; ++s) {
    const TickFrame& f = ring_[static_cast<size_t>(s) % ring_.size()];
    binio::Append<int64_t>(out, f.tick);
    binio::Append<int64_t>(out, f.dropped_records);
    binio::Append<uint64_t>(out, static_cast<uint64_t>(f.num_records));
    afters.Build(f);
    for (size_t i = 0; i < f.num_records; ++i) {
      const FrameRecord& r = f.records[i];
      binio::Append<int64_t>(out, f.tick);
      binio::Append<EntityId>(out, r.target);
      binio::Append<int32_t>(out, static_cast<int32_t>(r.target_cls));
      binio::Append<int32_t>(out, static_cast<int32_t>(r.field));
      binio::Append<int32_t>(out, static_cast<int32_t>(r.assign_id));
      binio::Append<uint64_t>(out, r.order_key);
      binio::Append<int32_t>(out, static_cast<int32_t>(r.site));
      binio::Append<int32_t>(out, 0);  // reserved slot, always 0
      binio::Append<EntityId>(out, r.src_outer);
      binio::Append<EntityId>(out, r.src_inner);
      binio::Append<int64_t>(
          out, r.is_txn ? static_cast<int64_t>(r.order_key) : int64_t{-1});
      // Contribution: kind tag + that kind's payload only (set
      // contributions serialize their cardinality).
      const auto contrib_kind = static_cast<ValueKind>(r.contrib_kind);
      binio::Append<uint8_t>(out, static_cast<uint8_t>(contrib_kind));
      switch (contrib_kind) {
        case ValueKind::kNumber:
          binio::Append<double>(out, r.contrib.num);
          break;
        case ValueKind::kBool:
          binio::Append<uint8_t>(out, r.contrib.i != 0 ? 1 : 0);
          break;
        case ValueKind::kRef:
          binio::Append<EntityId>(out, r.contrib.i);
          break;
        case ValueKind::kSet:
          binio::Append<int64_t>(out, r.contrib.i);
          break;
      }
      // After-value: every payload slot is written, with its canonical
      // empty value unless the after-value is known and of that kind, so
      // the bytes never depend on what a pooled slot held before.
      const AfterValue* after = afters.Find(f, r);
      const bool known = after != nullptr;
      const TypeKind kind = known ? after->kind : TypeKind::kNumber;
      auto is = [&](TypeKind k) { return known && kind == k; };
      binio::Append<uint8_t>(out, known ? 1 : 0);
      binio::Append<uint8_t>(out, static_cast<uint8_t>(kind));
      binio::Append<double>(out,
                            is(TypeKind::kNumber) ? after->value.num : 0.0);
      binio::Append<uint8_t>(
          out, is(TypeKind::kBool) && after->value.i != 0 ? 1 : 0);
      binio::Append<EntityId>(
          out, is(TypeKind::kRef) ? after->value.i : kNullEntity);
      binio::Append<int64_t>(out, is(TypeKind::kSet) ? after->value.i : -1);
    }
  }
}

}  // namespace sgl
