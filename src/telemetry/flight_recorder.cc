#include "src/telemetry/flight_recorder.h"

#include <algorithm>
#include <cstdint>

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
}

}  // namespace

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

void FlightRecorder::OnEffectAssign(Tick /*tick*/, EntityId target,
                                    ClassId target_cls, FieldIdx field,
                                    const Value& value, int assign_id,
                                    uint64_t order_key,
                                    const EffectProv& prov) {
  SGL_DCHECK(prov.site < (1 << 23) && assign_id < (1 << 23));
  SGL_DCHECK(prov.txn < 0 || static_cast<uint64_t>(prov.txn) == order_key);
  FrameRecord r;
  r.target = target;
  r.order_key = order_key;
  r.src_outer = prov.src_outer;
  r.src_inner = prov.src_inner;
  switch (value.kind()) {
    case ValueKind::kNumber:
      r.contrib.num = value.AsNumber();
      break;
    case ValueKind::kBool:
      r.contrib.i = value.AsBool() ? 1 : 0;
      break;
    case ValueKind::kRef:
      r.contrib.i = value.AsRef();
      break;
    case ValueKind::kSet:
      r.contrib.i = static_cast<int64_t>(value.AsSet().size());
      break;
  }
  r.after.i = 0;
  r.target_cls = target_cls;
  r.field = field;
  r.site = prov.site;
  r.src_shard = static_cast<uint32_t>(prov.src_shard);
  r.assign_id = assign_id;
  r.is_txn = prov.txn >= 0;
  r.contrib_kind = static_cast<uint32_t>(value.kind());
  r.after_kind = 0;
  r.after_known = false;
  lanes_.Append(r);
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
  f.num_records = lanes_.DrainInto(&f.records, options_.max_records_per_frame);
  f.dropped_records = static_cast<int64_t>(published - f.num_records);
  dropped_records_total_ += f.dropped_records;
  if (!ResolveAndCheckOrder(&f, world)) {
    std::sort(f.records.begin(),
              f.records.begin() + static_cast<ptrdiff_t>(f.num_records),
              [](const FrameRecord& a, const FrameRecord& b) {
                return TraceRecordCanonicalLess(a, b);
              });
  }

  ++frames_captured_;
  const char* reason = EvaluateTriggers(f);
  if (reason[0] != '\0') TriggerDump(reason, f.tick, &world);
}

bool FlightRecorder::ResolveAndCheckOrder(TickFrame* frame,
                                          const World& world) {
  bool ordered = true;
  for (size_t i = 0; i < frame->num_records; ++i) {
    FrameRecord& r = frame->records[i];
    if (i > 0 && TraceRecordCanonicalLess(r, frame->records[i - 1])) {
      ordered = false;
    }
    const World::Locator* loc = world.Find(r.target);
    if (loc == nullptr) continue;  // despawned before capture
    const EntityTable& table = world.table(loc->cls);
    if (loc->row >= static_cast<RowIdx>(table.size())) continue;
    const ClassDef& cls = table.cls();
    if (r.is_txn) {
      // Transaction write: the field lives in state space and the admitted
      // value was written back during UPDATE — read the state column.
      if (r.field < 0 ||
          static_cast<size_t>(r.field) >= cls.state_fields().size()) {
        continue;
      }
      const TypeKind kind = cls.state_field(r.field).type.kind;
      switch (kind) {
        case TypeKind::kNumber:
          r.after.num = table.Num(r.field)[loc->row];
          break;
        case TypeKind::kBool:
          r.after.i = table.BoolCol(r.field)[loc->row] != 0 ? 1 : 0;
          break;
        case TypeKind::kRef:
          r.after.i = table.RefCol(r.field)[loc->row];
          break;
        case TypeKind::kSet:
          r.after.i =
              static_cast<int64_t>(table.SetCol(r.field)[loc->row].size());
          break;
      }
      r.after_kind = static_cast<uint32_t>(kind);
      r.after_known = true;
    } else {
      // Query-phase effect: the merged (post-⊕, finalized) value is still
      // in the effect buffer — ResetEffects runs at the *next* tick start.
      if (r.field < 0 ||
          static_cast<size_t>(r.field) >= cls.effect_fields().size()) {
        continue;
      }
      const EffectBuffer& eb = world.effects(loc->cls);
      if (!eb.Assigned(r.field, loc->row)) continue;
      const TypeKind kind = cls.effect_field(r.field).type.kind;
      switch (kind) {
        case TypeKind::kNumber:
          r.after.num = eb.FinalNumber(r.field, loc->row);
          break;
        case TypeKind::kBool:
          r.after.i = eb.FinalBool(r.field, loc->row) ? 1 : 0;
          break;
        case TypeKind::kRef:
          r.after.i = eb.FinalRef(r.field, loc->row);
          break;
        case TypeKind::kSet:
          r.after.i =
              static_cast<int64_t>(eb.FinalSet(r.field, loc->row).size());
          break;
      }
      r.after_kind = static_cast<uint32_t>(kind);
      r.after_known = true;
    }
  }
  return ordered;
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
  if (reason[0] == '\0' && options_.imbalance_bp_threshold > 0 &&
      frame.stats.imbalance_bp >= options_.imbalance_bp_threshold) {
    reason = "anomaly.shard_imbalance";
  }
  if (reason[0] == '\0' && options_.barrier_stall_us_threshold > 0 &&
      frame.stats.barrier_stall_us >= options_.barrier_stall_us_threshold) {
    reason = "anomaly.barrier_stall";
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
  for (int64_t s = first; s < frames_captured_; ++s) {
    const TickFrame& f = ring_[static_cast<size_t>(s) % ring_.size()];
    binio::Append<int64_t>(out, f.tick);
    binio::Append<int64_t>(out, f.dropped_records);
    binio::Append<uint64_t>(out, static_cast<uint64_t>(f.num_records));
    for (size_t i = 0; i < f.num_records; ++i) {
      const FrameRecord& r = f.records[i];
      binio::Append<int64_t>(out, f.tick);
      binio::Append<EntityId>(out, r.target);
      binio::Append<int32_t>(out, static_cast<int32_t>(r.target_cls));
      binio::Append<int32_t>(out, static_cast<int32_t>(r.field));
      binio::Append<int32_t>(out, static_cast<int32_t>(r.assign_id));
      binio::Append<uint64_t>(out, r.order_key);
      binio::Append<int32_t>(out, static_cast<int32_t>(r.site));
      binio::Append<int32_t>(out, static_cast<int32_t>(r.src_shard));
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
      const bool known = r.after_known;
      const auto kind = static_cast<TypeKind>(known ? r.after_kind : 0);
      auto is = [&](TypeKind k) { return known && kind == k; };
      binio::Append<uint8_t>(out, known ? 1 : 0);
      binio::Append<uint8_t>(out, static_cast<uint8_t>(kind));
      binio::Append<double>(out, is(TypeKind::kNumber) ? r.after.num : 0.0);
      binio::Append<uint8_t>(out,
                             is(TypeKind::kBool) && r.after.i != 0 ? 1 : 0);
      binio::Append<EntityId>(out,
                              is(TypeKind::kRef) ? r.after.i : kNullEntity);
      binio::Append<int64_t>(out, is(TypeKind::kSet) ? r.after.i : -1);
    }
  }
}

}  // namespace sgl
