#include "src/telemetry/provenance.h"

#include <algorithm>
#include <numeric>

namespace sgl {

namespace {

/// (target, field) key of a frame record — the index's sort key.
struct RecKey {
  EntityId target;
  FieldIdx field;
};

bool KeyLess(const RecKey& a, const RecKey& b) {
  if (a.target != b.target) return a.target < b.target;
  return a.field < b.field;
}

RecKey KeyOf(const FrameRecord& r) { return RecKey{r.target, r.field}; }

ProvValue ValueOf(const AfterValue* a) {
  ProvValue v;
  v.known = a != nullptr;
  if (!v.known) return v;
  v.kind = a->kind;
  switch (v.kind) {
    case TypeKind::kNumber:
      v.num = a->value.num;
      break;
    case TypeKind::kBool:
      v.b = a->value.i != 0;
      break;
    case TypeKind::kRef:
      v.ref = a->value.i;
      break;
    case TypeKind::kSet:
      v.set_size = a->value.i;
      break;
  }
  return v;
}

ProvStep StepOf(const FrameRecord& r, Tick tick) {
  ProvStep s;
  s.tick = tick;
  s.site = r.site;
  s.assign_id = r.assign_id;
  s.order_key = r.order_key;
  s.is_txn = r.is_txn;
  s.txn = r.is_txn ? static_cast<int64_t>(r.order_key) : -1;
  s.src_outer = r.src_outer;
  s.src_inner = r.src_inner;
  s.contrib_kind = static_cast<ValueKind>(r.contrib_kind);
  switch (s.contrib_kind) {
    case ValueKind::kNumber:
      s.contrib_num = r.contrib.num;
      break;
    case ValueKind::kBool:
      s.contrib_bool = r.contrib.i != 0;
      break;
    case ValueKind::kRef:
      s.contrib_ref = r.contrib.i;
      break;
    case ValueKind::kSet:
      s.contrib_set_size = r.contrib.i;
      break;
  }
  return s;
}

/// [lo, hi) positions of `perm` whose records match (entity, field).
std::pair<size_t, size_t> EqualRun(const TickFrame& f,
                                   const std::vector<uint32_t>& perm,
                                   EntityId entity, FieldIdx field) {
  const RecKey want{entity, field};
  const auto lo = std::lower_bound(
      perm.begin(), perm.end(), want,
      [&](uint32_t pos, const RecKey& k) {
        return KeyLess(KeyOf(f.records[pos]), k);
      });
  const auto hi = std::upper_bound(
      lo, perm.end(), want, [&](const RecKey& k, uint32_t pos) {
        return KeyLess(k, KeyOf(f.records[pos]));
      });
  return {static_cast<size_t>(lo - perm.begin()),
          static_cast<size_t>(hi - perm.begin())};
}

}  // namespace

const char* ProvStatusName(ProvStatus s) {
  switch (s) {
    case ProvStatus::kOk: return "ok";
    case ProvStatus::kEvicted: return "evicted";
    case ProvStatus::kNotRecorded: return "not-recorded";
    case ProvStatus::kTruncated: return "truncated";
    case ProvStatus::kNoWrites: return "no-writes";
  }
  return "?";
}

ProvenanceIndex::ProvenanceIndex(const FlightRecorder* recorder)
    : rec_(recorder) {
  cache_.resize(static_cast<size_t>(rec_->ring_ticks()));
}

ProvStatus ProvenanceIndex::ClassifyMiss(Tick tick) const {
  const Tick oldest = rec_->oldest_tick();
  if (oldest >= 0 && tick < oldest) return ProvStatus::kEvicted;
  return ProvStatus::kNotRecorded;
}

const ProvenanceIndex::FrameIndex* ProvenanceIndex::IndexFor(
    const TickFrame** frame_out, Tick tick, ProvStatus* status) const {
  const TickFrame* f = rec_->frame(tick);
  if (f == nullptr) {
    *status = ClassifyMiss(tick);
    *frame_out = nullptr;
    return nullptr;
  }
  *frame_out = f;
  FrameIndex& slot = cache_[static_cast<size_t>(f->seq) % cache_.size()];
  if (slot.seq != f->seq || slot.tick != f->tick) {
    slot.seq = f->seq;
    slot.tick = f->tick;
    slot.perm.resize(f->num_records);
    std::iota(slot.perm.begin(), slot.perm.end(), 0u);
    // The frame is already canonically sorted, so a stable sort by
    // (target, field) leaves every equal run in canonical chain order.
    std::stable_sort(slot.perm.begin(), slot.perm.end(),
                     [f](uint32_t a, uint32_t b) {
                       return KeyLess(KeyOf(f->records[a]),
                                      KeyOf(f->records[b]));
                     });
    slot.afters.Build(*f);
  }
  *status = ProvStatus::kOk;
  return &slot;
}

WhyResult ProvenanceIndex::WhyDidChange(EntityId entity, FieldIdx field,
                                        Tick tick) const {
  WhyResult out;
  out.entity = entity;
  out.field = field;
  out.tick = tick;
  const TickFrame* f = nullptr;
  ProvStatus st = ProvStatus::kOk;
  const FrameIndex* idx = IndexFor(&f, tick, &st);
  if (idx == nullptr) {
    out.status = st;
    return out;
  }
  const auto run = EqualRun(*f, idx->perm, entity, field);
  if (run.first == run.second) {
    out.status = f->dropped_records > 0 ? ProvStatus::kTruncated
                                        : ProvStatus::kNoWrites;
    return out;
  }
  out.status = f->dropped_records > 0 ? ProvStatus::kTruncated
                                      : ProvStatus::kOk;
  out.steps.reserve(run.second - run.first);
  for (size_t i = run.first; i < run.second; ++i) {
    out.steps.push_back(StepOf(f->records[idx->perm[i]], f->tick));
  }
  out.after =
      ValueOf(idx->afters.Find(*f, f->records[idx->perm[run.second - 1]]));
  // Before-value: the latest earlier in-ring frame that wrote the same
  // (entity, field). In-ring frames are contiguous in tick, so the walk
  // stops at the first missing frame.
  const Tick oldest = rec_->oldest_tick();
  for (Tick t = tick - 1; t >= oldest && t >= 0; --t) {
    const TickFrame* g = nullptr;
    ProvStatus gst = ProvStatus::kOk;
    const FrameIndex* gidx = IndexFor(&g, t, &gst);
    if (gidx == nullptr) break;
    const auto grun = EqualRun(*g, gidx->perm, entity, field);
    if (grun.first == grun.second) continue;
    out.before = ValueOf(
        gidx->afters.Find(*g, g->records[gidx->perm[grun.second - 1]]));
    break;
  }
  return out;
}

ExplainResult ProvenanceIndex::ExplainTick(Tick tick) const {
  ExplainResult out;
  out.tick = tick;
  const TickFrame* f = rec_->frame(tick);
  if (f == nullptr) {
    out.status = ClassifyMiss(tick);
    return out;
  }
  out.status = f->dropped_records > 0 ? ProvStatus::kTruncated
                                      : ProvStatus::kOk;
  out.stats = f->stats;
  out.num_records = static_cast<int64_t>(f->num_records);
  out.dropped_records = f->dropped_records;

  // Records per site id, in slot site + 1 (plan-level -1 lands in slot 0);
  // -1 = no row. A site that ran but wrote nothing still gets a row.
  std::vector<int64_t> counts;
  auto row = [&](int site) -> int64_t& {
    SGL_DCHECK(site >= -1);
    const size_t s = static_cast<size_t>(site + 1);
    if (s >= counts.size()) counts.resize(s + 1, -1);
    if (counts[s] < 0) counts[s] = 0;
    return counts[s];
  };
  for (const SiteFeedback& fb : f->stats.sites) row(fb.site);
  for (size_t i = 0; i < f->num_records; ++i) ++row(f->records[i].site);
  for (size_t s = 0; s < counts.size(); ++s) {
    if (counts[s] < 0) continue;
    out.sites.push_back(ExplainSiteRow{static_cast<int>(s) - 1, counts[s]});
  }
  return out;
}

}  // namespace sgl
