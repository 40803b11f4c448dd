#include "src/debug/tracer.h"

#include <algorithm>

namespace sgl {

void EffectTracer::Watch(EntityId id) {
  auto it = std::lower_bound(watched_.begin(), watched_.end(), id);
  if (it != watched_.end() && *it == id) return;
  watched_.insert(it, id);
}

void EffectTracer::OnEffectAssign(Tick tick, EntityId target,
                                  ClassId target_cls, FieldIdx field,
                                  const Value& value, int assign_id,
                                  uint64_t order_key, const EffectProv& prov) {
  if (!watch_all_ &&
      !std::binary_search(watched_.begin(), watched_.end(), target)) {
    return;
  }
  TraceRecord rec;
  rec.tick = tick;
  rec.target = target;
  rec.target_cls = target_cls;
  rec.field = field;
  rec.value = value;
  rec.assign_id = assign_id;
  rec.order_key = order_key;
  rec.prov = prov;
  lanes_.Append(rec);
}

std::vector<TraceRecord> EffectTracer::Records() const {
  std::vector<TraceRecord> out;
  out.reserve(lanes_.size());
  lanes_.ForEach([&](const TraceRecord& rec) { out.push_back(rec); });
  std::sort(out.begin(), out.end(), TraceRecordCanonicalLess);
  return out;
}

std::vector<TraceRecord> EffectTracer::RecordsFor(EntityId id,
                                                  Tick tick) const {
  std::vector<TraceRecord> out;
  for (const TraceRecord& rec : Records()) {
    if (rec.target == id && rec.tick == tick) out.push_back(rec);
  }
  return out;
}

void EffectTracer::Clear() { lanes_.Clear(); }

size_t EffectTracer::size() const { return lanes_.size(); }

}  // namespace sgl
