#include "src/debug/inspector.h"

#include <cmath>
#include <cstdio>

namespace sgl {

std::string DescribeTickStats(const TickStats& stats) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "tick %lld: %lldus (query %lld merge %lld update %lld | "
                "index %lld, %lld B resident) allocs/tick %lld (%lld B)",
                static_cast<long long>(stats.tick),
                static_cast<long long>(stats.total_micros),
                static_cast<long long>(stats.query_effect_micros),
                static_cast<long long>(stats.merge_micros),
                static_cast<long long>(stats.update_micros),
                static_cast<long long>(stats.index_build_micros),
                static_cast<long long>(stats.index_memory_bytes),
                static_cast<long long>(stats.allocs_per_tick),
                static_cast<long long>(stats.bytes_per_tick));
  std::string out(buf);
  if (stats.jobs_submitted != 0 || stats.jobs_installed != 0 ||
      stats.jobs_in_flight != 0) {
    std::snprintf(buf, sizeof(buf),
                  " jobs +%lld/-%lld (%lld in flight, wait %lldus)",
                  static_cast<long long>(stats.jobs_submitted),
                  static_cast<long long>(stats.jobs_installed),
                  static_cast<long long>(stats.jobs_in_flight),
                  static_cast<long long>(stats.job_wait_micros));
    out += buf;
  }
  if (stats.vm_programs != 0) {
    std::snprintf(buf, sizeof(buf), " vm %lld programs (compiled in %lldus)",
                  static_cast<long long>(stats.vm_programs),
                  static_cast<long long>(stats.vm_compile_micros));
    out += buf;
  }
  if (stats.probe_micros != 0) {
    std::snprintf(buf, sizeof(buf), " probe %lldus",
                  static_cast<long long>(stats.probe_micros));
    out += buf;
  }
  if (stats.simd_lanes_used != 0) {
    std::snprintf(buf, sizeof(buf), " simd %lld lanes",
                  static_cast<long long>(stats.simd_lanes_used));
    out += buf;
  }
  return out;
}

std::string Inspector::DescribeEntity(EntityId id) const {
  const World::Locator* loc = world_->Find(id);
  if (loc == nullptr) {
    return "<no entity @" + std::to_string(id) + ">";
  }
  const ClassDef& def = world_->catalog().Get(loc->cls);
  std::string out = def.name() + "@" + std::to_string(id) + " {";
  bool first = true;
  for (const FieldDef& f : def.state_fields()) {
    if (!first) out += ", ";
    first = false;
    out += f.name + ": " +
           world_->table(loc->cls).GetValue(loc->row, f.index).ToString();
  }
  out += "}";
  return out;
}

std::string Inspector::DescribeClass(const std::string& cls_name) const {
  ClassId cls = world_->catalog().Find(cls_name);
  if (cls == kInvalidClass) return "<no class '" + cls_name + "'>";
  const ClassDef& def = world_->catalog().Get(cls);
  const EntityTable& table = world_->table(cls);
  std::string out = cls_name + ": " + std::to_string(table.size()) + " rows";
  for (const FieldDef& f : def.state_fields()) {
    if (!f.type.is_number()) continue;
    ConstNumberColumn col = table.Num(f.index);
    double mn = INFINITY, mx = -INFINITY, sum = 0;
    for (size_t i = 0; i < table.size(); ++i) {
      mn = std::min(mn, col[i]);
      mx = std::max(mx, col[i]);
      sum += col[i];
    }
    char buf[128];
    if (table.empty()) {
      std::snprintf(buf, sizeof(buf), "\n  %s: <empty>", f.name.c_str());
    } else {
      std::snprintf(buf, sizeof(buf), "\n  %s: min=%g mean=%g max=%g",
                    f.name.c_str(), mn,
                    sum / static_cast<double>(table.size()), mx);
    }
    out += buf;
  }
  return out;
}

std::vector<EntityId> Inspector::FindWhere(const std::string& cls_name,
                                           const std::string& field,
                                           double lo, double hi) const {
  std::vector<EntityId> out;
  ClassId cls = world_->catalog().Find(cls_name);
  if (cls == kInvalidClass) return out;
  const ClassDef& def = world_->catalog().Get(cls);
  FieldIdx f = def.FindState(field);
  if (f == kInvalidField || !def.state_field(f).type.is_number()) return out;
  const EntityTable& table = world_->table(cls);
  ConstNumberColumn col = table.Num(f);
  for (size_t i = 0; i < table.size(); ++i) {
    if (col[i] >= lo && col[i] <= hi) {
      out.push_back(table.id_at(static_cast<RowIdx>(i)));
    }
  }
  return out;
}

}  // namespace sgl
