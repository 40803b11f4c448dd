#include "src/ra/plan.h"

namespace sgl {

const char* JoinStrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kNestedLoop: return "nested-loop";
    case JoinStrategy::kGrid: return "grid";
    case JoinStrategy::kHash: return "hash";
  }
  return "?";
}

namespace {
std::string WriteString(const EffectWrite& w) {
  std::string out;
  if (w.guard != nullptr) out += "if " + w.guard->ToString() + " then ";
  switch (w.target_kind) {
    case TargetKind::kSelf: out += "self"; break;
    case TargetKind::kIter: out += "it"; break;
    case TargetKind::kRef: out += "(" + w.target_ref->ToString() + ")"; break;
  }
  out += ".eff" + std::to_string(w.field);
  out += w.set_insert ? " <+ " : " <- ";
  out += w.value->ToString();
  return out;
}
}  // namespace

std::string ComputeLocalsOp::DebugString() const {
  std::string out = "Extend[";
  for (size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) out += ", ";
    out += "$" + std::to_string(defs[i].slot) + "=" +
           defs[i].value->ToString();
  }
  out += "]";
  return out;
}

std::string EffectsOp::DebugString() const {
  std::string out = "Effects[";
  for (size_t i = 0; i < writes.size(); ++i) {
    if (i > 0) out += "; ";
    out += WriteString(writes[i]);
  }
  out += "]";
  return out;
}

std::string AccumOp::DebugString() const {
  std::string out = "AccumJoin[";
  out += JoinStrategyName(strategy);
  if (outer_guard != nullptr) out += ", outer: " + outer_guard->ToString();
  out += ", inner: class" + std::to_string(inner_cls);
  if (inner_set_field != kInvalidField) {
    out += " via set s" + std::to_string(inner_set_field);
  }
  for (const RangeDim& r : range_dims) {
    out += ", range(s" + std::to_string(r.inner_field) + " in [" +
           (r.lo != nullptr ? r.lo->ToString() : "-inf") + "," +
           (r.hi != nullptr ? r.hi->ToString() : "+inf") + "])";
  }
  for (const HashDim& h : hash_dims) {
    out += ", eq(id=" + h.key->ToString() + ")";
  }
  if (key != nullptr) {
    out += ", key(s" + std::to_string(key_field) + " != " + key->ToString() +
           ")";
  }
  if (inner_filter != nullptr) {
    out += ", inner-filter: " + inner_filter->ToString();
  }
  if (residual != nullptr) out += ", residual: " + residual->ToString();
  if (exclude_self) out += ", it!=self";
  if (accum_slot >= 0) {
    out += ", gamma($" + std::to_string(accum_slot) + " " +
           CombinatorName(accum_comb) + " over " +
           std::to_string(accum_assigns.size()) + " assigns)";
  }
  if (!pair_writes.empty()) {
    out += ", pair-writes: " + std::to_string(pair_writes.size());
  }
  out += "]";
  return out;
}

std::string TxnEmitOp::DebugString() const {
  std::string out = "TxnEmit[" + label;
  if (guard != nullptr) out += ", guard: " + guard->ToString();
  out += ", constraints: " + std::to_string(constraints.size());
  out += ", writes: " + std::to_string(writes.size());
  out += "]";
  return out;
}

std::string ExplainOps(const std::vector<std::unique_ptr<PlanOp>>& ops) {
  std::string out;
  for (const auto& op : ops) {
    out += "  ";
    out += op->DebugString();
    out += "\n";
  }
  return out;
}

}  // namespace sgl
