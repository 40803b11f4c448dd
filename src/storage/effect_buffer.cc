#include "src/storage/effect_buffer.h"

#include <algorithm>

namespace sgl {

EffectBuffer::EffectBuffer(const ClassDef* cls) : cls_(cls) {
  accums_.resize(cls_->effect_fields().size());
  for (const FieldDef& f : cls_->effect_fields()) {
    Accum& a = accums_[static_cast<size_t>(f.index)];
    a.comb = f.combinator;
    a.kind = f.type.kind;
    a.keyed = (f.combinator == Combinator::kFirst ||
               f.combinator == Combinator::kLast);
  }
}

void EffectBuffer::Reset(size_t rows) {
  rows_ = rows;
  set_pool_used_ = 0;
  for (Accum& a : accums_) {
    a.cnt.assign(rows, 0);
    if (a.keyed) a.key.assign(rows, 0);
    switch (a.kind) {
      case TypeKind::kNumber:
        a.num.assign(rows, NumericIdentity(a.comb));
        break;
      case TypeKind::kBool:
        a.bools.assign(rows, a.comb == Combinator::kAnd ? 1 : 0);
        break;
      case TypeKind::kRef:
        a.refs.assign(rows, kNullEntity);
        break;
      case TypeKind::kSet:
        a.set_log.clear();
        a.set_ref.assign(rows, kNoSet);
        a.sets_final = false;
        break;
    }
  }
}

void EffectBuffer::AddNumber(FieldIdx f, RowIdx row, double v,
                             uint64_t order_key) {
  Accum& a = accums_[static_cast<size_t>(f)];
  SGL_DCHECK(a.kind == TypeKind::kNumber && row < rows_);
  if (a.keyed) {
    bool take = a.cnt[row] == 0 ||
                (a.comb == Combinator::kFirst ? order_key < a.key[row]
                                              : order_key > a.key[row]);
    if (take) {
      a.num[row] = v;
      a.key[row] = order_key;
    }
  } else {
    a.num[row] = CombineNumeric(a.comb, a.num[row], v);
  }
  ++a.cnt[row];
}

void EffectBuffer::AddBool(FieldIdx f, RowIdx row, bool v,
                           uint64_t order_key) {
  Accum& a = accums_[static_cast<size_t>(f)];
  SGL_DCHECK(a.kind == TypeKind::kBool && row < rows_);
  switch (a.comb) {
    case Combinator::kOr:
      a.bools[row] |= static_cast<uint8_t>(v);
      break;
    case Combinator::kAnd:
      a.bools[row] &= static_cast<uint8_t>(v);
      break;
    default: {  // first/last
      bool take = a.cnt[row] == 0 ||
                  (a.comb == Combinator::kFirst ? order_key < a.key[row]
                                                : order_key > a.key[row]);
      if (take) {
        a.bools[row] = v ? 1 : 0;
        a.key[row] = order_key;
      }
      break;
    }
  }
  ++a.cnt[row];
}

void EffectBuffer::AddRef(FieldIdx f, RowIdx row, EntityId v,
                          uint64_t order_key) {
  Accum& a = accums_[static_cast<size_t>(f)];
  SGL_DCHECK(a.kind == TypeKind::kRef && row < rows_);
  bool take = a.cnt[row] == 0 ||
              (a.comb == Combinator::kFirst ? order_key < a.key[row]
                                            : order_key > a.key[row]);
  if (take) {
    a.refs[row] = v;
    a.key[row] = order_key;
  }
  ++a.cnt[row];
}

void EffectBuffer::AddSetInsert(FieldIdx f, RowIdx row, EntityId v) {
  Accum& a = accums_[static_cast<size_t>(f)];
  SGL_DCHECK(a.kind == TypeKind::kSet && row < rows_ && !a.sets_final);
  a.set_log.push_back(SetEntry{row, v});
  ++a.cnt[row];
}

void EffectBuffer::AddSetUnion(FieldIdx f, RowIdx row, const EntitySet& v) {
  Accum& a = accums_[static_cast<size_t>(f)];
  SGL_DCHECK(a.kind == TypeKind::kSet && row < rows_ && !a.sets_final);
  for (EntityId id : v) a.set_log.push_back(SetEntry{row, id});
  ++a.cnt[row];
}

void EffectBuffer::MergeFrom(const EffectBuffer& worker) {
  SGL_CHECK(worker.rows_ == rows_ && worker.cls_ == cls_);
  for (size_t fi = 0; fi < accums_.size(); ++fi) {
    Accum& a = accums_[fi];
    const Accum& s = worker.accums_[fi];
    if (a.kind == TypeKind::kSet) {
      // Log concatenation: FinalizeSets' sort canonicalizes the union, so
      // the result is independent of worker order and count.
      a.set_log.insert(a.set_log.end(), s.set_log.begin(), s.set_log.end());
      for (size_t row = 0; row < rows_; ++row) a.cnt[row] += s.cnt[row];
      continue;
    }
    for (size_t row = 0; row < rows_; ++row) {
      if (s.cnt[row] == 0) continue;
      if (a.cnt[row] == 0) {
        // Copy the worker's accumulator wholesale.
        switch (a.kind) {
          case TypeKind::kNumber: a.num[row] = s.num[row]; break;
          case TypeKind::kBool: a.bools[row] = s.bools[row]; break;
          case TypeKind::kRef: a.refs[row] = s.refs[row]; break;
          case TypeKind::kSet: break;  // handled above
        }
        if (a.keyed) a.key[row] = s.key[row];
        a.cnt[row] = s.cnt[row];
        continue;
      }
      // Both sides assigned: combine.
      if (a.keyed) {
        bool take = a.comb == Combinator::kFirst ? s.key[row] < a.key[row]
                                                 : s.key[row] > a.key[row];
        if (take) {
          switch (a.kind) {
            case TypeKind::kNumber: a.num[row] = s.num[row]; break;
            case TypeKind::kBool: a.bools[row] = s.bools[row]; break;
            case TypeKind::kRef: a.refs[row] = s.refs[row]; break;
            case TypeKind::kSet: break;
          }
          a.key[row] = s.key[row];
        }
      } else {
        switch (a.comb) {
          case Combinator::kSum:
          case Combinator::kAvg:
          case Combinator::kCount:
            a.num[row] += s.num[row];
            break;
          case Combinator::kMin:
            a.num[row] = std::min(a.num[row], s.num[row]);
            break;
          case Combinator::kMax:
            a.num[row] = std::max(a.num[row], s.num[row]);
            break;
          case Combinator::kOr:
            a.bools[row] |= s.bools[row];
            break;
          case Combinator::kAnd:
            a.bools[row] &= s.bools[row];
            break;
          case Combinator::kUnion:
          case Combinator::kFirst:
          case Combinator::kLast:
            break;  // handled above
        }
      }
      a.cnt[row] += s.cnt[row];
    }
  }
}

void EffectBuffer::FinalizeSets() {
  for (Accum& a : accums_) {
    if (a.kind != TypeKind::kSet || a.sets_final) continue;
    a.sets_final = true;
    if (a.set_log.empty()) continue;
    // Canonical order: (row, element). std::sort is in-place; duplicate
    // (row, element) pairs collapse during the per-row copy below.
    std::sort(a.set_log.begin(), a.set_log.end(),
              [](const SetEntry& x, const SetEntry& y) {
                return x.row != y.row ? x.row < y.row : x.elem < y.elem;
              });
    size_t i = 0;
    const size_t n = a.set_log.size();
    while (i < n) {
      const RowIdx row = a.set_log[i].row;
      size_t end = i + 1;
      while (end < n && a.set_log[end].row == row) ++end;
      if (set_pool_used_ == set_pool_.size()) {
        set_pool_.push_back(std::make_unique<EntitySet>());
      }
      EntitySet* out = set_pool_[set_pool_used_].get();
      out->clear();
      out->Reserve(end - i);
      for (; i < end; ++i) {
        out->Insert(a.set_log[i].elem);  // ascending input: appends, dedups
      }
      a.set_ref[row] = static_cast<uint32_t>(set_pool_used_);
      ++set_pool_used_;
    }
  }
}

double EffectBuffer::FinalNumber(FieldIdx f, RowIdx row) const {
  const Accum& a = accums_[static_cast<size_t>(f)];
  SGL_DCHECK(a.kind == TypeKind::kNumber);
  auto v = FinalizeNumeric(a.comb, a.num[row], a.cnt[row]);
  SGL_DCHECK(v.has_value());
  return *v;
}

bool EffectBuffer::FinalBool(FieldIdx f, RowIdx row) const {
  const Accum& a = accums_[static_cast<size_t>(f)];
  SGL_DCHECK(a.kind == TypeKind::kBool);
  return a.bools[row] != 0;
}

EntityId EffectBuffer::FinalRef(FieldIdx f, RowIdx row) const {
  const Accum& a = accums_[static_cast<size_t>(f)];
  SGL_DCHECK(a.kind == TypeKind::kRef);
  return a.refs[row];
}

const EntitySet& EffectBuffer::FinalSet(FieldIdx f, RowIdx row) const {
  static const EntitySet kEmpty;
  const Accum& a = accums_[static_cast<size_t>(f)];
  SGL_DCHECK(a.kind == TypeKind::kSet && a.sets_final);
  const uint32_t slot = a.set_ref[row];
  return slot == kNoSet ? kEmpty : *set_pool_[slot];
}

}  // namespace sgl
