#include "src/ra/eval.h"

#include <cmath>

#include "src/ra/numeric.h"

namespace sgl {

void AllocateLocalColumns(const std::vector<SglType>& types, size_t rows,
                          LocalColumns* locals) {
  locals->EnsureSlots(types.size());
  for (size_t slot = 0; slot < types.size(); ++slot) {
    if (types[slot].is_number()) {
      locals->num[slot].assign(rows, 0.0);
    } else if (types[slot].is_bool()) {
      locals->bools[slot].assign(rows, 0);
    } else {
      locals->refs[slot].assign(rows, kNullEntity);
    }
  }
}

namespace {

const EntitySet* ResolveSetScalar(const Expr& e, const ScalarContext& ctx) {
  static const EntitySet kEmpty;
  if (e.kind == ExprKind::kEffectRead) {
    SGL_CHECK(ctx.effects != nullptr);
    return &ctx.effects->FinalSet(e.field, ctx.outer_row);
  }
  if (e.kind == ExprKind::kStateRead) {
    ClassId cls = e.side == 0 ? ctx.outer_cls : ctx.inner_cls;
    RowIdx row = e.side == 0 ? ctx.outer_row : ctx.inner_row;
    if (ctx.overlay != nullptr) {
      const EntitySet* tentative = ctx.overlay->GetSet(cls, row, e.field);
      if (tentative != nullptr) return tentative;
    }
    return &ctx.world->table(cls).SetCol(e.field)[row];
  }
  if (e.kind == ExprKind::kRefState) {
    EntityId target = EvalScalarRef(*e.kids[0], ctx);
    const World::Locator* loc = ctx.world->Find(target);
    if (loc == nullptr) return &kEmpty;
    if (ctx.overlay != nullptr) {
      const EntitySet* tentative =
          ctx.overlay->GetSet(loc->cls, loc->row, e.field);
      if (tentative != nullptr) return tentative;
    }
    return &ctx.world->table(loc->cls).SetCol(e.field)[loc->row];
  }
  if (e.kind == ExprKind::kIf) {
    return ResolveSetScalar(
        EvalScalarBool(*e.kids[0], ctx) ? *e.kids[1] : *e.kids[2], ctx);
  }
  SGL_CHECK(false && "unsupported set operand");
  return &kEmpty;
}

// ApplyArith / ApplyCall1 / ApplyCmp / ApplyClamp live in src/ra/numeric.h —
// the guarded semantics (div/mod by zero -> 0, sqrt of negatives -> 0,
// clamp's pinned lo-then-hi order) are shared with the bytecode VM so the
// oracle and the fast path cannot drift.

}  // namespace

// ----------------------------- Scalar ---------------------------------

const EntitySet& EvalScalarSet(const Expr& expr, const ScalarContext& ctx) {
  return *ResolveSetScalar(expr, ctx);
}

double EvalScalarNum(const Expr& expr, const ScalarContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kNumLit:
      return expr.num;
    case ExprKind::kStateRead: {
      ClassId cls = expr.side == 0 ? ctx.outer_cls : ctx.inner_cls;
      RowIdx row = expr.side == 0 ? ctx.outer_row : ctx.inner_row;
      if (ctx.overlay != nullptr) {
        const double* v = ctx.overlay->GetNum(cls, row, expr.field);
        if (v != nullptr) return *v;
      }
      return ctx.world->table(cls).Num(expr.field)[row];
    }
    case ExprKind::kEffectRead: {
      SGL_CHECK(ctx.effects != nullptr);
      return ctx.effects->Assigned(expr.field, ctx.outer_row)
                 ? ctx.effects->FinalNumber(expr.field, ctx.outer_row)
                 : 0.0;
    }
    case ExprKind::kLocal:
      return ctx.locals->num[static_cast<size_t>(expr.slot)][ctx.outer_row];
    case ExprKind::kRefState: {
      EntityId target = EvalScalarRef(*expr.kids[0], ctx);
      const World::Locator* loc = ctx.world->Find(target);
      if (loc == nullptr) return 0.0;
      if (ctx.overlay != nullptr) {
        const double* v = ctx.overlay->GetNum(loc->cls, loc->row, expr.field);
        if (v != nullptr) return *v;
      }
      return ctx.world->table(loc->cls).Num(expr.field)[loc->row];
    }
    case ExprKind::kUnaryMinus:
      return -EvalScalarNum(*expr.kids[0], ctx);
    case ExprKind::kArith:
      return ApplyArith(expr.arith, EvalScalarNum(*expr.kids[0], ctx),
                        EvalScalarNum(*expr.kids[1], ctx));
    case ExprKind::kCall1:
      return ApplyCall1(expr.call1, EvalScalarNum(*expr.kids[0], ctx));
    case ExprKind::kIf:
      return EvalScalarBool(*expr.kids[0], ctx)
                 ? EvalScalarNum(*expr.kids[1], ctx)
                 : EvalScalarNum(*expr.kids[2], ctx);
    case ExprKind::kClamp: {
      double v = EvalScalarNum(*expr.kids[0], ctx);
      double lo = EvalScalarNum(*expr.kids[1], ctx);
      double hi = EvalScalarNum(*expr.kids[2], ctx);
      return ApplyClamp(v, lo, hi);
    }
    case ExprKind::kSetSize:
      return static_cast<double>(ResolveSetScalar(*expr.kids[0], ctx)->size());
    default:
      SGL_CHECK(false && "expression is not numeric");
  }
  return 0;
}

bool EvalScalarBool(const Expr& expr, const ScalarContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kBoolLit:
      return expr.b;
    case ExprKind::kStateRead: {
      ClassId cls = expr.side == 0 ? ctx.outer_cls : ctx.inner_cls;
      RowIdx row = expr.side == 0 ? ctx.outer_row : ctx.inner_row;
      return ctx.world->table(cls).BoolCol(expr.field)[row] != 0;
    }
    case ExprKind::kEffectRead:
      SGL_CHECK(ctx.effects != nullptr);
      return ctx.effects->Assigned(expr.field, ctx.outer_row) &&
             ctx.effects->FinalBool(expr.field, ctx.outer_row);
    case ExprKind::kAssigned:
      SGL_CHECK(ctx.effects != nullptr);
      return ctx.effects->Assigned(expr.field, ctx.outer_row);
    case ExprKind::kLocal:
      return ctx.locals->bools[static_cast<size_t>(expr.slot)]
                              [ctx.outer_row] != 0;
    case ExprKind::kRefState: {
      EntityId target = EvalScalarRef(*expr.kids[0], ctx);
      const World::Locator* loc = ctx.world->Find(target);
      if (loc == nullptr) return false;
      return ctx.world->table(loc->cls).BoolCol(expr.field)[loc->row] != 0;
    }
    case ExprKind::kNot:
      return !EvalScalarBool(*expr.kids[0], ctx);
    case ExprKind::kCmpNum:
      return ApplyCmp(expr.cmp, EvalScalarNum(*expr.kids[0], ctx),
                      EvalScalarNum(*expr.kids[1], ctx));
    case ExprKind::kCmpRef: {
      bool eq = EvalScalarRef(*expr.kids[0], ctx) ==
                EvalScalarRef(*expr.kids[1], ctx);
      return expr.cmp == CmpOp::kEq ? eq : !eq;
    }
    case ExprKind::kCmpBool: {
      bool eq = EvalScalarBool(*expr.kids[0], ctx) ==
                EvalScalarBool(*expr.kids[1], ctx);
      return expr.cmp == CmpOp::kEq ? eq : !eq;
    }
    case ExprKind::kAndB:
      return EvalScalarBool(*expr.kids[0], ctx) &&
             EvalScalarBool(*expr.kids[1], ctx);
    case ExprKind::kOrB:
      return EvalScalarBool(*expr.kids[0], ctx) ||
             EvalScalarBool(*expr.kids[1], ctx);
    case ExprKind::kIf:
      return EvalScalarBool(*expr.kids[0], ctx)
                 ? EvalScalarBool(*expr.kids[1], ctx)
                 : EvalScalarBool(*expr.kids[2], ctx);
    case ExprKind::kSetContains:
      return ResolveSetScalar(*expr.kids[0], ctx)
          ->Contains(EvalScalarRef(*expr.kids[1], ctx));
    default:
      SGL_CHECK(false && "expression is not boolean");
  }
  return false;
}

EntityId EvalScalarRef(const Expr& expr, const ScalarContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kNullRef:
      return kNullEntity;
    case ExprKind::kStateRead: {
      ClassId cls = expr.side == 0 ? ctx.outer_cls : ctx.inner_cls;
      RowIdx row = expr.side == 0 ? ctx.outer_row : ctx.inner_row;
      if (ctx.overlay != nullptr) {
        const EntityId* v = ctx.overlay->GetRef(cls, row, expr.field);
        if (v != nullptr) return *v;
      }
      return ctx.world->table(cls).RefCol(expr.field)[row];
    }
    case ExprKind::kEffectRead:
      SGL_CHECK(ctx.effects != nullptr);
      return ctx.effects->Assigned(expr.field, ctx.outer_row)
                 ? ctx.effects->FinalRef(expr.field, ctx.outer_row)
                 : kNullEntity;
    case ExprKind::kLocal:
      return ctx.locals->refs[static_cast<size_t>(expr.slot)][ctx.outer_row];
    case ExprKind::kRowId: {
      ClassId cls = expr.side == 0 ? ctx.outer_cls : ctx.inner_cls;
      RowIdx row = expr.side == 0 ? ctx.outer_row : ctx.inner_row;
      return ctx.world->table(cls).id_at(row);
    }
    case ExprKind::kRefState: {
      EntityId target = EvalScalarRef(*expr.kids[0], ctx);
      const World::Locator* loc = ctx.world->Find(target);
      if (loc == nullptr) return kNullEntity;
      if (ctx.overlay != nullptr) {
        const EntityId* v =
            ctx.overlay->GetRef(loc->cls, loc->row, expr.field);
        if (v != nullptr) return *v;
      }
      return ctx.world->table(loc->cls).RefCol(expr.field)[loc->row];
    }
    case ExprKind::kIf:
      return EvalScalarBool(*expr.kids[0], ctx)
                 ? EvalScalarRef(*expr.kids[1], ctx)
                 : EvalScalarRef(*expr.kids[2], ctx);
    default:
      SGL_CHECK(false && "expression is not a reference");
  }
  return kNullEntity;
}

// --------------------------- StateOverlay ------------------------------

void StateOverlay::BeginTick(
    const World& world, const std::vector<std::vector<FieldIdx>>& txn_owned) {
  const Catalog& catalog = world.catalog();
  if (field_map_.empty()) {
    // First tick: lay out one FieldOverlay per (class, txn-owned field).
    // The txn-owned partition is fixed at compile time, so this runs once.
    field_map_.resize(static_cast<size_t>(catalog.num_classes()));
    for (ClassId c = 0; c < catalog.num_classes(); ++c) {
      const ClassDef& def = catalog.Get(c);
      auto& per_class = field_map_[static_cast<size_t>(c)];
      per_class.assign(def.state_fields().size(), -1);
      if (static_cast<size_t>(c) >= txn_owned.size()) continue;
      for (FieldIdx fi : txn_owned[static_cast<size_t>(c)]) {
        per_class[static_cast<size_t>(fi)] =
            static_cast<int32_t>(fields_.size());
        FieldOverlay ov;
        ov.cls = c;
        ov.field = fi;
        ov.kind = def.state_field(fi).type.kind;
        fields_.push_back(std::move(ov));
      }
    }
  }
  for (FieldOverlay& f : fields_) {
    const size_t rows = world.table(f.cls).size();
    if (f.epoch.size() < rows) {
      // Growth only; new rows get epoch 0 (= absent). Shrunk tables keep
      // their larger buffers (rows past size() are simply never addressed).
      f.epoch.resize(rows, 0u);
      switch (f.kind) {
        case TypeKind::kNumber: f.num.resize(rows); break;
        case TypeKind::kRef: f.ref.resize(rows); break;
        case TypeKind::kSet: f.set_slot.resize(rows); break;
        case TypeKind::kBool: break;
      }
    }
  }
}

bool StateOverlay::Touch(FieldOverlay* f, RowIdx row) {
  if (f->epoch[row] == epoch_) return false;
  f->epoch[row] = epoch_;
  touched_.push_back(
      Touched{static_cast<uint32_t>(f - fields_.data()), row});
  return true;
}

double* StateOverlay::MutableNum(ClassId cls, RowIdx row, FieldIdx field,
                                 bool* fresh) {
  FieldOverlay* f = FindField(cls, field);
  SGL_DCHECK(f != nullptr && f->kind == TypeKind::kNumber &&
             row < f->epoch.size());
  *fresh = Touch(f, row);
  return &f->num[row];
}

EntityId* StateOverlay::MutableRef(ClassId cls, RowIdx row, FieldIdx field,
                                   bool* fresh) {
  FieldOverlay* f = FindField(cls, field);
  SGL_DCHECK(f != nullptr && f->kind == TypeKind::kRef &&
             row < f->epoch.size());
  *fresh = Touch(f, row);
  return &f->ref[row];
}

EntitySet* StateOverlay::MutableSet(ClassId cls, RowIdx row, FieldIdx field,
                                    bool* fresh) {
  FieldOverlay* f = FindField(cls, field);
  SGL_DCHECK(f != nullptr && f->kind == TypeKind::kSet &&
             row < f->epoch.size());
  *fresh = Touch(f, row);
  if (*fresh) {
    if (set_pool_used_ == set_pool_.size()) {
      set_pool_.push_back(std::make_unique<EntitySet>());
    }
    EntitySet* s = set_pool_[set_pool_used_].get();
    s->clear();  // pooled slot keeps its high-water capacity
    f->set_slot[row] = static_cast<uint32_t>(set_pool_used_);
    ++set_pool_used_;
    return s;
  }
  return set_pool_[f->set_slot[row]].get();
}

}  // namespace sgl
