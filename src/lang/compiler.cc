#include "src/lang/compiler.h"

#include <map>

#include "src/lang/parser.h"

namespace sgl {

namespace {

// --- Scope ----------------------------------------------------------------

struct Binding {
  enum class K { kLocal, kIter, kAccum };
  K k = K::kLocal;
  int slot = -1;          // kLocal / kAccum
  SglType type;
  ClassId iter_cls = kInvalidClass;  // kIter
  std::string iter_cls_name;
  bool readable = true;   // accum var is write-only in BLOCK1
  bool writable = false;  // accum var in BLOCK1
};

// Per-script (or per-handler / per-update-rule) compilation context.
struct Ctx {
  ClassId cls = kInvalidClass;
  const ClassDef* def = nullptr;
  std::string unit_name;              // script/handler name for messages
  std::vector<SglType>* local_types = nullptr;
  std::vector<std::pair<std::string, Binding>> scope;

  bool in_accum1 = false;             // inside accum BLOCK1
  std::string accum_name;
  AccumOp* cur_accum = nullptr;

  bool in_update_rule = false;        // effect reads / assigned() legal
  bool in_constraint = false;         // atomic require(): no locals/iter
  bool in_handler = false;            // restart must name a script

  // Enclosing script's PC effect (restart target default); only set for
  // multi-phase scripts.
  FieldIdx self_pc_effect = kInvalidField;
};

std::string At(const SrcPos& pos) { return " at " + pos.ToString(); }

// --- The compiler ----------------------------------------------------------

class ProgramCompiler {
 public:
  Status Run(const AstProgram& ast, CompiledProgram* out) {
    ast_ = &ast;
    out_ = out;
    out->catalog = std::make_unique<Catalog>();
    catalog_ = out->catalog.get();
    SGL_RETURN_IF_ERROR(BuildClasses());
    SGL_RETURN_IF_ERROR(InjectImplicitFields());
    SGL_RETURN_IF_ERROR(catalog_->Finalize());
    out->txn_owned.assign(static_cast<size_t>(catalog_->num_classes()), {});
    SGL_RETURN_IF_ERROR(CompileScripts());
    SGL_RETURN_IF_ERROR(CompileHandlers());
    SGL_RETURN_IF_ERROR(CompileUpdateRules());
    SGL_RETURN_IF_ERROR(CheckOwnershipConflicts());
    out->num_sites = next_site_;
    return Status::OK();
  }

 private:
  // --- Pass 1: classes --------------------------------------------------

  static StatusOr<SglType> ResolveType(const AstType& t, const SrcPos& pos) {
    if (t.base == "number") return SglType::Number();
    if (t.base == "bool") return SglType::Bool();
    if (t.base == "ref") return SglType::Ref(t.param);
    if (t.base == "set") return SglType::Set(t.param);
    return Status::SemanticError("unknown type '" + t.base + "'" + At(pos));
  }

  static StatusOr<Value> LiteralValue(const AstExpr& e, const SglType& type) {
    switch (e.kind) {
      case AstExprKind::kNum:
        if (type.is_number()) return Value::Number(e.num);
        break;
      case AstExprKind::kBool:
        if (type.is_bool()) return Value::Bool(e.b);
        break;
      case AstExprKind::kNull:
        if (type.is_ref()) return Value::Ref(kNullEntity);
        break;
      case AstExprKind::kUnary:
        if (e.op == "-" && e.kids[0]->kind == AstExprKind::kNum &&
            type.is_number()) {
          return Value::Number(-e.kids[0]->num);
        }
        break;
      default:
        break;
    }
    return Status::SemanticError(
        "state defaults must be literals matching the field type" +
        At(e.pos));
  }

  Status BuildClasses() {
    for (const AstClass& ac : ast_->classes) {
      ClassDef def(ac.name);
      for (const AstStateField& f : ac.state) {
        SGL_ASSIGN_OR_RETURN(SglType type, ResolveType(f.type, f.pos));
        Value init = type.DefaultValue();
        if (f.init != nullptr) {
          SGL_ASSIGN_OR_RETURN(init, LiteralValue(*f.init, type));
        }
        SGL_RETURN_IF_ERROR(def.AddState(f.name, type, init));
      }
      for (const AstEffectField& f : ac.effects) {
        SGL_ASSIGN_OR_RETURN(SglType type, ResolveType(f.type, f.pos));
        auto comb = CombinatorFromName(f.comb);
        if (!comb.has_value()) {
          return Status::SemanticError("unknown combinator '" + f.comb + "'" +
                                       At(f.pos));
        }
        SGL_RETURN_IF_ERROR(def.AddEffect(f.name, type, *comb));
      }
      SGL_ASSIGN_OR_RETURN(ClassId id, catalog_->Register(std::move(def)));
      (void)id;
    }
    return Status::OK();
  }

  // --- Pass 2: implicit fields -------------------------------------------

  static void CollectAtomics(const std::vector<AstStmtPtr>& stmts,
                             std::vector<AstStmt*>* out) {
    for (const auto& s : stmts) {
      if (s->kind == AstStmtKind::kAtomic) out->push_back(s.get());
      CollectAtomics(s->block1, out);
      CollectAtomics(s->block2, out);
    }
  }

  static int CountTopLevelWaits(const std::vector<AstStmtPtr>& stmts) {
    int waits = 0;
    for (const auto& s : stmts) {
      if (s->kind == AstStmtKind::kWait) ++waits;
    }
    return waits;
  }

  Status InjectImplicitFields() {
    int anon_txn = 0;
    auto add_status_fields =
        [&](const std::string& cls_name, const std::vector<AstStmtPtr>& body,
            const SrcPos& pos) -> Status {
      ClassId cls = catalog_->Find(cls_name);
      if (cls == kInvalidClass) {
        return Status::NotFound("class '" + cls_name + "' not declared" +
                                At(pos));
      }
      std::vector<AstStmt*> atomics;
      CollectAtomics(body, &atomics);
      for (AstStmt* a : atomics) {
        std::string label = a->name.empty()
                                ? "__txn" + std::to_string(anon_txn++)
                                : a->name;
        a->name = label;  // canonicalize for pass 4
        std::string status = label + "_status";
        ClassDef* def = catalog_->GetMutable(cls);
        if (def->FindState(status) != kInvalidField) {
          return Status::SemanticError("duplicate atomic label '" + label +
                                       "' in class '" + cls_name + "'" +
                                       At(a->pos));
        }
        SGL_RETURN_IF_ERROR(
            def->AddState(status, SglType::Number(), Value::Number(-1)));
      }
      return Status::OK();
    };

    for (const AstScript& s : ast_->scripts) {
      ClassId cls = catalog_->Find(s.cls);
      if (cls == kInvalidClass) {
        return Status::NotFound("class '" + s.cls + "' for script '" +
                                s.name + "' not declared" + At(s.pos));
      }
      if (CountTopLevelWaits(s.body) > 0) {
        ClassDef* def = catalog_->GetMutable(cls);
        SGL_RETURN_IF_ERROR(def->AddState("__pc_" + s.name,
                                          SglType::Number(),
                                          Value::Number(0)));
        SGL_RETURN_IF_ERROR(def->AddEffect("__pcn_" + s.name,
                                           SglType::Number(),
                                           Combinator::kLast));
      }
      SGL_RETURN_IF_ERROR(add_status_fields(s.cls, s.body, s.pos));
    }
    for (const AstHandler& h : ast_->handlers) {
      SGL_RETURN_IF_ERROR(add_status_fields(h.cls, h.body, h.pos));
    }
    return Status::OK();
  }

  // --- Expression compilation --------------------------------------------

  const Binding* LookupBinding(const Ctx& ctx, const std::string& name) {
    for (auto it = ctx.scope.rbegin(); it != ctx.scope.rend(); ++it) {
      if (it->first == name) return &it->second;
    }
    return nullptr;
  }

  StatusOr<ExprPtr> CompileExpr(const AstExpr& e, Ctx& ctx) {
    switch (e.kind) {
      case AstExprKind::kNum:
        return NumLit(e.num);
      case AstExprKind::kBool:
        return BoolLit(e.b);
      case AstExprKind::kNull:
        return sgl::NullRef();
      case AstExprKind::kIdent:
        return CompileIdent(e, ctx);
      case AstExprKind::kField:
        return CompileFieldAccess(e, ctx);
      case AstExprKind::kUnary:
        return CompileUnary(e, ctx);
      case AstExprKind::kBinary:
        return CompileBinary(e, ctx);
      case AstExprKind::kCall:
        return CompileCall(e, ctx);
    }
    return Status::Internal("unreachable expr kind");
  }

  StatusOr<ExprPtr> CompileIdent(const AstExpr& e, Ctx& ctx) {
    if (e.name == "self") {
      ExprPtr r = RowIdRead(0, ctx.cls);
      r->type = SglType::Ref(ctx.def->name());
      r->type.target = ctx.cls;
      return r;
    }
    const Binding* b = LookupBinding(ctx, e.name);
    if (b != nullptr) {
      if (ctx.in_constraint && b->k != Binding::K::kIter) {
        return Status::SemanticError(
            "require() may only reference state fields" + At(e.pos));
      }
      switch (b->k) {
        case Binding::K::kLocal:
          return LocalRead(b->slot, b->type);
        case Binding::K::kIter: {
          ExprPtr r = RowIdRead(1, b->iter_cls);
          r->type = SglType::Ref(b->iter_cls_name);
          r->type.target = b->iter_cls;
          return r;
        }
        case Binding::K::kAccum:
          if (!b->readable) {
            return Status::SemanticError(
                "accum variable '" + e.name +
                "' is write-only inside the first block" + At(e.pos));
          }
          return LocalRead(b->slot, b->type);
      }
    }
    FieldIdx sf = ctx.def->FindState(e.name);
    if (sf != kInvalidField) {
      return StateRead(0, ctx.cls, sf, ctx.def->state_field(sf).type);
    }
    FieldIdx ef = ctx.def->FindEffect(e.name);
    if (ef != kInvalidField) {
      if (ctx.in_update_rule) {
        return EffectRead(ctx.cls, ef, ctx.def->effect_field(ef).type);
      }
      return Status::SemanticError(
          "effect '" + e.name +
          "' is write-only during a tick (readable only in update rules)" +
          At(e.pos));
    }
    return Status::SemanticError("unknown identifier '" + e.name + "'" +
                                 At(e.pos));
  }

  StatusOr<ExprPtr> CompileFieldAccess(const AstExpr& e, Ctx& ctx) {
    SGL_ASSIGN_OR_RETURN(ExprPtr base, CompileExpr(*e.kids[0], ctx));
    if (!base->type.is_ref()) {
      return Status::SemanticError("'." + e.name +
                                   "' requires a ref<> expression" +
                                   At(e.pos));
    }
    ClassId target = base->type.target;
    if (target == kInvalidClass) {
      return Status::SemanticError("cannot access fields of 'null'" +
                                   At(e.pos));
    }
    const ClassDef& tdef = catalog_->Get(target);
    FieldIdx sf = tdef.FindState(e.name);
    if (sf == kInvalidField) {
      if (tdef.FindEffect(e.name) != kInvalidField) {
        return Status::SemanticError(
            "effect '" + tdef.name() + "." + e.name +
            "' is write-only; it cannot be read" + At(e.pos));
      }
      return Status::SemanticError("class '" + tdef.name() +
                                   "' has no state field '" + e.name + "'" +
                                   At(e.pos));
    }
    // Direct iteration-variable access compiles to a side-1 column read;
    // anything else is a gather through the directory.
    if (base->kind == ExprKind::kRowId) {
      return StateRead(base->side, target, sf, tdef.state_field(sf).type);
    }
    auto out = std::make_unique<Expr>();
    out->kind = ExprKind::kRefState;
    out->type = tdef.state_field(sf).type;
    out->cls = target;
    out->field = sf;
    out->kids.push_back(std::move(base));
    return out;
  }

  StatusOr<ExprPtr> CompileUnary(const AstExpr& e, Ctx& ctx) {
    SGL_ASSIGN_OR_RETURN(ExprPtr kid, CompileExpr(*e.kids[0], ctx));
    if (e.op == "-") {
      if (!kid->type.is_number()) {
        return Status::SemanticError("'-' requires a number" + At(e.pos));
      }
      auto out = std::make_unique<Expr>();
      out->kind = ExprKind::kUnaryMinus;
      out->type = SglType::Number();
      out->kids.push_back(std::move(kid));
      return out;
    }
    if (!kid->type.is_bool()) {
      return Status::SemanticError("'!' requires a bool" + At(e.pos));
    }
    return NotB(std::move(kid));
  }

  StatusOr<ExprPtr> CompileBinary(const AstExpr& e, Ctx& ctx) {
    SGL_ASSIGN_OR_RETURN(ExprPtr a, CompileExpr(*e.kids[0], ctx));
    SGL_ASSIGN_OR_RETURN(ExprPtr b, CompileExpr(*e.kids[1], ctx));
    const std::string& op = e.op;
    auto need_nums = [&]() -> Status {
      if (!a->type.is_number() || !b->type.is_number()) {
        return Status::SemanticError("'" + op + "' requires numbers" +
                                     At(e.pos));
      }
      return Status::OK();
    };
    if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") {
      SGL_RETURN_IF_ERROR(need_nums());
      ArithOp ao = op == "+"   ? ArithOp::kAdd
                   : op == "-" ? ArithOp::kSub
                   : op == "*" ? ArithOp::kMul
                   : op == "/" ? ArithOp::kDiv
                               : ArithOp::kMod;
      return Arith(ao, std::move(a), std::move(b));
    }
    if (op == "&&" || op == "||") {
      if (!a->type.is_bool() || !b->type.is_bool()) {
        return Status::SemanticError("'" + op + "' requires bools" +
                                     At(e.pos));
      }
      return op == "&&" ? AndB(std::move(a), std::move(b))
                        : OrB(std::move(a), std::move(b));
    }
    CmpOp co = op == "<"    ? CmpOp::kLt
               : op == "<=" ? CmpOp::kLe
               : op == ">"  ? CmpOp::kGt
               : op == ">=" ? CmpOp::kGe
               : op == "==" ? CmpOp::kEq
                            : CmpOp::kNe;
    if (a->type.is_number() && b->type.is_number()) {
      return CmpNum(co, std::move(a), std::move(b));
    }
    if (a->type.is_ref() && b->type.is_ref()) {
      if (co != CmpOp::kEq && co != CmpOp::kNe) {
        return Status::SemanticError("refs support only == and !=" +
                                     At(e.pos));
      }
      auto out = std::make_unique<Expr>();
      out->kind = ExprKind::kCmpRef;
      out->type = SglType::Bool();
      out->cmp = co;
      out->kids.push_back(std::move(a));
      out->kids.push_back(std::move(b));
      return out;
    }
    if (a->type.is_bool() && b->type.is_bool() &&
        (co == CmpOp::kEq || co == CmpOp::kNe)) {
      auto out = std::make_unique<Expr>();
      out->kind = ExprKind::kCmpBool;
      out->type = SglType::Bool();
      out->cmp = co;
      out->kids.push_back(std::move(a));
      out->kids.push_back(std::move(b));
      return out;
    }
    return Status::SemanticError("type mismatch for '" + op + "'" + At(e.pos));
  }

  StatusOr<ExprPtr> CompileCall(const AstExpr& e, Ctx& ctx) {
    const std::string& name = e.name;
    auto arity = [&](size_t n) -> Status {
      if (e.kids.size() != n) {
        return Status::SemanticError(name + "() takes " + std::to_string(n) +
                                     " argument(s)" + At(e.pos));
      }
      return Status::OK();
    };
    auto num_arg = [&](size_t i) -> StatusOr<ExprPtr> {
      SGL_ASSIGN_OR_RETURN(ExprPtr a, CompileExpr(*e.kids[i], ctx));
      if (!a->type.is_number()) {
        return Status::SemanticError(name + "() argument " +
                                     std::to_string(i + 1) +
                                     " must be a number" + At(e.pos));
      }
      return a;
    };

    if (name == "abs" || name == "sqrt" || name == "floor" || name == "ceil") {
      SGL_RETURN_IF_ERROR(arity(1));
      SGL_ASSIGN_OR_RETURN(ExprPtr a, num_arg(0));
      Call1Op op = name == "abs"     ? Call1Op::kAbs
                   : name == "sqrt"  ? Call1Op::kSqrt
                   : name == "floor" ? Call1Op::kFloor
                                     : Call1Op::kCeil;
      return Call1(op, std::move(a));
    }
    if (name == "min" || name == "max" || name == "pow") {
      SGL_RETURN_IF_ERROR(arity(2));
      SGL_ASSIGN_OR_RETURN(ExprPtr a, num_arg(0));
      SGL_ASSIGN_OR_RETURN(ExprPtr b, num_arg(1));
      ArithOp op = name == "min"   ? ArithOp::kMin
                   : name == "max" ? ArithOp::kMax
                                   : ArithOp::kPow;
      return Arith(op, std::move(a), std::move(b));
    }
    if (name == "clamp") {
      SGL_RETURN_IF_ERROR(arity(3));
      SGL_ASSIGN_OR_RETURN(ExprPtr v, num_arg(0));
      SGL_ASSIGN_OR_RETURN(ExprPtr lo, num_arg(1));
      SGL_ASSIGN_OR_RETURN(ExprPtr hi, num_arg(2));
      auto out = std::make_unique<Expr>();
      out->kind = ExprKind::kClamp;
      out->type = SglType::Number();
      out->kids.push_back(std::move(v));
      out->kids.push_back(std::move(lo));
      out->kids.push_back(std::move(hi));
      return out;
    }
    if (name == "dist") {
      // dist(x1,y1,x2,y2) = sqrt((x1-x2)^2 + (y1-y2)^2), desugared.
      SGL_RETURN_IF_ERROR(arity(4));
      SGL_ASSIGN_OR_RETURN(ExprPtr x1, num_arg(0));
      SGL_ASSIGN_OR_RETURN(ExprPtr y1, num_arg(1));
      SGL_ASSIGN_OR_RETURN(ExprPtr x2, num_arg(2));
      SGL_ASSIGN_OR_RETURN(ExprPtr y2, num_arg(3));
      ExprPtr dx = Arith(ArithOp::kSub, std::move(x1), std::move(x2));
      ExprPtr dy = Arith(ArithOp::kSub, std::move(y1), std::move(y2));
      ExprPtr dx_copy = dx->Clone();
      ExprPtr dy_copy = dy->Clone();
      ExprPtr dx2 = Arith(ArithOp::kMul, std::move(dx_copy), std::move(dx));
      ExprPtr dy2 = Arith(ArithOp::kMul, std::move(dy_copy), std::move(dy));
      return Call1(Call1Op::kSqrt,
                   Arith(ArithOp::kAdd, std::move(dx2), std::move(dy2)));
    }
    if (name == "if") {
      SGL_RETURN_IF_ERROR(arity(3));
      SGL_ASSIGN_OR_RETURN(ExprPtr c, CompileExpr(*e.kids[0], ctx));
      if (!c->type.is_bool()) {
        return Status::SemanticError("if() condition must be bool" +
                                     At(e.pos));
      }
      SGL_ASSIGN_OR_RETURN(ExprPtr t, CompileExpr(*e.kids[1], ctx));
      SGL_ASSIGN_OR_RETURN(ExprPtr f, CompileExpr(*e.kids[2], ctx));
      if (!t->type.Same(f->type)) {
        // Allow null to adopt the other branch's ref type.
        if (t->type.is_ref() && f->kind == ExprKind::kNullRef) {
          f->type = t->type;
        } else if (f->type.is_ref() && t->kind == ExprKind::kNullRef) {
          t->type = f->type;
        } else {
          return Status::SemanticError("if() branches have different types" +
                                       At(e.pos));
        }
      }
      return IfExpr(std::move(c), std::move(t), std::move(f));
    }
    if (name == "contains") {
      SGL_RETURN_IF_ERROR(arity(2));
      SGL_ASSIGN_OR_RETURN(ExprPtr s, CompileExpr(*e.kids[0], ctx));
      SGL_ASSIGN_OR_RETURN(ExprPtr r, CompileExpr(*e.kids[1], ctx));
      if (!s->type.is_set() || !r->type.is_ref()) {
        return Status::SemanticError(
            "contains() takes a set<> and a ref<>" + At(e.pos));
      }
      auto out = std::make_unique<Expr>();
      out->kind = ExprKind::kSetContains;
      out->type = SglType::Bool();
      out->kids.push_back(std::move(s));
      out->kids.push_back(std::move(r));
      return out;
    }
    if (name == "size") {
      SGL_RETURN_IF_ERROR(arity(1));
      SGL_ASSIGN_OR_RETURN(ExprPtr s, CompileExpr(*e.kids[0], ctx));
      if (!s->type.is_set()) {
        return Status::SemanticError("size() takes a set<>" + At(e.pos));
      }
      auto out = std::make_unique<Expr>();
      out->kind = ExprKind::kSetSize;
      out->type = SglType::Number();
      out->kids.push_back(std::move(s));
      return out;
    }
    if (name == "assigned") {
      if (!ctx.in_update_rule) {
        return Status::SemanticError(
            "assigned() is only available in update rules" + At(e.pos));
      }
      SGL_RETURN_IF_ERROR(arity(1));
      if (e.kids[0]->kind != AstExprKind::kIdent) {
        return Status::SemanticError(
            "assigned() takes an effect field name" + At(e.pos));
      }
      FieldIdx ef = ctx.def->FindEffect(e.kids[0]->name);
      if (ef == kInvalidField) {
        return Status::SemanticError("unknown effect '" + e.kids[0]->name +
                                     "'" + At(e.pos));
      }
      return AssignedRead(ctx.cls, ef);
    }
    return Status::SemanticError("unknown function '" + name + "'" +
                                 At(e.pos));
  }

  // --- Statement compilation ---------------------------------------------

  ExprPtr CloneGuard(const Expr* guard) {
    return guard == nullptr ? nullptr : guard->Clone();
  }
  ExprPtr AndGuards(const Expr* guard, ExprPtr extra) {
    if (guard == nullptr) return extra;
    return AndB(guard->Clone(), std::move(extra));
  }

  EffectsOp* TrailingEffectsOp(std::vector<std::unique_ptr<PlanOp>>* ops) {
    if (!ops->empty() && ops->back()->kind == PlanOp::Kind::kEffects) {
      return static_cast<EffectsOp*>(ops->back().get());
    }
    auto op = std::make_unique<EffectsOp>();
    EffectsOp* raw = op.get();
    ops->push_back(std::move(op));
    return raw;
  }

  Status CompileBlock(const std::vector<AstStmtPtr>& stmts, const Expr* guard,
                      Ctx& ctx, std::vector<std::unique_ptr<PlanOp>>* ops) {
    size_t scope_mark = ctx.scope.size();
    for (const auto& s : stmts) {
      SGL_RETURN_IF_ERROR(CompileStmt(*s, guard, ctx, ops));
    }
    ctx.scope.resize(scope_mark);
    return Status::OK();
  }

  Status CompileStmt(const AstStmt& s, const Expr* guard, Ctx& ctx,
                     std::vector<std::unique_ptr<PlanOp>>* ops) {
    switch (s.kind) {
      case AstStmtKind::kLet:
        return CompileLet(s, ctx, ops);
      case AstStmtKind::kAssign:
        return CompileAssign(s, guard, ctx, ops);
      case AstStmtKind::kIf:
        return CompileIf(s, guard, ctx, ops);
      case AstStmtKind::kAccum:
        return CompileAccum(s, guard, ctx, ops);
      case AstStmtKind::kWait:
        return Status::SemanticError(
            "waitNextTick is only allowed at the top level of a script body" +
            At(s.pos));
      case AstStmtKind::kAtomic:
        return CompileAtomic(s, guard, ctx, ops);
      case AstStmtKind::kRestart:
        return CompileRestart(s, guard, ctx, ops);
    }
    return Status::Internal("unreachable stmt kind");
  }

  Status CompileLet(const AstStmt& s, Ctx& ctx,
                    std::vector<std::unique_ptr<PlanOp>>* ops) {
    if (ctx.in_accum1) {
      return Status::SemanticError(
          "let is not allowed inside the first block of an accum loop" +
          At(s.pos));
    }
    SGL_ASSIGN_OR_RETURN(SglType type, ResolveType(s.type, s.pos));
    if (type.is_set()) {
      return Status::SemanticError("set-typed locals are not supported" +
                                   At(s.pos));
    }
    if (type.is_ref()) {
      type.target = catalog_->Find(type.target_name);
      if (type.target == kInvalidClass) {
        return Status::NotFound("class '" + type.target_name + "' not found" +
                                At(s.pos));
      }
    }
    SGL_ASSIGN_OR_RETURN(ExprPtr value, CompileExpr(*s.expr, ctx));
    if (!value->type.Same(type) &&
        !(type.is_ref() && value->kind == ExprKind::kNullRef)) {
      return Status::SemanticError("let initializer type mismatch for '" +
                                   s.name + "'" + At(s.pos));
    }
    int slot = static_cast<int>(ctx.local_types->size());
    ctx.local_types->push_back(type);
    auto op = std::make_unique<ComputeLocalsOp>();
    LocalDef def;
    def.slot = slot;
    def.type = type;
    def.value = std::move(value);
    op->defs.push_back(std::move(def));
    ops->push_back(std::move(op));
    Binding b;
    b.k = Binding::K::kLocal;
    b.slot = slot;
    b.type = type;
    ctx.scope.emplace_back(s.name, b);
    return Status::OK();
  }

  // Resolves an assignment target to an EffectWrite skeleton (guard/value
  // left empty). `is_accum_assign` is set when the target is the in-scope
  // accum variable.
  Status ResolveEffectTarget(const AstStmt& s, Ctx& ctx, EffectWrite* w,
                             bool* is_accum_assign) {
    *is_accum_assign = false;
    if (s.target_base == nullptr) {
      // Bare identifier: accum variable or an effect of self.
      const Binding* b = LookupBinding(ctx, s.name);
      if (b != nullptr && b->k == Binding::K::kAccum) {
        if (!b->writable) {
          return Status::SemanticError(
              "accum variable '" + s.name +
              "' is read-only in the second block" + At(s.pos));
        }
        *is_accum_assign = true;
        return Status::OK();
      }
      if (ctx.def->FindState(s.name) != kInvalidField) {
        return Status::SemanticError(
            "state field '" + s.name +
            "' is read-only during a tick (use an update rule or an atomic "
            "block)" +
            At(s.pos));
      }
      FieldIdx ef = ctx.def->FindEffect(s.name);
      if (ef == kInvalidField) {
        return Status::SemanticError("unknown effect '" + s.name + "'" +
                                     At(s.pos));
      }
      w->target_kind = TargetKind::kSelf;
      w->target_cls = ctx.cls;
      w->field = ef;
      return Status::OK();
    }
    // Object-qualified: iteration variable or a ref expression.
    SGL_ASSIGN_OR_RETURN(ExprPtr base, CompileExpr(*s.target_base, ctx));
    if (!base->type.is_ref()) {
      return Status::SemanticError("assignment target must be a ref<>" +
                                   At(s.pos));
    }
    ClassId target = base->type.target;
    const ClassDef& tdef = catalog_->Get(target);
    FieldIdx ef = tdef.FindEffect(s.name);
    if (ef == kInvalidField) {
      if (tdef.FindState(s.name) != kInvalidField) {
        return Status::SemanticError("state field '" + tdef.name() + "." +
                                     s.name + "' is read-only during a tick" +
                                     At(s.pos));
      }
      return Status::SemanticError("class '" + tdef.name() +
                                   "' has no effect '" + s.name + "'" +
                                   At(s.pos));
    }
    w->target_cls = target;
    w->field = ef;
    if (base->kind == ExprKind::kRowId && base->side == 1) {
      w->target_kind = TargetKind::kIter;
    } else if (base->kind == ExprKind::kRowId && base->side == 0) {
      w->target_kind = TargetKind::kSelf;
    } else {
      w->target_kind = TargetKind::kRef;
      w->target_ref = std::move(base);
    }
    return Status::OK();
  }

  Status CompileAssign(const AstStmt& s, const Expr* guard, Ctx& ctx,
                       std::vector<std::unique_ptr<PlanOp>>* ops) {
    if (s.assign_op != "<-") {
      return Status::SemanticError(
          "'" + s.assign_op + "' is only allowed inside atomic blocks" +
          At(s.pos));
    }
    EffectWrite w;
    bool is_accum = false;
    SGL_RETURN_IF_ERROR(ResolveEffectTarget(s, ctx, &w, &is_accum));
    SGL_ASSIGN_OR_RETURN(ExprPtr value, CompileExpr(*s.expr, ctx));

    if (is_accum) {
      SGL_CHECK(ctx.cur_accum != nullptr);
      const Binding* b = LookupBinding(ctx, s.name);
      if (!value->type.Same(b->type) &&
          !(b->type.is_ref() && value->kind == ExprKind::kNullRef)) {
        return Status::SemanticError("accum assignment type mismatch" +
                                     At(s.pos));
      }
      AccumAssign a;
      a.guard = CloneGuard(guard);
      a.value = std::move(value);
      ctx.cur_accum->accum_assigns.push_back(std::move(a));
      return Status::OK();
    }

    if (w.target_kind == TargetKind::kIter && !ctx.in_accum1) {
      return Status::SemanticError(
          "iteration variable is only in scope inside the accum loop" +
          At(s.pos));
    }
    const FieldDef& f = catalog_->Get(w.target_cls).effect_field(w.field);
    if (f.type.is_set()) {
      if (!value->type.is_ref()) {
        return Status::SemanticError(
            "set effects take a ref<> to insert; got " +
            value->type.ToString() + At(s.pos));
      }
      w.set_insert = true;
    } else if (!value->type.Same(f.type) &&
               !(f.type.is_ref() && value->kind == ExprKind::kNullRef)) {
      return Status::SemanticError("effect '" + f.name + "' has type " +
                                   f.type.ToString() + At(s.pos));
    }
    w.guard = CloneGuard(guard);
    w.value = std::move(value);
    w.assign_id = next_assign_id_++;
    if (ctx.in_accum1) {
      ctx.cur_accum->pair_writes.push_back(std::move(w));
    } else {
      TrailingEffectsOp(ops)->writes.push_back(std::move(w));
    }
    return Status::OK();
  }

  Status CompileIf(const AstStmt& s, const Expr* guard, Ctx& ctx,
                   std::vector<std::unique_ptr<PlanOp>>* ops) {
    SGL_ASSIGN_OR_RETURN(ExprPtr cond, CompileExpr(*s.expr, ctx));
    if (!cond->type.is_bool()) {
      return Status::SemanticError("if condition must be bool" + At(s.pos));
    }
    ExprPtr then_guard = AndGuards(guard, cond->Clone());
    SGL_RETURN_IF_ERROR(CompileBlock(s.block1, then_guard.get(), ctx, ops));
    if (!s.block2.empty()) {
      ExprPtr else_guard = AndGuards(guard, NotB(std::move(cond)));
      SGL_RETURN_IF_ERROR(CompileBlock(s.block2, else_guard.get(), ctx, ops));
    }
    return Status::OK();
  }

  Status CompileRestart(const AstStmt& s, const Expr* guard, Ctx& ctx,
                        std::vector<std::unique_ptr<PlanOp>>* ops) {
    FieldIdx pc_effect = kInvalidField;
    if (s.name.empty()) {
      if (ctx.in_handler) {
        return Status::SemanticError(
            "restart in a handler must name a script" + At(s.pos));
      }
      pc_effect = ctx.self_pc_effect;
      if (pc_effect == kInvalidField) {
        return Status::SemanticError(
            "restart requires a multi-tick script (no waitNextTick here)" +
            At(s.pos));
      }
    } else {
      FieldIdx ef = ctx.def->FindEffect("__pcn_" + s.name);
      if (ef == kInvalidField) {
        return Status::SemanticError(
            "no multi-tick script named '" + s.name + "' for class '" +
            ctx.def->name() + "'" + At(s.pos));
      }
      pc_effect = ef;
    }
    EffectWrite w;
    w.target_kind = TargetKind::kSelf;
    w.target_cls = ctx.cls;
    w.field = pc_effect;
    w.guard = CloneGuard(guard);
    w.value = NumLit(0);
    w.assign_id = next_assign_id_++;
    TrailingEffectsOp(ops)->writes.push_back(std::move(w));
    return Status::OK();
  }

  // --- accum loops ---------------------------------------------------------

  static void FlattenConjuncts(ExprPtr e, std::vector<ExprPtr>* out) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kAndB) {
      FlattenConjuncts(std::move(e->kids[0]), out);
      FlattenConjuncts(std::move(e->kids[1]), out);
      return;
    }
    out->push_back(std::move(e));
  }

  static ExprPtr AndChain(std::vector<ExprPtr> conjuncts) {
    ExprPtr out;
    for (auto& c : conjuncts) {
      out = out == nullptr ? std::move(c) : AndB(std::move(out), std::move(c));
    }
    return out;
  }

  // Tries to interpret `c` as a single-sided range bound on an inner numeric
  // field: it.f OP outer-expr (or reversed). On success, merges the bound
  // into `op`'s range_dims and returns true.
  static bool TryExtractRange(const Expr& c, AccumOp* op) {
    if (c.kind != ExprKind::kCmpNum) return false;
    if (c.cmp != CmpOp::kLe && c.cmp != CmpOp::kGe && c.cmp != CmpOp::kEq) {
      return false;
    }
    const Expr* inner_side = nullptr;
    const Expr* outer_side = nullptr;
    bool inner_on_left = false;
    const Expr* a = c.kids[0].get();
    const Expr* b = c.kids[1].get();
    auto is_inner_field = [](const Expr* e) {
      return e->kind == ExprKind::kStateRead && e->side == 1 &&
             e->type.is_number();
    };
    if (is_inner_field(a) && !b->UsesInner()) {
      inner_side = a;
      outer_side = b;
      inner_on_left = true;
    } else if (is_inner_field(b) && !a->UsesInner()) {
      inner_side = b;
      outer_side = a;
    } else {
      return false;
    }
    // Normalize to it.f <= hi or it.f >= lo.
    bool is_upper;
    if (c.cmp == CmpOp::kEq) {
      // it.f == e: both bounds.
      RangeDim* dim = nullptr;
      for (RangeDim& d : op->range_dims) {
        if (d.inner_field == inner_side->field) dim = &d;
      }
      if (dim == nullptr) {
        op->range_dims.push_back(RangeDim{inner_side->field, nullptr, nullptr});
        dim = &op->range_dims.back();
      }
      if (dim->lo != nullptr || dim->hi != nullptr) return false;
      dim->lo = outer_side->Clone();
      dim->hi = outer_side->Clone();
      return true;
    }
    is_upper = inner_on_left ? (c.cmp == CmpOp::kLe) : (c.cmp == CmpOp::kGe);
    RangeDim* dim = nullptr;
    for (RangeDim& d : op->range_dims) {
      if (d.inner_field == inner_side->field) dim = &d;
    }
    if (dim == nullptr) {
      op->range_dims.push_back(RangeDim{inner_side->field, nullptr, nullptr});
      dim = &op->range_dims.back();
    }
    if (is_upper) {
      if (dim->hi != nullptr) return false;  // duplicate bound -> residual
      dim->hi = outer_side->Clone();
    } else {
      if (dim->lo != nullptr) return false;
      dim->lo = outer_side->Clone();
    }
    return true;
  }

  // it != self (either order), where both sides iterate the same class.
  static bool IsExcludeSelf(const Expr& c) {
    if (c.kind != ExprKind::kCmpRef || c.cmp != CmpOp::kNe) return false;
    const Expr* a = c.kids[0].get();
    const Expr* b = c.kids[1].get();
    auto is_row = [](const Expr* e, uint8_t side) {
      return e->kind == ExprKind::kRowId && e->side == side;
    };
    return (is_row(a, 1) && is_row(b, 0)) || (is_row(a, 0) && is_row(b, 1));
  }

  // it == outer-ref-expr: an id-equality (directory lookup) join key.
  static bool TryExtractIdHash(const Expr& c, AccumOp* op) {
    if (c.kind != ExprKind::kCmpRef || c.cmp != CmpOp::kEq) return false;
    const Expr* a = c.kids[0].get();
    const Expr* b = c.kids[1].get();
    const Expr* outer = nullptr;
    if (a->kind == ExprKind::kRowId && a->side == 1 && !b->UsesInner()) {
      outer = b;
    } else if (b->kind == ExprKind::kRowId && b->side == 1 &&
               !a->UsesInner()) {
      outer = a;
    } else {
      return false;
    }
    op->hash_dims.push_back(HashDim{outer->Clone()});
    return true;
  }

  // True if `e` reads nothing but the inner row's state (directly or
  // through its refs) and literals: no outer state, outer row id or local.
  // Such a conjunct can be evaluated once per inner row, before the join.
  static bool IsInnerOnly(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kStateRead:
      case ExprKind::kRowId:
        return e.side == 1;
      case ExprKind::kLocal:
      case ExprKind::kEffectRead:
      case ExprKind::kAssigned:
        return false;
      default:
        break;
    }
    for (const auto& k : e.kids) {
      if (!IsInnerOnly(*k)) return false;
    }
    return true;
  }

  // it.f != outer-expr (either order) on a numeric inner field: the key
  // conjunct the grid partitions its cells by. Only the first one found is
  // taken; `op` must not have one yet.
  static bool TryExtractKey(const Expr& c, AccumOp* op) {
    if (op->key != nullptr || c.kind != ExprKind::kCmpNum ||
        c.cmp != CmpOp::kNe) {
      return false;
    }
    auto is_inner_field = [](const Expr* e) {
      return e->kind == ExprKind::kStateRead && e->side == 1 &&
             e->type.is_number();
    };
    const Expr* a = c.kids[0].get();
    const Expr* b = c.kids[1].get();
    if (!is_inner_field(a) || b->UsesInner()) std::swap(a, b);
    if (!is_inner_field(a) || b->UsesInner()) return false;
    op->key_field = a->field;
    op->key = b->Clone();
    return true;
  }

  Status CompileAccum(const AstStmt& s, const Expr* guard, Ctx& ctx,
                      std::vector<std::unique_ptr<PlanOp>>* ops) {
    if (ctx.in_accum1) {
      return Status::SemanticError("accum loops cannot be nested" + At(s.pos));
    }
    SGL_ASSIGN_OR_RETURN(SglType accum_type,
                         ResolveType(s.accum_type, s.pos));
    auto comb = CombinatorFromName(s.comb);
    if (!comb.has_value()) {
      return Status::SemanticError("unknown combinator '" + s.comb + "'" +
                                   At(s.pos));
    }
    if (*comb == Combinator::kFirst || *comb == Combinator::kLast) {
      return Status::SemanticError(
          "accum loops are unordered; first/last are not valid accum "
          "combinators" +
          At(s.pos));
    }
    if (!CombinatorValidFor(*comb, accum_type)) {
      return Status::SemanticError(
          "combinator '" + s.comb + "' is invalid for accum type " +
          accum_type.ToString() + At(s.pos));
    }
    if (accum_type.is_set()) {
      return Status::SemanticError("set-typed accum variables are not "
                                   "supported; accumulate numbers or bools" +
                                   At(s.pos));
    }

    auto op = std::make_unique<AccumOp>();
    AccumOp* accum = op.get();
    accum->outer_guard = CloneGuard(guard);
    accum->accum_type = accum_type;
    accum->accum_comb = *comb;
    accum->site_id = next_site_++;

    // Iteration domain: class extent, or a set<> state field of self.
    ClassId iter_cls = catalog_->Find(s.iter_class);
    if (iter_cls == kInvalidClass) {
      return Status::NotFound("class '" + s.iter_class +
                              "' (iteration variable type) not found" +
                              At(s.pos));
    }
    ClassId from_cls = catalog_->Find(s.from_name);
    if (from_cls != kInvalidClass) {
      if (from_cls != iter_cls) {
        return Status::SemanticError(
            "iteration variable type '" + s.iter_class +
            "' does not match extent '" + s.from_name + "'" + At(s.pos));
      }
      accum->inner_cls = from_cls;
    } else {
      FieldIdx sf = ctx.def->FindState(s.from_name);
      if (sf == kInvalidField ||
          !ctx.def->state_field(sf).type.is_set()) {
        return Status::SemanticError(
            "'from " + s.from_name +
            "' must name a class or a set<> state field" + At(s.pos));
      }
      if (ctx.def->state_field(sf).type.target != iter_cls) {
        return Status::SemanticError(
            "iteration variable type does not match the set's element "
            "class" +
            At(s.pos));
      }
      accum->inner_cls = iter_cls;
      accum->inner_set_field = sf;
    }

    // Allocate the accum result slot.
    int slot = static_cast<int>(ctx.local_types->size());
    ctx.local_types->push_back(accum_type);
    accum->accum_slot = slot;

    // BLOCK1: pair context; accum var write-only, iteration var in scope.
    size_t scope_mark = ctx.scope.size();
    {
      Binding iter;
      iter.k = Binding::K::kIter;
      iter.iter_cls = accum->inner_cls;
      iter.iter_cls_name = s.iter_class;
      ctx.scope.emplace_back(s.iter_name, iter);
      Binding av;
      av.k = Binding::K::kAccum;
      av.slot = slot;
      av.type = accum_type;
      av.readable = false;
      av.writable = true;
      ctx.scope.emplace_back(s.name, av);
    }
    ctx.in_accum1 = true;
    ctx.cur_accum = accum;
    std::vector<std::unique_ptr<PlanOp>> dummy_ops;
    Status block1 = CompileBlock(s.block1, /*guard=*/nullptr, ctx, &dummy_ops);
    ctx.in_accum1 = false;
    ctx.cur_accum = nullptr;
    ctx.scope.resize(scope_mark);
    SGL_RETURN_IF_ERROR(block1);
    if (!dummy_ops.empty()) {
      return Status::SemanticError(
          "only effect and accum assignments (under conditionals) are "
          "allowed in the first block of an accum loop" +
          At(s.pos));
    }

    ExtractJoinPredicates(accum);

    ops->push_back(std::move(op));

    // BLOCK2: accum var becomes readable.
    {
      Binding av;
      av.k = Binding::K::kAccum;
      av.slot = slot;
      av.type = accum_type;
      av.readable = true;
      av.writable = false;
      ctx.scope.emplace_back(s.name, av);
    }
    SGL_RETURN_IF_ERROR(CompileBlock(s.block2, guard, ctx, ops));
    ctx.scope.resize(scope_mark);
    return Status::OK();
  }

  // Pulls conjuncts common to every BLOCK1 assignment's guard out into the
  // join predicate (range dims / id-hash dims / exclude-self / inner filter /
  // key / residual / hoisted outer guard), leaving only per-assignment
  // residual guards.
  void ExtractJoinPredicates(AccumOp* accum) {
    // Gather flattened guard conjunct lists for every assignment.
    std::vector<std::vector<ExprPtr>> lists;
    bool any_unguarded = false;
    auto collect = [&](ExprPtr guard) {
      std::vector<ExprPtr> list;
      if (guard == nullptr) {
        any_unguarded = true;
      } else {
        FlattenConjuncts(std::move(guard), &list);
      }
      lists.push_back(std::move(list));
    };
    for (auto& a : accum->accum_assigns) collect(std::move(a.guard));
    for (auto& w : accum->pair_writes) collect(std::move(w.guard));
    if (lists.empty()) return;

    std::vector<ExprPtr> common;
    if (!any_unguarded) {
      // Conjuncts of the first list present in all others.
      for (ExprPtr& cand : lists[0]) {
        bool everywhere = true;
        for (size_t i = 1; i < lists.size(); ++i) {
          bool found = false;
          for (const ExprPtr& c : lists[i]) {
            if (c != nullptr && c->Equals(*cand)) {
              found = true;
              break;
            }
          }
          if (!found) {
            everywhere = false;
            break;
          }
        }
        if (everywhere) {
          // Null out one matching conjunct in every other list.
          for (size_t i = 1; i < lists.size(); ++i) {
            for (ExprPtr& c : lists[i]) {
              if (c != nullptr && c->Equals(*cand)) {
                c.reset();
                break;
              }
            }
          }
          common.push_back(std::move(cand));
        }
      }
    }

    // Classify common conjuncts.
    std::vector<ExprPtr> inner_filter;
    std::vector<ExprPtr> residual;
    std::vector<ExprPtr> hoisted;  // outer-only: AND into outer_guard
    for (ExprPtr& c : common) {
      if (c == nullptr) continue;
      if (!c->UsesInner()) {
        hoisted.push_back(std::move(c));
        continue;
      }
      if (IsExcludeSelf(*c)) {
        accum->exclude_self = true;
        continue;
      }
      if (TryExtractRange(*c, accum)) continue;
      if (TryExtractIdHash(*c, accum)) continue;
      if (IsInnerOnly(*c)) {
        inner_filter.push_back(std::move(c));
        continue;
      }
      if (TryExtractKey(*c, accum)) continue;
      residual.push_back(std::move(c));
    }
    accum->inner_filter = AndChain(std::move(inner_filter));
    accum->residual = AndChain(std::move(residual));
    if (!hoisted.empty()) {
      ExprPtr h = AndChain(std::move(hoisted));
      accum->outer_guard = accum->outer_guard == nullptr
                               ? std::move(h)
                               : AndB(std::move(accum->outer_guard),
                                      std::move(h));
    }

    // Rebuild per-assignment guards from the surviving conjuncts.
    size_t li = 0;
    auto rebuild = [&](ExprPtr* guard) {
      std::vector<ExprPtr> kept;
      for (ExprPtr& c : lists[li]) {
        if (c != nullptr) kept.push_back(std::move(c));
      }
      *guard = AndChain(std::move(kept));
      ++li;
    };
    for (auto& a : accum->accum_assigns) rebuild(&a.guard);
    for (auto& w : accum->pair_writes) rebuild(&w.guard);
  }

  // --- atomic blocks -------------------------------------------------------

  Status CompileAtomic(const AstStmt& s, const Expr* guard, Ctx& ctx,
                       std::vector<std::unique_ptr<PlanOp>>* ops) {
    if (ctx.in_accum1) {
      return Status::SemanticError(
          "atomic blocks are not allowed inside accum loops" + At(s.pos));
    }
    auto op = std::make_unique<TxnEmitOp>();
    op->guard = CloneGuard(guard);
    op->label = s.name;
    op->site_id = next_site_++;
    op->status_field = ctx.def->FindState(s.name + "_status");
    SGL_CHECK(op->status_field != kInvalidField);
    MarkTxnOwned(ctx.cls, op->status_field);

    for (const AstExprPtr& c : s.constraints) {
      ctx.in_constraint = true;
      auto compiled = CompileExpr(*c, ctx);
      ctx.in_constraint = false;
      if (!compiled.ok()) return compiled.status();
      if (!(*compiled)->type.is_bool()) {
        return Status::SemanticError("require() expects a bool" + At(c->pos));
      }
      op->constraints.push_back(std::move(*compiled));
    }

    for (const AstStmtPtr& w : s.block1) {
      if (w->kind != AstStmtKind::kAssign) {
        return Status::SemanticError(
            "atomic blocks may contain only state writes" + At(w->pos));
      }
      TxnWrite tw;
      // Resolve the target STATE field (unlike effects elsewhere).
      ClassId target_cls = ctx.cls;
      if (w->target_base != nullptr) {
        SGL_ASSIGN_OR_RETURN(ExprPtr base, CompileExpr(*w->target_base, ctx));
        if (!base->type.is_ref()) {
          return Status::SemanticError("atomic write target must be a ref<>" +
                                       At(w->pos));
        }
        target_cls = base->type.target;
        if (base->kind == ExprKind::kRowId && base->side == 0) {
          tw.target_kind = TargetKind::kSelf;
        } else {
          tw.target_kind = TargetKind::kRef;
          tw.target_ref = std::move(base);
        }
      } else {
        tw.target_kind = TargetKind::kSelf;
      }
      const ClassDef& tdef = catalog_->Get(target_cls);
      FieldIdx sf = tdef.FindState(w->name);
      if (sf == kInvalidField) {
        return Status::SemanticError(
            "atomic blocks write state fields; '" + w->name +
            "' is not a state field of '" + tdef.name() + "'" + At(w->pos));
      }
      const FieldDef& fdef = tdef.state_field(sf);
      tw.target_cls = target_cls;
      tw.state_field = sf;
      SGL_ASSIGN_OR_RETURN(ExprPtr value, CompileExpr(*w->expr, ctx));
      if (w->assign_op == "<-") {
        if (fdef.type.is_number() && value->type.is_number()) {
          tw.op = TxnWriteOp::kAddDelta;
        } else if (fdef.type.is_ref() &&
                   (value->type.is_ref() ||
                    value->kind == ExprKind::kNullRef)) {
          tw.op = TxnWriteOp::kSetRef;
        } else {
          return Status::SemanticError(
              "'<-' in atomic blocks adds a numeric delta or overwrites a "
              "ref<> state field" +
              At(w->pos));
        }
      } else {
        if (!fdef.type.is_set() || !value->type.is_ref()) {
          return Status::SemanticError(
              "'" + w->assign_op +
              "' in atomic blocks inserts/removes a ref<> on a set<> state "
              "field" +
              At(w->pos));
        }
        tw.op = w->assign_op == "<+" ? TxnWriteOp::kSetInsert
                                     : TxnWriteOp::kSetRemove;
      }
      tw.value = std::move(value);
      MarkTxnOwned(target_cls, sf);
      op->writes.push_back(std::move(tw));
    }
    ops->push_back(std::move(op));
    return Status::OK();
  }

  void MarkTxnOwned(ClassId cls, FieldIdx field) {
    auto& owned = out_->txn_owned[static_cast<size_t>(cls)];
    for (FieldIdx f : owned) {
      if (f == field) return;
    }
    owned.push_back(field);
  }

  // --- Pass 4 drivers ------------------------------------------------------

  Status CompileScripts() {
    for (const AstScript& as : ast_->scripts) {
      CompiledScript cs;
      cs.name = as.name;
      cs.cls = catalog_->Find(as.cls);
      Ctx ctx;
      ctx.cls = cs.cls;
      ctx.def = &catalog_->Get(cs.cls);
      ctx.unit_name = as.name;
      ctx.local_types = &cs.local_types;

      // Split the body into phases at top-level waitNextTick (§3.2).
      std::vector<std::vector<const AstStmt*>> phases(1);
      for (const auto& stmt : as.body) {
        if (stmt->kind == AstStmtKind::kWait) {
          phases.emplace_back();
        } else {
          phases.back().push_back(stmt.get());
        }
      }
      const bool multi = phases.size() > 1;
      if (multi) {
        cs.pc_state = ctx.def->FindState("__pc_" + as.name);
        cs.pc_effect = ctx.def->FindEffect("__pcn_" + as.name);
        ctx.self_pc_effect = cs.pc_effect;
      }

      for (size_t k = 0; k < phases.size(); ++k) {
        std::vector<std::unique_ptr<PlanOp>> ops;
        int pc_write_id = -1;
        if (multi) {
          // Allocate the phase-advance write's id BEFORE the body so that a
          // restart inside the body (larger id) overrides it under kLast.
          pc_write_id = next_assign_id_++;
        }
        size_t scope_mark = ctx.scope.size();
        for (const AstStmt* stmt : phases[k]) {
          SGL_RETURN_IF_ERROR(CompileStmt(*stmt, /*guard=*/nullptr, ctx,
                                          &ops));
        }
        ctx.scope.resize(scope_mark);
        if (multi) {
          EffectWrite w;
          w.target_kind = TargetKind::kSelf;
          w.target_cls = cs.cls;
          w.field = cs.pc_effect;
          double next_pc =
              k + 1 < phases.size() ? static_cast<double>(k + 1) : 0.0;
          w.value = NumLit(next_pc);
          w.assign_id = pc_write_id;
          TrailingEffectsOp(&ops)->writes.push_back(std::move(w));
        }
        cs.phases.push_back(std::move(ops));
      }
      out_->scripts.push_back(std::move(cs));
    }
    // Auto update rules for PCs: pc = assigned(pcn) ? pcn : 0.
    for (const CompiledScript& cs : out_->scripts) {
      if (cs.pc_state == kInvalidField) continue;
      UpdateRule rule;
      rule.cls = cs.cls;
      rule.state_field = cs.pc_state;
      rule.value = IfExpr(AssignedRead(cs.cls, cs.pc_effect),
                          EffectRead(cs.cls, cs.pc_effect, SglType::Number()),
                          NumLit(0));
      out_->update_rules.push_back(std::move(rule));
    }
    return Status::OK();
  }

  Status CompileHandlers() {
    int anon = 0;
    for (const AstHandler& ah : ast_->handlers) {
      CompiledHandler ch;
      ch.name = ah.name.empty() ? "__when" + std::to_string(anon++) : ah.name;
      ch.cls = catalog_->Find(ah.cls);
      if (ch.cls == kInvalidClass) {
        return Status::NotFound("class '" + ah.cls + "' for handler not "
                                "declared" + At(ah.pos));
      }
      Ctx ctx;
      ctx.cls = ch.cls;
      ctx.def = &catalog_->Get(ch.cls);
      ctx.unit_name = ch.name;
      ctx.local_types = &ch.local_types;
      ctx.in_handler = true;
      SGL_ASSIGN_OR_RETURN(ch.cond, CompileExpr(*ah.cond, ctx));
      if (!ch.cond->type.is_bool()) {
        return Status::SemanticError("handler condition must be bool" +
                                     At(ah.pos));
      }
      SGL_RETURN_IF_ERROR(
          CompileBlock(ah.body, /*guard=*/nullptr, ctx, &ch.ops));
      out_->handlers.push_back(std::move(ch));
    }
    return Status::OK();
  }

  Status CompileUpdateRules() {
    for (const AstClass& ac : ast_->classes) {
      ClassId cls = catalog_->Find(ac.name);
      const ClassDef& def = catalog_->Get(cls);
      for (const AstUpdateRule& ar : ac.updates) {
        FieldIdx sf = def.FindState(ar.field);
        if (sf == kInvalidField) {
          return Status::SemanticError("update rule targets unknown state "
                                       "field '" + ar.field + "'" +
                                       At(ar.pos));
        }
        Ctx ctx;
        ctx.cls = cls;
        ctx.def = &def;
        ctx.unit_name = ac.name + ".update";
        static std::vector<SglType> no_locals;
        ctx.local_types = &no_locals;
        ctx.in_update_rule = true;
        SGL_ASSIGN_OR_RETURN(ExprPtr value, CompileExpr(*ar.value, ctx));
        if (!value->type.Same(def.state_field(sf).type) &&
            !(def.state_field(sf).type.is_ref() &&
              value->kind == ExprKind::kNullRef)) {
          return Status::SemanticError("update rule for '" + ar.field +
                                       "' has mismatched type" + At(ar.pos));
        }
        UpdateRule rule;
        rule.cls = cls;
        rule.state_field = sf;
        rule.value = std::move(value);
        out_->update_rules.push_back(std::move(rule));
      }
    }
    return Status::OK();
  }

  // --- Pass 5: ownership conflicts ---------------------------------------

  Status CheckOwnershipConflicts() {
    // A state field may be updated by at most one component (§2.2): the
    // transaction engine and the expression updater must not share fields.
    for (const UpdateRule& r : out_->update_rules) {
      for (FieldIdx f : out_->txn_owned[static_cast<size_t>(r.cls)]) {
        if (f == r.state_field) {
          const ClassDef& def = catalog_->Get(r.cls);
          return Status::SemanticError(
              "state field '" + def.name() + "." +
              def.state_field(f).name +
              "' is written by atomic blocks AND an update rule; state must "
              "be partitioned among update components");
        }
      }
    }
    return Status::OK();
  }

  const AstProgram* ast_ = nullptr;
  CompiledProgram* out_ = nullptr;
  Catalog* catalog_ = nullptr;
  int next_assign_id_ = 1;
  int next_site_ = 0;
};

}  // namespace

std::string CompiledProgram::Explain() const {
  std::string out;
  for (const CompiledScript& s : scripts) {
    out += "script " + s.name + " for " + catalog->Get(s.cls).name() + ":\n";
    for (size_t k = 0; k < s.phases.size(); ++k) {
      if (s.phases.size() > 1) {
        out += " phase " + std::to_string(k) + ":\n";
      }
      out += ExplainOps(s.phases[k]);
    }
  }
  for (const CompiledHandler& h : handlers) {
    out += "when " + catalog->Get(h.cls).name() + " " + h.name + " (" +
           h.cond->ToString() + "):\n";
    out += ExplainOps(h.ops);
  }
  for (const UpdateRule& r : update_rules) {
    const ClassDef& def = catalog->Get(r.cls);
    out += "update " + def.name() + "." +
           def.state_field(r.state_field).name + " = " +
           r.value->ToString() + "\n";
  }
  return out;
}

StatusOr<std::unique_ptr<CompiledProgram>> Compile(const AstProgram& ast) {
  auto out = std::make_unique<CompiledProgram>();
  ProgramCompiler compiler;
  SGL_RETURN_IF_ERROR(compiler.Run(ast, out.get()));
  return out;
}

StatusOr<std::unique_ptr<CompiledProgram>> CompileSource(
    const std::string& source) {
  SGL_ASSIGN_OR_RETURN(AstProgram ast, ParseProgram(source));
  return Compile(ast);
}

}  // namespace sgl
