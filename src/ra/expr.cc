#include "src/ra/expr.h"

#include <cstdio>

namespace sgl {

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind || side != other.side || cls != other.cls ||
      field != other.field || slot != other.slot || num != other.num ||
      b != other.b || arith != other.arith || call1 != other.call1 ||
      cmp != other.cmp || kids.size() != other.kids.size()) {
    return false;
  }
  for (size_t i = 0; i < kids.size(); ++i) {
    if (!kids[i]->Equals(*other.kids[i])) return false;
  }
  return true;
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->type = type;
  out->side = side;
  out->cls = cls;
  out->field = field;
  out->slot = slot;
  out->num = num;
  out->b = b;
  out->arith = arith;
  out->call1 = call1;
  out->cmp = cmp;
  out->kids.reserve(kids.size());
  for (const auto& k : kids) out->kids.push_back(k->Clone());
  return out;
}

bool Expr::UsesInner() const {
  if ((kind == ExprKind::kStateRead || kind == ExprKind::kRowId) &&
      side == 1) {
    return true;
  }
  for (const auto& k : kids) {
    if (k->UsesInner()) return true;
  }
  return false;
}

namespace {
const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
    case ArithOp::kMod: return "%";
    case ArithOp::kMin: return "min";
    case ArithOp::kMax: return "max";
    case ArithOp::kPow: return "pow";
  }
  return "?";
}
const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
  }
  return "?";
}
const char* Call1Name(Call1Op op) {
  switch (op) {
    case Call1Op::kAbs: return "abs";
    case Call1Op::kSqrt: return "sqrt";
    case Call1Op::kFloor: return "floor";
    case Call1Op::kCeil: return "ceil";
  }
  return "?";
}
}  // namespace

const char* ExprKindName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kNumLit: return "NumLit";
    case ExprKind::kBoolLit: return "BoolLit";
    case ExprKind::kNullRef: return "NullRef";
    case ExprKind::kStateRead: return "StateRead";
    case ExprKind::kEffectRead: return "EffectRead";
    case ExprKind::kAssigned: return "Assigned";
    case ExprKind::kLocal: return "Local";
    case ExprKind::kRowId: return "RowId";
    case ExprKind::kRefState: return "RefState";
    case ExprKind::kUnaryMinus: return "UnaryMinus";
    case ExprKind::kNot: return "Not";
    case ExprKind::kArith: return "Arith";
    case ExprKind::kCall1: return "Call1";
    case ExprKind::kCmpNum: return "CmpNum";
    case ExprKind::kCmpRef: return "CmpRef";
    case ExprKind::kCmpBool: return "CmpBool";
    case ExprKind::kAndB: return "AndB";
    case ExprKind::kOrB: return "OrB";
    case ExprKind::kIf: return "If";
    case ExprKind::kClamp: return "Clamp";
    case ExprKind::kSetContains: return "SetContains";
    case ExprKind::kSetSize: return "SetSize";
  }
  return "?";
}

std::string Expr::ToString() const {
  char buf[64];
  switch (kind) {
    case ExprKind::kNumLit:
      std::snprintf(buf, sizeof(buf), "%g", num);
      return buf;
    case ExprKind::kBoolLit:
      return b ? "true" : "false";
    case ExprKind::kNullRef:
      return "null";
    case ExprKind::kStateRead:
      std::snprintf(buf, sizeof(buf), "%s.s%d", side == 0 ? "self" : "it",
                    field);
      return buf;
    case ExprKind::kEffectRead:
      std::snprintf(buf, sizeof(buf), "eff%d", field);
      return buf;
    case ExprKind::kAssigned:
      std::snprintf(buf, sizeof(buf), "assigned(eff%d)", field);
      return buf;
    case ExprKind::kLocal:
      std::snprintf(buf, sizeof(buf), "$%d", slot);
      return buf;
    case ExprKind::kRowId:
      return side == 0 ? "self" : "it";
    case ExprKind::kRefState:
      std::snprintf(buf, sizeof(buf), "(%s).s%d", kids[0]->ToString().c_str(),
                    field);
      return buf;
    case ExprKind::kUnaryMinus:
      return "-(" + kids[0]->ToString() + ")";
    case ExprKind::kNot:
      return "!(" + kids[0]->ToString() + ")";
    case ExprKind::kArith:
      if (arith == ArithOp::kMin || arith == ArithOp::kMax ||
          arith == ArithOp::kPow) {
        return std::string(ArithOpName(arith)) + "(" + kids[0]->ToString() +
               "," + kids[1]->ToString() + ")";
      }
      return "(" + kids[0]->ToString() + ArithOpName(arith) +
             kids[1]->ToString() + ")";
    case ExprKind::kCall1:
      return std::string(Call1Name(call1)) + "(" + kids[0]->ToString() + ")";
    case ExprKind::kCmpNum:
    case ExprKind::kCmpRef:
    case ExprKind::kCmpBool:
      return "(" + kids[0]->ToString() + CmpOpName(cmp) + kids[1]->ToString() +
             ")";
    case ExprKind::kAndB:
      return "(" + kids[0]->ToString() + "&&" + kids[1]->ToString() + ")";
    case ExprKind::kOrB:
      return "(" + kids[0]->ToString() + "||" + kids[1]->ToString() + ")";
    case ExprKind::kIf:
      return "if(" + kids[0]->ToString() + "," + kids[1]->ToString() + "," +
             kids[2]->ToString() + ")";
    case ExprKind::kClamp:
      return "clamp(" + kids[0]->ToString() + "," + kids[1]->ToString() + "," +
             kids[2]->ToString() + ")";
    case ExprKind::kSetContains:
      return "contains(" + kids[0]->ToString() + "," + kids[1]->ToString() +
             ")";
    case ExprKind::kSetSize:
      return "size(" + kids[0]->ToString() + ")";
  }
  return "?";
}

ExprPtr NumLit(double v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNumLit;
  e->type = SglType::Number();
  e->num = v;
  return e;
}

ExprPtr BoolLit(bool v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBoolLit;
  e->type = SglType::Bool();
  e->b = v;
  return e;
}

ExprPtr NullRef() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNullRef;
  e->type = SglType::Ref("");
  return e;
}

ExprPtr StateRead(uint8_t side, ClassId cls, FieldIdx field,
                  const SglType& type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStateRead;
  e->type = type;
  e->side = side;
  e->cls = cls;
  e->field = field;
  return e;
}

ExprPtr EffectRead(ClassId cls, FieldIdx field, const SglType& type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kEffectRead;
  e->type = type;
  e->cls = cls;
  e->field = field;
  return e;
}

ExprPtr AssignedRead(ClassId cls, FieldIdx field) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAssigned;
  e->type = SglType::Bool();
  e->cls = cls;
  e->field = field;
  return e;
}

ExprPtr LocalRead(int slot, const SglType& type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLocal;
  e->type = type;
  e->slot = slot;
  return e;
}

ExprPtr RowIdRead(uint8_t side, ClassId cls) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kRowId;
  e->type = SglType::Ref("");
  e->side = side;
  e->cls = cls;
  return e;
}

ExprPtr Arith(ArithOp op, ExprPtr a, ExprPtr b) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kArith;
  e->type = SglType::Number();
  e->arith = op;
  e->kids.push_back(std::move(a));
  e->kids.push_back(std::move(b));
  return e;
}

ExprPtr Call1(Call1Op op, ExprPtr a) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCall1;
  e->type = SglType::Number();
  e->call1 = op;
  e->kids.push_back(std::move(a));
  return e;
}

ExprPtr CmpNum(CmpOp op, ExprPtr a, ExprPtr b) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCmpNum;
  e->type = SglType::Bool();
  e->cmp = op;
  e->kids.push_back(std::move(a));
  e->kids.push_back(std::move(b));
  return e;
}

ExprPtr AndB(ExprPtr a, ExprPtr b) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAndB;
  e->type = SglType::Bool();
  e->kids.push_back(std::move(a));
  e->kids.push_back(std::move(b));
  return e;
}

ExprPtr OrB(ExprPtr a, ExprPtr b) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kOrB;
  e->type = SglType::Bool();
  e->kids.push_back(std::move(a));
  e->kids.push_back(std::move(b));
  return e;
}

ExprPtr NotB(ExprPtr a) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNot;
  e->type = SglType::Bool();
  e->kids.push_back(std::move(a));
  return e;
}

ExprPtr IfExpr(ExprPtr cond, ExprPtr t, ExprPtr e2) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIf;
  e->type = t->type;
  e->kids.push_back(std::move(cond));
  e->kids.push_back(std::move(t));
  e->kids.push_back(std::move(e2));
  return e;
}

}  // namespace sgl
