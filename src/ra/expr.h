// Typed scalar-expression IR — the leaves of compiled relational plans.
//
// SGL scripts compile into plan operators whose guards, join predicates,
// effect values, and update rules are all Expr trees. The same IR is
// evaluated two ways:
//   * vectorized over RowIdx selections (the set-at-a-time engine, §2), and
//   * one row at a time (the object-at-a-time baseline interpreter and the
//     transaction engine's tentative-state constraint checks, §3.1).
//
// Expressions may reference two tuple "sides": side 0 is the script's own
// entity (outer), side 1 is the accum-loop iteration entity (inner). An
// expression that references no inner fields is an outer expression; the
// compiler uses UsesInner() to extract join predicates (§2.1).

#ifndef SGL_RA_EXPR_H_
#define SGL_RA_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/schema/type.h"

namespace sgl {

/// Node discriminator.
enum class ExprKind : uint8_t {
  kNumLit,      ///< numeric literal
  kBoolLit,     ///< boolean literal
  kNullRef,     ///< the null entity reference
  kStateRead,   ///< state field of side 0/1 (cls, field)
  kEffectRead,  ///< merged effect value (update phase only; cls, field)
  kAssigned,    ///< bool: effect field received >= 1 assignment (update only)
  kLocal,       ///< local slot (let-binding or accum result column)
  kRowId,       ///< ref: the entity id of side 0/1
  kRefState,    ///< gather: kids[0] is a ref expr; read (cls, field) of target
  kUnaryMinus,  ///< -x
  kNot,         ///< !b
  kArith,       ///< binary numeric op (arith payload)
  kCall1,       ///< unary numeric builtin (call1 payload)
  kCmpNum,      ///< numeric comparison (cmp payload) -> bool
  kCmpRef,      ///< ref equality comparison (cmp kEq/kNe) -> bool
  kCmpBool,     ///< bool equality comparison (cmp kEq/kNe) -> bool
  kAndB,        ///< b && b
  kOrB,         ///< b || b
  kIf,          ///< if(cond, a, b) — result type = type of a/b
  kClamp,       ///< clamp(x, lo, hi)
  kSetContains, ///< contains(set-expr, ref-expr) -> bool
  kSetSize,     ///< size(set-expr) -> number
};

/// The enumerator's name without the `k` ("StateRead", "SetSize", ...), for
/// diagnostics such as lowering errors.
const char* ExprKindName(ExprKind kind);

enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv, kMod, kMin, kMax, kPow };
enum class Call1Op : uint8_t { kAbs, kSqrt, kFloor, kCeil };
enum class CmpOp : uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };

/// One IR node. Trees are owned top-down via unique_ptr.
struct Expr {
  ExprKind kind;
  SglType type;               ///< result type (assigned by sema)
  uint8_t side = 0;           ///< kStateRead/kRowId: 0 outer, 1 inner
  ClassId cls = kInvalidClass;///< reads: class whose field is read
  FieldIdx field = kInvalidField;  ///< reads: field index
  int slot = -1;              ///< kLocal: slot index
  double num = 0.0;           ///< kNumLit payload
  bool b = false;             ///< kBoolLit payload
  ArithOp arith = ArithOp::kAdd;
  Call1Op call1 = Call1Op::kAbs;
  CmpOp cmp = CmpOp::kLt;
  std::vector<std::unique_ptr<Expr>> kids;

  /// Deep structural equality (used for join-predicate extraction).
  bool Equals(const Expr& other) const;
  /// Deep copy.
  std::unique_ptr<Expr> Clone() const;
  /// Readable rendering for EXPLAIN output and error messages.
  std::string ToString() const;
  /// True if any descendant reads side 1 (the accum iteration tuple).
  bool UsesInner() const;
};

using ExprPtr = std::unique_ptr<Expr>;

// --- Construction helpers (used by sema, update components, tests) -----

ExprPtr NumLit(double v);
ExprPtr BoolLit(bool v);
ExprPtr NullRef();
ExprPtr StateRead(uint8_t side, ClassId cls, FieldIdx field,
                  const SglType& type);
ExprPtr EffectRead(ClassId cls, FieldIdx field, const SglType& type);
ExprPtr AssignedRead(ClassId cls, FieldIdx field);
ExprPtr LocalRead(int slot, const SglType& type);
ExprPtr RowIdRead(uint8_t side, ClassId cls);
ExprPtr Arith(ArithOp op, ExprPtr a, ExprPtr b);
ExprPtr Call1(Call1Op op, ExprPtr a);
ExprPtr CmpNum(CmpOp op, ExprPtr a, ExprPtr b);
ExprPtr AndB(ExprPtr a, ExprPtr b);
ExprPtr OrB(ExprPtr a, ExprPtr b);
ExprPtr NotB(ExprPtr a);
ExprPtr IfExpr(ExprPtr cond, ExprPtr t, ExprPtr e);

}  // namespace sgl

#endif  // SGL_RA_EXPR_H_
