// Guarded numeric kernels shared by both expression evaluators.
//
// The engine evaluates the same Expr IR two ways — scalar (object-at-a-time
// oracle / txn admission) and compiled register bytecode (src/vm/) — and
// the differential tests demand bit-identical results between them.
// Centralizing the arithmetic semantics here makes that parity hold by
// construction instead of by vigilance.
//
// Pinned semantics (deliberate deviations from raw IEEE, so that scripted
// game math can never inject inf/NaN into world state or checksums):
//   * x / 0  == 0   (division by zero yields 0, not ±inf/NaN)
//   * fmod(x, 0) == 0  (same guard for modulus)
//   * sqrt(x < 0) == 0 (negative operands clamp to 0, not NaN)
//   * clamp(v, lo, hi) applies lo first, then hi — so lo > hi pins the
//     result to hi (min(max(v, lo), hi)), in both evaluators.
// All guards are written as branchless selects so the autovectorizer can
// if-convert them; IEEE division/fmod never traps, so speculatively
// computing the unguarded value is safe.

#ifndef SGL_RA_NUMERIC_H_
#define SGL_RA_NUMERIC_H_

#include <cmath>

#include "src/ra/expr.h"

namespace sgl {

/// x / y with division-by-zero yielding 0.
inline double GuardedDiv(double a, double b) {
  return b == 0.0 ? 0.0 : a / b;
}

/// fmod(x, y) with zero modulus yielding 0.
inline double GuardedMod(double a, double b) {
  return b == 0.0 ? 0.0 : std::fmod(a, b);
}

/// sqrt with negative operands clamped to 0 (never NaN).
inline double GuardedSqrt(double a) {
  return a <= 0.0 ? 0.0 : std::sqrt(a);
}

/// clamp with pinned ordering: lo applies first, then hi, so a degenerate
/// lo > hi interval resolves to hi in both evaluators.
inline double ApplyClamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

inline double ApplyArith(ArithOp op, double a, double b) {
  switch (op) {
    case ArithOp::kAdd: return a + b;
    case ArithOp::kSub: return a - b;
    case ArithOp::kMul: return a * b;
    case ArithOp::kDiv: return GuardedDiv(a, b);
    case ArithOp::kMod: return GuardedMod(a, b);
    case ArithOp::kMin: return a < b ? a : b;
    case ArithOp::kMax: return a > b ? a : b;
    case ArithOp::kPow: return std::pow(a, b);
  }
  return 0;
}

inline double ApplyCall1(Call1Op op, double a) {
  switch (op) {
    case Call1Op::kAbs: return std::fabs(a);
    case Call1Op::kSqrt: return GuardedSqrt(a);
    case Call1Op::kFloor: return std::floor(a);
    case Call1Op::kCeil: return std::ceil(a);
  }
  return 0;
}

inline bool ApplyCmp(CmpOp op, double a, double b) {
  switch (op) {
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
  }
  return false;
}

}  // namespace sgl

#endif  // SGL_RA_NUMERIC_H_
