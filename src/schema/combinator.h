// Effect combinators — the ⊕ operators of the state-effect pattern (§2).
//
// Every effect variable declares how concurrent writes within a tick are
// combined. Combination must be order-insensitive, which is what licenses
// the engine to reorder and parallelize effect computation. `first`/`last`
// are made order-insensitive by attaching an explicit deterministic order
// key (script row, statement sequence) to every assignment.

#ifndef SGL_SCHEMA_COMBINATOR_H_
#define SGL_SCHEMA_COMBINATOR_H_

#include <optional>
#include <string>

#include "src/common/status.h"
#include "src/schema/type.h"

namespace sgl {

/// The built-in ⊕ combinators.
enum class Combinator : uint8_t {
  kSum,    ///< number: arithmetic sum
  kAvg,    ///< number: arithmetic mean of all assignments
  kMin,    ///< number: minimum
  kMax,    ///< number: maximum
  kCount,  ///< number: number of assignments (value ignored)
  kOr,     ///< bool: logical or
  kAnd,    ///< bool: logical and
  kFirst,  ///< any scalar: value with smallest deterministic order key
  kLast,   ///< any scalar: value with largest deterministic order key
  kUnion,  ///< set: set union (single-element inserts or whole sets)
};

/// Lowercase keyword for the combinator ("sum", "avg", ...).
const char* CombinatorName(Combinator c);

/// Parses a combinator keyword; nullopt if unknown.
std::optional<Combinator> CombinatorFromName(const std::string& name);

/// Whether combinator `c` is legal for an effect variable of type `type`.
bool CombinatorValidFor(Combinator c, const SglType& type);

/// Identity element for numeric combinators (what an unassigned accumulator
/// holds): 0 for sum/count/avg-sum, +inf for min, -inf for max.
double NumericIdentity(Combinator c);

/// Folds one numeric assignment into an accumulator.
/// For kAvg the caller tracks counts separately and finalizes with
/// FinalizeNumeric. For kCount the value is ignored.
double CombineNumeric(Combinator c, double acc, double value);

/// Finalizes a numeric accumulator given the number of assignments.
/// Returns the field's post-merge value, or nullopt when count == 0
/// (meaning "no assignment this tick" — the update rule sees `assigned`
/// = false and typically keeps the old state).
inline std::optional<double> FinalizeNumeric(Combinator c, double acc,
                                             uint64_t count) {
  if (count == 0) return std::nullopt;
  if (c == Combinator::kAvg) return acc / static_cast<double>(count);
  return acc;
}

}  // namespace sgl

#endif  // SGL_SCHEMA_COMBINATOR_H_
