#include "src/schema/combinator.h"

#include <limits>

namespace sgl {

const char* CombinatorName(Combinator c) {
  switch (c) {
    case Combinator::kSum: return "sum";
    case Combinator::kAvg: return "avg";
    case Combinator::kMin: return "min";
    case Combinator::kMax: return "max";
    case Combinator::kCount: return "count";
    case Combinator::kOr: return "or";
    case Combinator::kAnd: return "and";
    case Combinator::kFirst: return "first";
    case Combinator::kLast: return "last";
    case Combinator::kUnion: return "union";
  }
  return "?";
}

std::optional<Combinator> CombinatorFromName(const std::string& name) {
  if (name == "sum") return Combinator::kSum;
  if (name == "avg") return Combinator::kAvg;
  if (name == "min") return Combinator::kMin;
  if (name == "max") return Combinator::kMax;
  if (name == "count") return Combinator::kCount;
  if (name == "or") return Combinator::kOr;
  if (name == "and") return Combinator::kAnd;
  if (name == "first") return Combinator::kFirst;
  if (name == "last") return Combinator::kLast;
  if (name == "union") return Combinator::kUnion;
  return std::nullopt;
}

bool CombinatorValidFor(Combinator c, const SglType& type) {
  switch (c) {
    case Combinator::kSum:
    case Combinator::kAvg:
    case Combinator::kMin:
    case Combinator::kMax:
    case Combinator::kCount:
      return type.is_number();
    case Combinator::kOr:
    case Combinator::kAnd:
      return type.is_bool();
    case Combinator::kFirst:
    case Combinator::kLast:
      return !type.is_set();  // any scalar (number, bool, ref)
    case Combinator::kUnion:
      return type.is_set();
  }
  return false;
}

double NumericIdentity(Combinator c) {
  switch (c) {
    case Combinator::kMin:
      return std::numeric_limits<double>::infinity();
    case Combinator::kMax:
      return -std::numeric_limits<double>::infinity();
    default:
      return 0.0;
  }
}

double CombineNumeric(Combinator c, double acc, double value) {
  switch (c) {
    case Combinator::kSum:
    case Combinator::kAvg:
      return acc + value;
    case Combinator::kMin:
      return value < acc ? value : acc;
    case Combinator::kMax:
      return value > acc ? value : acc;
    case Combinator::kCount:
      return acc + 1.0;
    default:
      return value;
  }
}

}  // namespace sgl
