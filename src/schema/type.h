// SGL's type system: number, bool, ref<C>, set<C> (§2.1).
//
// Reference and set types name a target class; the name is resolved to a
// ClassId when the catalog is finalized (classes may be declared in any
// order, including mutual references).

#ifndef SGL_SCHEMA_TYPE_H_
#define SGL_SCHEMA_TYPE_H_

#include <string>

#include "src/common/types.h"
#include "src/common/value.h"

namespace sgl {

/// The four SGL value categories.
enum class TypeKind : uint8_t { kNumber, kBool, kRef, kSet };

/// A (possibly parameterized) SGL type. For kRef/kSet, `target_name` holds
/// the referenced class's name and `target` its resolved id (kInvalidClass
/// until Catalog::Finalize runs).
struct SglType {
  TypeKind kind = TypeKind::kNumber;
  std::string target_name;          ///< Class name for ref<>/set<>.
  ClassId target = kInvalidClass;   ///< Resolved by Catalog::Finalize.

  static SglType Number() { return {TypeKind::kNumber, "", kInvalidClass}; }
  static SglType Bool() { return {TypeKind::kBool, "", kInvalidClass}; }
  static SglType Ref(std::string cls) {
    return {TypeKind::kRef, std::move(cls), kInvalidClass};
  }
  static SglType Set(std::string cls) {
    return {TypeKind::kSet, std::move(cls), kInvalidClass};
  }

  bool is_number() const { return kind == TypeKind::kNumber; }
  bool is_bool() const { return kind == TypeKind::kBool; }
  bool is_ref() const { return kind == TypeKind::kRef; }
  bool is_set() const { return kind == TypeKind::kSet; }

  /// True if two types are interchangeable (same kind; same target for
  /// ref/set, compared by name before resolution).
  bool Same(const SglType& other) const {
    if (kind != other.kind) return false;
    if (kind == TypeKind::kRef || kind == TypeKind::kSet) {
      return target_name == other.target_name;
    }
    return true;
  }

  /// "number", "ref<Unit>", ...
  std::string ToString() const;

  /// The zero/default Value of this type (0, false, null, {}).
  Value DefaultValue() const;
};

}  // namespace sgl

#endif  // SGL_SCHEMA_TYPE_H_
