#include "src/schema/type.h"

namespace sgl {

std::string SglType::ToString() const {
  switch (kind) {
    case TypeKind::kNumber: return "number";
    case TypeKind::kBool: return "bool";
    case TypeKind::kRef: return "ref<" + target_name + ">";
    case TypeKind::kSet: return "set<" + target_name + ">";
  }
  return "?";
}

Value SglType::DefaultValue() const {
  switch (kind) {
    case TypeKind::kNumber: return Value::Number(0.0);
    case TypeKind::kBool: return Value::Bool(false);
    case TypeKind::kRef: return Value::Ref(kNullEntity);
    case TypeKind::kSet: return Value::Set(EntitySet());
  }
  return Value::Number(0.0);
}

}  // namespace sgl
