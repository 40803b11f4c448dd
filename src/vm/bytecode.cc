#include "src/vm/bytecode.h"

#include <sstream>

namespace sgl {

const char* VmOpName(VmOp op) {
  switch (op) {
    case VmOp::kConstNum: return "const.num";
    case VmOp::kConstBool: return "const.bool";
    case VmOp::kConstRef: return "const.ref";
    case VmOp::kLoadStateNum: return "load.state.num";
    case VmOp::kLoadStateBool: return "load.state.bool";
    case VmOp::kLoadStateRef: return "load.state.ref";
    case VmOp::kLoadLocalNum: return "load.local.num";
    case VmOp::kLoadLocalBool: return "load.local.bool";
    case VmOp::kLoadLocalRef: return "load.local.ref";
    case VmOp::kLoadRowId: return "load.rowid";
    case VmOp::kGatherNum: return "gather.num";
    case VmOp::kGatherBool: return "gather.bool";
    case VmOp::kGatherRef: return "gather.ref";
    case VmOp::kLoadEffectNum: return "load.effect.num";
    case VmOp::kLoadEffectBool: return "load.effect.bool";
    case VmOp::kLoadEffectRef: return "load.effect.ref";
    case VmOp::kLoadAssigned: return "load.assigned";
    case VmOp::kAdd: return "add";
    case VmOp::kSub: return "sub";
    case VmOp::kMul: return "mul";
    case VmOp::kDiv: return "div";
    case VmOp::kMod: return "mod";
    case VmOp::kMin: return "min";
    case VmOp::kMax: return "max";
    case VmOp::kPow: return "pow";
    case VmOp::kNeg: return "neg";
    case VmOp::kAbs: return "abs";
    case VmOp::kSqrt: return "sqrt";
    case VmOp::kFloor: return "floor";
    case VmOp::kCeil: return "ceil";
    case VmOp::kClampOp: return "clamp";
    case VmOp::kCmpLt: return "cmp.lt";
    case VmOp::kCmpLe: return "cmp.le";
    case VmOp::kCmpGt: return "cmp.gt";
    case VmOp::kCmpGe: return "cmp.ge";
    case VmOp::kCmpEq: return "cmp.eq";
    case VmOp::kCmpNe: return "cmp.ne";
    case VmOp::kCmpRefEq: return "cmp.ref.eq";
    case VmOp::kCmpRefNe: return "cmp.ref.ne";
    case VmOp::kCmpBoolEq: return "cmp.bool.eq";
    case VmOp::kCmpBoolNe: return "cmp.bool.ne";
    case VmOp::kAnd: return "and";
    case VmOp::kOr: return "or";
    case VmOp::kNot: return "not";
    case VmOp::kSelectNum: return "select.num";
    case VmOp::kSelectBool: return "select.bool";
    case VmOp::kSelectRef: return "select.ref";
    case VmOp::kSetSizeState: return "set.size.state";
    case VmOp::kSetSizeRef: return "set.size.ref";
    case VmOp::kSetContainsState: return "set.contains.state";
    case VmOp::kSetContainsRef: return "set.contains.ref";
    case VmOp::kSetSizeEffect: return "set.size.effect";
    case VmOp::kSetContainsEffect: return "set.contains.effect";
    case VmOp::kFilterBool: return "filter.bool";
    case VmOp::kFilterLt: return "filter.lt";
    case VmOp::kFilterLe: return "filter.le";
    case VmOp::kFilterGt: return "filter.gt";
    case VmOp::kFilterGe: return "filter.ge";
    case VmOp::kFilterEq: return "filter.eq";
    case VmOp::kFilterNe: return "filter.ne";
  }
  return "?";
}

std::string VmProgram::Disassemble() const {
  std::ostringstream os;
  os << (filter_mode ? "filter" : "value") << " program: " << code.size()
     << " instrs, regs n" << num_regs << "/b" << bool_regs << "/r"
     << ref_regs;
  if (!filter_mode) os << ", result r" << result;
  os << "\n";
  for (size_t pc = 0; pc < code.size(); ++pc) {
    const VmInstr& in = code[pc];
    os << "  " << pc << ": " << VmOpName(in.op) << " dst=" << in.dst
       << " a=" << in.a << " b=" << in.b << " c=" << in.c
       << " side=" << static_cast<int>(in.side) << " field=" << in.field;
    if (in.op == VmOp::kConstNum) {
      os << " (" << const_pool[in.field] << ")";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace sgl
