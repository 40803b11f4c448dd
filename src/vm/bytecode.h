// The register bytecode the tick compiles to ("compile the tick", ROADMAP).
//
// Expr trees are lowered once per prepared site / plan expression into a
// flat, contiguous instruction array over *column registers*: each register
// names a span-length column of doubles, bools (uint8), or entity refs.
// One instruction performs one elementwise kernel over the whole active
// span, so execution is a loop over instructions of loops over lanes —
// no per-row tree recursion, no per-node virtual dispatch, and every lane
// loop is a plain contiguous loop the autovectorizer can chew.
//
// Two program shapes:
//   * value mode  — computes `result` (a register of the program's result
//     type) over every active lane; used for projections, effect values,
//     accum assignments, bounds, and keys.
//   * filter mode — the program carries kFilter* instructions that compact
//     the active-lane selection in place (Vectorwise-style selection
//     vectors). A filter program is an AND-chain of conjuncts; after each
//     conjunct only surviving lanes are evaluated by later instructions,
//     instead of every conjunct over the full span.
//
// Column operands are resolved at compile time: state reads carry their
// FieldIdx and side, locals their slot, constants their pool index. At run
// time an instruction therefore touches only raw column pointers.
//
// See README.md in this directory for the full ISA table and fusion rules.

#ifndef SGL_VM_BYTECODE_H_
#define SGL_VM_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/schema/type.h"

namespace sgl {

enum class VmOp : uint8_t {
  // --- Loads (dst <- source, per active lane) --------------------------
  kConstNum,       ///< dst = const_pool[field] (uniform)
  kConstBool,      ///< dst = field != 0 (uniform)
  kConstRef,       ///< dst = null entity (uniform)
  kLoadStateNum,   ///< dst = side.num_col(field)[row]
  kLoadStateBool,  ///< dst = side.bool_col(field)[row]
  kLoadStateRef,   ///< dst = side.ref_col(field)[row]
  kLoadLocalNum,   ///< dst = locals.num[field][outer_row]
  kLoadLocalBool,  ///< dst = locals.bool[field][outer_row]
  kLoadLocalRef,   ///< dst = locals.ref[field][outer_row]
  kLoadRowId,      ///< dst = side.id_at(row)
  kGatherNum,      ///< dst = world[find(ref[a])].num(field); 0 if null
  kGatherBool,     ///< dst = world[find(ref[a])].bool(field); false if null
  kGatherRef,      ///< dst = world[find(ref[a])].ref(field); null if null
  // Merged-effect reads (update phase; outer rows of ctx.effects' class).
  // An unassigned row reads 0 / false / null.
  kLoadEffectNum,   ///< dst = effects.final_num(field)[outer_row]
  kLoadEffectBool,  ///< dst = effects.final_bool(field)[outer_row]
  kLoadEffectRef,   ///< dst = effects.final_ref(field)[outer_row]
  kLoadAssigned,    ///< bool dst = effects.assigned(field)[outer_row]

  // --- Numeric kernels (guarded semantics from src/ra/numeric.h) -------
  kAdd, kSub, kMul, kDiv, kMod, kMin, kMax, kPow,  ///< dst = a (op) b
  kNeg, kAbs, kSqrt, kFloor, kCeil,                ///< dst = (op) a
  kClampOp,                                        ///< dst = clamp(a, b, c)

  // --- Comparisons / logic (bool dst) ----------------------------------
  kCmpLt, kCmpLe, kCmpGt, kCmpGe, kCmpEq, kCmpNe,  ///< num a, num b
  kCmpRefEq, kCmpRefNe,                            ///< ref a, ref b
  kCmpBoolEq, kCmpBoolNe,                          ///< bool a, bool b
  kAnd, kOr,                                       ///< dst = a & b / a | b
  kNot,                                            ///< dst = !a

  // --- Branchless selects (a = bool cond, b = then, c = else) ----------
  kSelectNum, kSelectBool, kSelectRef,

  // --- Set reads --------------------------------------------------------
  kSetSizeState,      ///< num dst = |side.set_col(field)[row]|
  kSetSizeRef,        ///< num dst = |set(field) of find(ref[a])|; 0 if null
  kSetContainsState,  ///< bool dst = side.set_col(field)[row].contains(ref[a])
  kSetContainsRef,    ///< bool dst = set(field) of find(ref[b]) ∋ ref[a];
                      ///< a null owner reads as the empty set
  kSetSizeEffect,      ///< num dst = |effects.final_set(field)[outer_row]|
  kSetContainsEffect,  ///< bool dst = effects.final_set(field)[outer_row]
                       ///<            ∋ ref[a]; unassigned = empty set

  // --- Filter mode: compact the active-lane selection -------------------
  kFilterBool,                                            ///< keep bool[a]
  kFilterLt, kFilterLe, kFilterGt, kFilterGe, kFilterEq,  ///< keep cmp(num a,
  kFilterNe,                                              ///<          num b)
};

const char* VmOpName(VmOp op);

/// One 16-byte instruction. Register operands index the per-type register
/// files; `field` doubles as FieldIdx (loads), local slot, or constant-pool
/// index depending on the opcode.
struct VmInstr {
  VmOp op = VmOp::kConstNum;
  uint8_t side = 0;      ///< loads: 0 = outer tuple, 1 = inner tuple
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
  uint32_t field = 0;
};
static_assert(sizeof(VmInstr) <= 16, "instructions should stay compact");

/// A compiled expression (value mode) or predicate AND-chain (filter mode).
struct VmProgram {
  std::vector<VmInstr> code;
  std::vector<double> const_pool;
  uint16_t num_regs = 0;   ///< double register-file size
  uint16_t bool_regs = 0;  ///< uint8 register-file size
  uint16_t ref_regs = 0;   ///< EntityId register-file size
  uint16_t result = 0;     ///< value mode: register holding the result
  TypeKind result_kind = TypeKind::kNumber;
  bool filter_mode = false;

  /// Readable listing (tests, EXPLAIN-style debugging).
  std::string Disassemble() const;
};

}  // namespace sgl

#endif  // SGL_VM_BYTECODE_H_
