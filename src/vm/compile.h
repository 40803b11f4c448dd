// Lowering from the Expr IR to register bytecode (bytecode.h), plus the
// executor-facing program cache.
//
// Every expression the vectorized path evaluates lowers: script and handler
// plan expressions, update rules over merged effects (number, bool and ref
// rules; set-valued rules run row by row on the scalar evaluator), and set
// reads through `if`. A construct that does not lower — an unhandled
// ExprKind, or a tree so deep it needs more than kMaxRegs registers of one
// type — is a compile error naming the kind, never a silent fallback: the
// cache refuses the whole program and Engine::Create returns the Status.
//
// All compilation happens single-threaded — once in TickExecutor::Init
// (every plan expression reachable from the CompiledProgram) and in
// PrepareSite for the composed per-site pair filters (which only recompose
// on a strategy switch) and each grid's build-time inner filter. Workers
// share the resulting read-only programs; per-run state lives entirely in
// their VmRegisters.

#ifndef SGL_VM_COMPILE_H_
#define SGL_VM_COMPILE_H_

#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/lang/compiler.h"
#include "src/ra/plan.h"
#include "src/vm/bytecode.h"

namespace sgl {

class Telemetry;

/// Register-file bound per type; a tree that needs more is a lowering
/// error. Far above any real expression, and low enough that neither the
/// register files (up to kMaxRegs span-length columns per type and
/// worker) nor the lowering's recursion depth grows without bound.
constexpr uint16_t kMaxRegs = 256;

/// Lowers `e` (whose result kind is `kind`) into a value-mode program.
/// Returns Unsupported, naming the offending ExprKind, when the tree does
/// not lower; `*out` is unspecified then.
Status CompileValue(const Expr& e, TypeKind kind, VmProgram* out);

/// Lowers a boolean predicate into a filter-mode program: the top-level
/// AND-chain becomes fused compare-compact conjuncts, left to right (the
/// scalar evaluator's conjunct order, so survivor sets are identical).
Status CompileFilter(const Expr& e, VmProgram* out);

/// Executor-owned cache of compiled programs, keyed by Expr node address
/// (plan expressions are owned by the CompiledProgram and never move).
/// unordered_map's reference stability keeps the VmProgram addresses valid
/// for the lifetime of the cache.
class VmProgramCache {
 public:
  /// Lowers every plan expression reachable from `prog`: handler
  /// conditions, local defs, effect-write guards/targets/values, accum
  /// guards/bounds/keys/assignments, txn-emit guards and intents, and the
  /// number/bool/ref update rules. Also checks that every accum inner
  /// filter and residual lowers as a filter, so PrepareSite's composed
  /// pair filters and the grid's build-time filter cannot fail later. The
  /// first expression that does not lower fails the whole program.
  Status CompileProgram(const CompiledProgram& prog);

  /// Value-mode program for `e`; null only for expressions outside the
  /// compiled program.
  const VmProgram* Value(const Expr* e) const {
    auto it = values_.find(e);
    return it == values_.end() ? nullptr : &it->second;
  }
  /// Filter-mode program for `e`; null only outside the compiled program.
  const VmProgram* Filter(const Expr* e) const {
    auto it = filters_.find(e);
    return it == filters_.end() ? nullptr : &it->second;
  }

  int programs_compiled() const { return programs_compiled_; }
  int64_t compile_micros() const { return compile_micros_; }

  /// Telemetry sink for vm.compile spans (borrowed, may be null). Set by
  /// the owning executor before CompileProgram.
  void set_telemetry(Telemetry* tel) { telemetry_ = tel; }

 private:
  // Each Add* lowers its expressions unless an earlier one failed; the
  // first failure is kept in status_.
  void AddValue(const Expr* e, TypeKind kind);
  void AddFilter(const Expr* e);
  void AddWrites(const std::vector<EffectWrite>& writes, const Catalog& cat);
  void AddOps(const std::vector<std::unique_ptr<PlanOp>>& ops,
              const Catalog& cat);

  std::unordered_map<const Expr*, VmProgram> values_;
  std::unordered_map<const Expr*, VmProgram> filters_;
  Status status_;
  int programs_compiled_ = 0;
  int64_t compile_micros_ = 0;
  Telemetry* telemetry_ = nullptr;
};

}  // namespace sgl

#endif  // SGL_VM_COMPILE_H_
