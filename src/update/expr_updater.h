// The default update component: evaluates the class-declared update rules
// (`health = health - damage;`, §2.2). All rules of a class read the same
// pre-update state snapshot: new values are computed into buffers first and
// written back after, so rule order never matters.
//
// Number, bool and ref rules run set-at-a-time on their compiled bytecode
// programs (src/vm/); set-valued rules, and every rule under the scalar
// oracle (no program cache), run row by row on the scalar evaluator.

#ifndef SGL_UPDATE_EXPR_UPDATER_H_
#define SGL_UPDATE_EXPR_UPDATER_H_

#include <string>
#include <vector>

#include "src/lang/compiler.h"
#include "src/ra/eval.h"
#include "src/update/update_component.h"
#include "src/vm/compile.h"
#include "src/vm/vm.h"

namespace sgl {

/// Applies UpdateRules; owns exactly the fields the rules target.
class ExprUpdater : public UpdateComponent {
 public:
  /// Borrows the rules from `program` and their compiled programs from
  /// `vm` (both must outlive this component). A null `vm` evaluates every
  /// rule row by row with the scalar evaluator (the interpreted oracle).
  ExprUpdater(const CompiledProgram* program, const VmProgramCache* vm);

  const std::string& name() const override { return name_; }
  std::vector<std::pair<ClassId, FieldIdx>> OwnedFields() const override;
  void Update(World* world, Tick tick) override;

 private:
  /// Snapshot buffers for one rule's new values (only the storage matching
  /// the rule's type is used). Reused across rules, classes, and ticks.
  /// Set rules stage into one flat CSR buffer (set_elems sliced by
  /// set_offsets, one slice per row) instead of per-row EntitySet copies;
  /// commit copy-assigns each slice into the row's existing set buffer.
  struct RuleBufs {
    std::vector<double> nums;
    std::vector<uint8_t> bools;
    std::vector<EntityId> refs;
    std::vector<EntityId> set_elems;
    std::vector<uint32_t> set_offsets;  ///< size rows + 1
  };

  std::string name_ = "expr-updater";
  const CompiledProgram* program_;
  const VmProgramCache* vm_;
  // Steady-state scratch (high-water reuse).
  std::vector<RowIdx> all_rows_;
  std::vector<const UpdateRule*> class_rules_;
  std::vector<RuleBufs> bufs_;
  VmRegisters regs_;
};

}  // namespace sgl

#endif  // SGL_UPDATE_EXPR_UPDATER_H_
