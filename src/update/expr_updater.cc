#include "src/update/expr_updater.h"

#include "src/ra/eval.h"

namespace sgl {

ExprUpdater::ExprUpdater(const CompiledProgram* program,
                         const VmProgramCache* vm)
    : program_(program), vm_(vm) {}

std::vector<std::pair<ClassId, FieldIdx>> ExprUpdater::OwnedFields() const {
  std::vector<std::pair<ClassId, FieldIdx>> out;
  for (const UpdateRule& r : program_->update_rules) {
    out.emplace_back(r.cls, r.state_field);
  }
  return out;
}

void ExprUpdater::Update(World* world, Tick tick) {
  (void)tick;
  // Group rules per class so each class gets one consistent snapshot pass.
  for (ClassId c = 0; c < world->catalog().num_classes(); ++c) {
    EntityTable& table = world->table(c);
    if (table.empty()) continue;
    all_rows_.resize(table.size());
    for (size_t i = 0; i < table.size(); ++i) {
      all_rows_[i] = static_cast<RowIdx>(i);
    }
    VecContext ctx;
    ctx.world = world;
    ctx.outer = &table;
    ctx.outer_rows = &all_rows_;
    ctx.effects = &world->effects(c);
    ScalarContext sc;
    sc.world = world;
    sc.outer_cls = c;
    sc.effects = ctx.effects;

    class_rules_.clear();
    for (const UpdateRule& r : program_->update_rules) {
      if (r.cls == c) class_rules_.push_back(&r);
    }
    if (class_rules_.empty()) continue;
    if (bufs_.size() < class_rules_.size()) {
      bufs_.resize(class_rules_.size());
    }

    // Compute all new values against the pre-update snapshot...
    for (size_t ri = 0; ri < class_rules_.size(); ++ri) {
      const UpdateRule& r = *class_rules_[ri];
      RuleBufs& p = bufs_[ri];
      const SglType& type =
          world->catalog().Get(c).state_field(r.state_field).type;
      const VmProgram* vm = nullptr;
      if (vm_ != nullptr && !type.is_set()) {
        vm = vm_->Value(r.value.get());
        SGL_CHECK(vm != nullptr && "update rule missing from the cache");
      }
      // The scalar oracle's form: one EvalScalar* call per row.
      auto per_row = [&](auto* out, auto eval_row) {
        out->resize(all_rows_.size());
        for (size_t i = 0; i < all_rows_.size(); ++i) {
          sc.outer_row = all_rows_[i];
          (*out)[i] = eval_row();
        }
      };
      if (type.is_number()) {
        if (vm != nullptr) {
          VmEvalNum(*vm, ctx, &regs_, nullptr, 0, &p.nums);
        } else {
          per_row(&p.nums, [&] { return EvalScalarNum(*r.value, sc); });
        }
      } else if (type.is_bool()) {
        if (vm != nullptr) {
          VmEvalBool(*vm, ctx, &regs_, nullptr, 0, &p.bools);
        } else {
          per_row(&p.bools, [&]() -> uint8_t {
            return EvalScalarBool(*r.value, sc) ? 1 : 0;
          });
        }
      } else if (type.is_ref()) {
        if (vm != nullptr) {
          VmEvalRef(*vm, ctx, &regs_, nullptr, 0, &p.refs);
        } else {
          per_row(&p.refs, [&] { return EvalScalarRef(*r.value, sc); });
        }
      } else {
        // Set rules evaluate row-at-a-time into one flat CSR snapshot (the
        // evaluated sets alias table or effect storage, so they must be
        // staged before any write-back).
        p.set_elems.clear();
        p.set_offsets.clear();
        p.set_offsets.reserve(all_rows_.size() + 1);
        p.set_offsets.push_back(0);
        for (RowIdx row : all_rows_) {
          sc.outer_row = row;
          const EntitySet& v = EvalScalarSet(*r.value, sc);
          p.set_elems.insert(p.set_elems.end(), v.begin(), v.end());
          p.set_offsets.push_back(static_cast<uint32_t>(p.set_elems.size()));
        }
      }
    }
    // ... then commit them.
    for (size_t ri = 0; ri < class_rules_.size(); ++ri) {
      const UpdateRule& r = *class_rules_[ri];
      RuleBufs& p = bufs_[ri];
      const SglType& type =
          world->catalog().Get(c).state_field(r.state_field).type;
      if (type.is_number()) {
        NumberColumn col = table.Num(r.state_field);
        for (size_t i = 0; i < all_rows_.size(); ++i) {
          col.at(all_rows_[i]) = p.nums[i];
        }
      } else if (type.is_bool()) {
        uint8_t* col = table.BoolCol(r.state_field);
        for (size_t i = 0; i < all_rows_.size(); ++i) {
          col[all_rows_[i]] = p.bools[i];
        }
      } else if (type.is_ref()) {
        EntityId* col = table.RefCol(r.state_field);
        for (size_t i = 0; i < all_rows_.size(); ++i) {
          col[all_rows_[i]] = p.refs[i];
        }
      } else {
        EntitySet* col = table.SetCol(r.state_field);
        for (size_t i = 0; i < all_rows_.size(); ++i) {
          // Slices are sorted-unique (they came from EntitySets); assigning
          // reuses the destination row's buffer when it fits.
          col[all_rows_[i]].AssignSorted(
              p.set_elems.data() + p.set_offsets[i],
              p.set_offsets[i + 1] - p.set_offsets[i]);
        }
      }
    }
  }
}

}  // namespace sgl
