// Bytecode execution over column spans.
//
// Programs run over a VecContext span (the same tables, locals and merged
// effects the scalar oracle reads one row at a time) and produce lanes
// bit-identical to it. The mechanics:
//
//   * Registers are per-worker column buffers with high-water reuse
//     (VmRegisters lives in ExecScratch) — steady-state execution performs
//     zero heap allocations.
//   * A selection vector of span positions restricts evaluation to active
//     lanes. Value-mode callers may pass one (e.g. guard survivors); filter
//     programs build and shrink one as kFilter* conjuncts apply, so each
//     conjunct after the first touches only surviving lanes.
//   * Uniform tracking: with `uniform_outer` set (join chunks where every
//     lane shares one outer row), outer-side loads produce a scalar, and
//     arithmetic over uniform operands stays scalar. A filter comparing a
//     gathered inner column against a uniform bound is a single fused
//     compare-compact pass. Lanes are materialized lazily only when a
//     kernel mixes uniform and per-lane operands.
//
// FP parity with the oracle holds because every kernel is elementwise over
// the same lanes with the same guarded semantics (src/ra/numeric.h),
// selection restriction only removes lanes whose values are never consumed,
// and uniform evaluation computes the identical expression once instead of
// n times.

#ifndef SGL_VM_VM_H_
#define SGL_VM_VM_H_

#include <vector>

#include "src/ra/eval.h"
#include "src/vm/bytecode.h"

namespace sgl {

/// Per-worker register files. Column storage keeps its high-water capacity
/// across programs and ticks; sizing for a program is amortized resizes
/// only. Not thread-safe — one per ExecScratch.
struct VmRegisters {
  std::vector<std::vector<double>> num;
  std::vector<std::vector<uint8_t>> bools;
  std::vector<std::vector<EntityId>> refs;
  // Per-run pointer tables and uniform bookkeeping (see vm.cc).
  std::vector<double*> num_ptr;
  std::vector<uint8_t*> bool_ptr;
  std::vector<EntityId*> ref_ptr;
  std::vector<uint8_t> num_uni, bool_uni, ref_uni;
  std::vector<double> num_val;
  std::vector<uint8_t> bool_val;
  std::vector<EntityId> ref_val;
  /// Longest span this register file has ever run. Columns are sized to the
  /// high-water span, not the current one: the same file serves programs on
  /// different spans (full extents, growing survivor selections), and sizing
  /// each column only to the spans *it* happens to see would keep paying
  /// amortized growth long after the worker's widest span stabilized.
  size_t span_high = 0;
};

// Value-mode execution: evaluates `p` over ctx's span and leaves the result
// in `out` (resized to the span length). When `sel` is non-null, only the
// `cnt` listed span positions are computed — other lanes of `out` are
// unspecified. `p.result_kind` must match the overload.
void VmEvalNum(const VmProgram& p, const VecContext& ctx, VmRegisters* regs,
               const RowIdx* sel, size_t cnt, std::vector<double>* out);
void VmEvalBool(const VmProgram& p, const VecContext& ctx, VmRegisters* regs,
                const RowIdx* sel, size_t cnt, std::vector<uint8_t>* out);
void VmEvalRef(const VmProgram& p, const VecContext& ctx, VmRegisters* regs,
               const RowIdx* sel, size_t cnt, std::vector<EntityId>* out);

/// Filter-mode execution: runs `p`'s fused conjunct chain over ctx's span
/// and fills `sel` with the surviving span positions, ascending. Returns
/// the survivor count (sel's leading entries; its size is amortized, not
/// trimmed). With `uniform_outer` set the caller asserts every lane shares
/// outer row (*ctx.outer_rows)[0]; outer-side loads then read only that
/// element (the rest of the outer-row vector may be garbage) and evaluate
/// once instead of per lane.
size_t VmRunFilter(const VmProgram& p, const VecContext& ctx,
                   VmRegisters* regs, bool uniform_outer,
                   std::vector<RowIdx>* sel);

}  // namespace sgl

#endif  // SGL_VM_VM_H_
