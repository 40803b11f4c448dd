#include "src/vm/compile.h"

#include <cmath>
#include <string>

#include "src/common/stopwatch.h"
#include "src/telemetry/telemetry.h"

namespace sgl {
namespace {

/// Single-expression lowering with free-list register allocation. Operand
/// registers are freed before the destination is allocated, so elementwise
/// ops run in place and a left-associated chain uses O(1) registers. The
/// first construct that does not lower records an error status; later
/// emission is skipped.
class ExprCompiler {
 public:
  explicit ExprCompiler(VmProgram* out) : p_(out) {}

  const Status& status() const { return status_; }

  uint16_t EmitNum(const Expr& e);
  uint16_t EmitBool(const Expr& e);
  uint16_t EmitRef(const Expr& e);
  void EmitFilterChain(const Expr& e);

  void Finish(TypeKind kind, uint16_t result, bool filter_mode) {
    p_->num_regs = next_num_;
    p_->bool_regs = next_bool_;
    p_->ref_regs = next_ref_;
    p_->result = result;
    p_->result_kind = kind;
    p_->filter_mode = filter_mode;
  }

 private:
  /// |set| into a fresh num register. `set` is a set-valued operand.
  uint16_t EmitSetSize(const Expr& set);
  /// set ∋ ref[probe] into a fresh bool register; `probe` stays live.
  uint16_t EmitSetContains(const Expr& set, uint16_t probe);

  bool ok() const { return status_.ok(); }

  uint16_t Alloc(const Expr& e, std::vector<uint16_t>* free_list,
                 uint16_t* next) {
    if (!free_list->empty()) {
      uint16_t r = free_list->back();
      free_list->pop_back();
      return r;
    }
    if (*next >= kMaxRegs) {
      Fail(e, "needs more than kMaxRegs (256) registers of one type");
      return 0;
    }
    return (*next)++;
  }
  uint16_t AllocNum(const Expr& e) { return Alloc(e, &free_num_, &next_num_); }
  uint16_t AllocBool(const Expr& e) {
    return Alloc(e, &free_bool_, &next_bool_);
  }
  uint16_t AllocRef(const Expr& e) { return Alloc(e, &free_ref_, &next_ref_); }
  void FreeNum(uint16_t r) { free_num_.push_back(r); }
  void FreeBool(uint16_t r) { free_bool_.push_back(r); }
  void FreeRef(uint16_t r) { free_ref_.push_back(r); }

  uint32_t ConstIdx(double v) {
    for (size_t i = 0; i < p_->const_pool.size(); ++i) {
      if (p_->const_pool[i] == v && std::signbit(p_->const_pool[i]) ==
                                        std::signbit(v)) {
        return static_cast<uint32_t>(i);
      }
    }
    p_->const_pool.push_back(v);
    return static_cast<uint32_t>(p_->const_pool.size() - 1);
  }

  void Push(VmOp op, uint16_t dst, uint16_t a = 0, uint16_t b = 0,
            uint16_t c = 0, uint8_t side = 0, uint32_t field = 0) {
    VmInstr in;
    in.op = op;
    in.side = side;
    in.dst = dst;
    in.a = a;
    in.b = b;
    in.c = c;
    in.field = field;
    p_->code.push_back(in);
  }

  void Fail(const Expr& e, const char* why) {
    if (!ok()) return;  // keep the first error
    status_ = Status::Unsupported(std::string("cannot lower ") +
                                  ExprKindName(e.kind) +
                                  " expression to bytecode: " + why);
  }

  VmProgram* p_;
  Status status_;
  uint16_t next_num_ = 0, next_bool_ = 0, next_ref_ = 0;
  std::vector<uint16_t> free_num_, free_bool_, free_ref_;
};

VmOp ArithOpc(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return VmOp::kAdd;
    case ArithOp::kSub: return VmOp::kSub;
    case ArithOp::kMul: return VmOp::kMul;
    case ArithOp::kDiv: return VmOp::kDiv;
    case ArithOp::kMod: return VmOp::kMod;
    case ArithOp::kMin: return VmOp::kMin;
    case ArithOp::kMax: return VmOp::kMax;
    case ArithOp::kPow: return VmOp::kPow;
  }
  return VmOp::kAdd;
}

VmOp Call1Opc(Call1Op op) {
  switch (op) {
    case Call1Op::kAbs: return VmOp::kAbs;
    case Call1Op::kSqrt: return VmOp::kSqrt;
    case Call1Op::kFloor: return VmOp::kFloor;
    case Call1Op::kCeil: return VmOp::kCeil;
  }
  return VmOp::kAbs;
}

VmOp CmpOpc(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return VmOp::kCmpLt;
    case CmpOp::kLe: return VmOp::kCmpLe;
    case CmpOp::kGt: return VmOp::kCmpGt;
    case CmpOp::kGe: return VmOp::kCmpGe;
    case CmpOp::kEq: return VmOp::kCmpEq;
    case CmpOp::kNe: return VmOp::kCmpNe;
  }
  return VmOp::kCmpLt;
}

VmOp FilterOpc(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return VmOp::kFilterLt;
    case CmpOp::kLe: return VmOp::kFilterLe;
    case CmpOp::kGt: return VmOp::kFilterGt;
    case CmpOp::kGe: return VmOp::kFilterGe;
    case CmpOp::kEq: return VmOp::kFilterEq;
    case CmpOp::kNe: return VmOp::kFilterNe;
  }
  return VmOp::kFilterLt;
}

uint16_t ExprCompiler::EmitNum(const Expr& e) {
  if (!ok()) return 0;
  switch (e.kind) {
    case ExprKind::kNumLit: {
      uint16_t r = AllocNum(e);
      Push(VmOp::kConstNum, r, 0, 0, 0, 0, ConstIdx(e.num));
      return r;
    }
    case ExprKind::kStateRead: {
      uint16_t r = AllocNum(e);
      Push(VmOp::kLoadStateNum, r, 0, 0, 0, e.side,
           static_cast<uint32_t>(e.field));
      return r;
    }
    case ExprKind::kEffectRead: {
      uint16_t r = AllocNum(e);
      Push(VmOp::kLoadEffectNum, r, 0, 0, 0, 0,
           static_cast<uint32_t>(e.field));
      return r;
    }
    case ExprKind::kLocal: {
      uint16_t r = AllocNum(e);
      Push(VmOp::kLoadLocalNum, r, 0, 0, 0, 0,
           static_cast<uint32_t>(e.slot));
      return r;
    }
    case ExprKind::kRefState: {
      uint16_t a = EmitRef(*e.kids[0]);
      FreeRef(a);
      uint16_t r = AllocNum(e);
      Push(VmOp::kGatherNum, r, a, 0, 0, 0, static_cast<uint32_t>(e.field));
      return r;
    }
    case ExprKind::kUnaryMinus: {
      uint16_t a = EmitNum(*e.kids[0]);
      FreeNum(a);
      uint16_t r = AllocNum(e);
      Push(VmOp::kNeg, r, a);
      return r;
    }
    case ExprKind::kArith: {
      uint16_t a = EmitNum(*e.kids[0]);
      uint16_t b = EmitNum(*e.kids[1]);
      FreeNum(a);
      FreeNum(b);
      uint16_t r = AllocNum(e);
      Push(ArithOpc(e.arith), r, a, b);
      return r;
    }
    case ExprKind::kCall1: {
      uint16_t a = EmitNum(*e.kids[0]);
      FreeNum(a);
      uint16_t r = AllocNum(e);
      Push(Call1Opc(e.call1), r, a);
      return r;
    }
    case ExprKind::kIf: {
      uint16_t c = EmitBool(*e.kids[0]);
      uint16_t t = EmitNum(*e.kids[1]);
      uint16_t f = EmitNum(*e.kids[2]);
      FreeBool(c);
      FreeNum(t);
      FreeNum(f);
      uint16_t r = AllocNum(e);
      Push(VmOp::kSelectNum, r, c, t, f);
      return r;
    }
    case ExprKind::kClamp: {
      uint16_t v = EmitNum(*e.kids[0]);
      uint16_t lo = EmitNum(*e.kids[1]);
      uint16_t hi = EmitNum(*e.kids[2]);
      FreeNum(v);
      FreeNum(lo);
      FreeNum(hi);
      uint16_t r = AllocNum(e);
      Push(VmOp::kClampOp, r, v, lo, hi);
      return r;
    }
    case ExprKind::kSetSize:
      return EmitSetSize(*e.kids[0]);
    default:
      Fail(e, "not a number-valued expression");
      return 0;
  }
}

uint16_t ExprCompiler::EmitBool(const Expr& e) {
  if (!ok()) return 0;
  switch (e.kind) {
    case ExprKind::kBoolLit: {
      uint16_t r = AllocBool(e);
      Push(VmOp::kConstBool, r, 0, 0, 0, 0, e.b ? 1u : 0u);
      return r;
    }
    case ExprKind::kStateRead: {
      uint16_t r = AllocBool(e);
      Push(VmOp::kLoadStateBool, r, 0, 0, 0, e.side,
           static_cast<uint32_t>(e.field));
      return r;
    }
    case ExprKind::kEffectRead: {
      uint16_t r = AllocBool(e);
      Push(VmOp::kLoadEffectBool, r, 0, 0, 0, 0,
           static_cast<uint32_t>(e.field));
      return r;
    }
    case ExprKind::kAssigned: {
      uint16_t r = AllocBool(e);
      Push(VmOp::kLoadAssigned, r, 0, 0, 0, 0,
           static_cast<uint32_t>(e.field));
      return r;
    }
    case ExprKind::kLocal: {
      uint16_t r = AllocBool(e);
      Push(VmOp::kLoadLocalBool, r, 0, 0, 0, 0,
           static_cast<uint32_t>(e.slot));
      return r;
    }
    case ExprKind::kRefState: {
      uint16_t a = EmitRef(*e.kids[0]);
      FreeRef(a);
      uint16_t r = AllocBool(e);
      Push(VmOp::kGatherBool, r, a, 0, 0, 0,
           static_cast<uint32_t>(e.field));
      return r;
    }
    case ExprKind::kNot: {
      uint16_t a = EmitBool(*e.kids[0]);
      FreeBool(a);
      uint16_t r = AllocBool(e);
      Push(VmOp::kNot, r, a);
      return r;
    }
    case ExprKind::kCmpNum: {
      uint16_t a = EmitNum(*e.kids[0]);
      uint16_t b = EmitNum(*e.kids[1]);
      FreeNum(a);
      FreeNum(b);
      uint16_t r = AllocBool(e);
      Push(CmpOpc(e.cmp), r, a, b);
      return r;
    }
    case ExprKind::kCmpRef: {
      uint16_t a = EmitRef(*e.kids[0]);
      uint16_t b = EmitRef(*e.kids[1]);
      FreeRef(a);
      FreeRef(b);
      uint16_t r = AllocBool(e);
      Push(e.cmp == CmpOp::kEq ? VmOp::kCmpRefEq : VmOp::kCmpRefNe, r, a, b);
      return r;
    }
    case ExprKind::kCmpBool: {
      uint16_t a = EmitBool(*e.kids[0]);
      uint16_t b = EmitBool(*e.kids[1]);
      FreeBool(a);
      FreeBool(b);
      uint16_t r = AllocBool(e);
      Push(e.cmp == CmpOp::kEq ? VmOp::kCmpBoolEq : VmOp::kCmpBoolNe, r, a,
           b);
      return r;
    }
    case ExprKind::kAndB:
    case ExprKind::kOrB: {
      uint16_t a = EmitBool(*e.kids[0]);
      uint16_t b = EmitBool(*e.kids[1]);
      FreeBool(a);
      FreeBool(b);
      uint16_t r = AllocBool(e);
      Push(e.kind == ExprKind::kAndB ? VmOp::kAnd : VmOp::kOr, r, a, b);
      return r;
    }
    case ExprKind::kIf: {
      uint16_t c = EmitBool(*e.kids[0]);
      uint16_t t = EmitBool(*e.kids[1]);
      uint16_t f = EmitBool(*e.kids[2]);
      FreeBool(c);
      FreeBool(t);
      FreeBool(f);
      uint16_t r = AllocBool(e);
      Push(VmOp::kSelectBool, r, c, t, f);
      return r;
    }
    case ExprKind::kSetContains: {
      uint16_t probe = EmitRef(*e.kids[1]);
      uint16_t r = EmitSetContains(*e.kids[0], probe);
      FreeRef(probe);
      return r;
    }
    default:
      Fail(e, "not a bool-valued expression");
      return 0;
  }
}

uint16_t ExprCompiler::EmitRef(const Expr& e) {
  if (!ok()) return 0;
  switch (e.kind) {
    case ExprKind::kNullRef: {
      uint16_t r = AllocRef(e);
      Push(VmOp::kConstRef, r);
      return r;
    }
    case ExprKind::kStateRead: {
      uint16_t r = AllocRef(e);
      Push(VmOp::kLoadStateRef, r, 0, 0, 0, e.side,
           static_cast<uint32_t>(e.field));
      return r;
    }
    case ExprKind::kEffectRead: {
      uint16_t r = AllocRef(e);
      Push(VmOp::kLoadEffectRef, r, 0, 0, 0, 0,
           static_cast<uint32_t>(e.field));
      return r;
    }
    case ExprKind::kLocal: {
      uint16_t r = AllocRef(e);
      Push(VmOp::kLoadLocalRef, r, 0, 0, 0, 0,
           static_cast<uint32_t>(e.slot));
      return r;
    }
    case ExprKind::kRowId: {
      uint16_t r = AllocRef(e);
      Push(VmOp::kLoadRowId, r, 0, 0, 0, e.side);
      return r;
    }
    case ExprKind::kRefState: {
      uint16_t a = EmitRef(*e.kids[0]);
      FreeRef(a);
      uint16_t r = AllocRef(e);
      Push(VmOp::kGatherRef, r, a, 0, 0, 0, static_cast<uint32_t>(e.field));
      return r;
    }
    case ExprKind::kIf: {
      uint16_t c = EmitBool(*e.kids[0]);
      uint16_t t = EmitRef(*e.kids[1]);
      uint16_t f = EmitRef(*e.kids[2]);
      FreeBool(c);
      FreeRef(t);
      FreeRef(f);
      uint16_t r = AllocRef(e);
      Push(VmOp::kSelectRef, r, c, t, f);
      return r;
    }
    default:
      Fail(e, "not a ref-valued expression");
      return 0;
  }
}

// Set operands never materialize as columns: each read is fused with the
// size/contains that consumes it, and a set-valued `if` becomes a select
// over the two arms' sizes / memberships.
uint16_t ExprCompiler::EmitSetSize(const Expr& set) {
  if (!ok()) return 0;
  switch (set.kind) {
    case ExprKind::kStateRead: {
      uint16_t r = AllocNum(set);
      Push(VmOp::kSetSizeState, r, 0, 0, 0, set.side,
           static_cast<uint32_t>(set.field));
      return r;
    }
    case ExprKind::kEffectRead: {
      uint16_t r = AllocNum(set);
      Push(VmOp::kSetSizeEffect, r, 0, 0, 0, 0,
           static_cast<uint32_t>(set.field));
      return r;
    }
    case ExprKind::kRefState: {
      uint16_t a = EmitRef(*set.kids[0]);
      FreeRef(a);
      uint16_t r = AllocNum(set);
      Push(VmOp::kSetSizeRef, r, a, 0, 0, 0,
           static_cast<uint32_t>(set.field));
      return r;
    }
    case ExprKind::kIf: {
      uint16_t c = EmitBool(*set.kids[0]);
      uint16_t t = EmitSetSize(*set.kids[1]);
      uint16_t f = EmitSetSize(*set.kids[2]);
      FreeBool(c);
      FreeNum(t);
      FreeNum(f);
      uint16_t r = AllocNum(set);
      Push(VmOp::kSelectNum, r, c, t, f);
      return r;
    }
    default:
      Fail(set, "not a set operand");
      return 0;
  }
}

uint16_t ExprCompiler::EmitSetContains(const Expr& set, uint16_t probe) {
  if (!ok()) return 0;
  switch (set.kind) {
    case ExprKind::kStateRead: {
      uint16_t r = AllocBool(set);
      Push(VmOp::kSetContainsState, r, probe, 0, 0, set.side,
           static_cast<uint32_t>(set.field));
      return r;
    }
    case ExprKind::kEffectRead: {
      uint16_t r = AllocBool(set);
      Push(VmOp::kSetContainsEffect, r, probe, 0, 0, 0,
           static_cast<uint32_t>(set.field));
      return r;
    }
    case ExprKind::kRefState: {
      uint16_t owner = EmitRef(*set.kids[0]);
      FreeRef(owner);
      uint16_t r = AllocBool(set);
      Push(VmOp::kSetContainsRef, r, probe, owner, 0, 0,
           static_cast<uint32_t>(set.field));
      return r;
    }
    case ExprKind::kIf: {
      uint16_t c = EmitBool(*set.kids[0]);
      uint16_t t = EmitSetContains(*set.kids[1], probe);
      uint16_t f = EmitSetContains(*set.kids[2], probe);
      FreeBool(c);
      FreeBool(t);
      FreeBool(f);
      uint16_t r = AllocBool(set);
      Push(VmOp::kSelectBool, r, c, t, f);
      return r;
    }
    default:
      Fail(set, "not a set operand");
      return 0;
  }
}

void ExprCompiler::EmitFilterChain(const Expr& e) {
  if (!ok()) return;
  if (e.kind == ExprKind::kAndB) {
    // Left-to-right, matching the scalar evaluator's conjunct order; each
    // conjunct's operands evaluate over the survivors of the previous one.
    EmitFilterChain(*e.kids[0]);
    EmitFilterChain(*e.kids[1]);
    return;
  }
  if (e.kind == ExprKind::kCmpNum) {
    // Fused compare-and-compact.
    uint16_t a = EmitNum(*e.kids[0]);
    uint16_t b = EmitNum(*e.kids[1]);
    FreeNum(a);
    FreeNum(b);
    Push(FilterOpc(e.cmp), 0, a, b);
    return;
  }
  // Any other conjunct (ref equality, boolean field, OR, ...): evaluate to
  // a bool column and compact on it.
  uint16_t c = EmitBool(e);
  FreeBool(c);
  Push(VmOp::kFilterBool, 0, c);
}

}  // namespace

Status CompileValue(const Expr& e, TypeKind kind, VmProgram* out) {
  *out = VmProgram();
  ExprCompiler c(out);
  uint16_t result = 0;
  switch (kind) {
    case TypeKind::kNumber: result = c.EmitNum(e); break;
    case TypeKind::kBool: result = c.EmitBool(e); break;
    case TypeKind::kRef: result = c.EmitRef(e); break;
    case TypeKind::kSet:
      return Status::Unsupported(
          std::string("cannot lower ") + ExprKindName(e.kind) +
          " expression to bytecode: set values never materialize as "
          "columns");
  }
  SGL_RETURN_IF_ERROR(c.status());
  c.Finish(kind, result, /*filter_mode=*/false);
  return Status::OK();
}

Status CompileFilter(const Expr& e, VmProgram* out) {
  *out = VmProgram();
  ExprCompiler c(out);
  c.EmitFilterChain(e);
  SGL_RETURN_IF_ERROR(c.status());
  c.Finish(TypeKind::kBool, 0, /*filter_mode=*/true);
  return Status::OK();
}

void VmProgramCache::AddValue(const Expr* e, TypeKind kind) {
  if (e == nullptr || !status_.ok() || values_.count(e) != 0) return;
  VmProgram p;
  status_ = CompileValue(*e, kind, &p);
  if (!status_.ok()) return;
  values_.emplace(e, std::move(p));
  ++programs_compiled_;
}

void VmProgramCache::AddFilter(const Expr* e) {
  if (e == nullptr || !status_.ok() || filters_.count(e) != 0) return;
  VmProgram p;
  status_ = CompileFilter(*e, &p);
  if (!status_.ok()) return;
  filters_.emplace(e, std::move(p));
  ++programs_compiled_;
}

void VmProgramCache::AddWrites(const std::vector<EffectWrite>& writes,
                               const Catalog& cat) {
  for (const EffectWrite& w : writes) {
    AddFilter(w.guard.get());
    if (w.target_kind == TargetKind::kRef) {
      AddValue(w.target_ref.get(), TypeKind::kRef);
    }
    if (w.set_insert) {
      AddValue(w.value.get(), TypeKind::kRef);
    } else {
      AddValue(w.value.get(),
               cat.Get(w.target_cls).effect_field(w.field).type.kind);
    }
  }
}

void VmProgramCache::AddOps(const std::vector<std::unique_ptr<PlanOp>>& ops,
                            const Catalog& cat) {
  for (const auto& op : ops) {
    switch (op->kind) {
      case PlanOp::Kind::kComputeLocals: {
        auto* o = static_cast<const ComputeLocalsOp*>(op.get());
        for (const LocalDef& def : o->defs) {
          AddValue(def.value.get(), def.type.kind);
        }
        break;
      }
      case PlanOp::Kind::kEffects:
        AddWrites(static_cast<const EffectsOp*>(op.get())->writes, cat);
        break;
      case PlanOp::Kind::kAccum: {
        auto* o = static_cast<const AccumOp*>(op.get());
        AddFilter(o->outer_guard.get());
        for (const RangeDim& d : o->range_dims) {
          AddValue(d.lo.get(), TypeKind::kNumber);
          AddValue(d.hi.get(), TypeKind::kNumber);
        }
        for (const HashDim& d : o->hash_dims) {
          AddValue(d.key.get(), TypeKind::kRef);
        }
        AddValue(o->key.get(), TypeKind::kNumber);
        // Not cached: PrepareSite composes these into its pair filters, and
        // the index manager lowers the inner filter for its grid builds.
        // Checking them here keeps every lowering error at engine creation.
        for (const Expr* e : {o->inner_filter.get(), o->residual.get()}) {
          if (e == nullptr || !status_.ok()) continue;
          VmProgram check;
          status_ = CompileFilter(*e, &check);
        }
        for (const AccumAssign& a : o->accum_assigns) {
          // Assign guards are consumed as columns by the fold loop, not as
          // selection compaction — value mode.
          AddValue(a.guard.get(), TypeKind::kBool);
          AddValue(a.value.get(), o->accum_type.kind);
        }
        AddWrites(o->pair_writes, cat);
        break;
      }
      case PlanOp::Kind::kTxnEmit: {
        auto* o = static_cast<const TxnEmitOp*>(op.get());
        AddFilter(o->guard.get());
        // Intent targets/values are evaluated per emitted row; compile them
        // as value programs too.
        for (const TxnWrite& w : o->writes) {
          if (w.target_kind == TargetKind::kRef) {
            AddValue(w.target_ref.get(), TypeKind::kRef);
          }
          AddValue(w.value.get(), w.op == TxnWriteOp::kAddDelta
                                      ? TypeKind::kNumber
                                      : TypeKind::kRef);
        }
        break;
      }
    }
  }
}

Status VmProgramCache::CompileProgram(const CompiledProgram& prog) {
  Stopwatch timer;
  // Tick 0: compilation happens once, before the first tick.
  SGL_TRACE_SPAN(telemetry_, kSpanVmCompile, 0, 0, 0);
  const Catalog& cat = *prog.catalog;
  for (const CompiledScript& script : prog.scripts) {
    for (const auto& phase : script.phases) AddOps(phase, cat);
  }
  for (const CompiledHandler& h : prog.handlers) {
    AddValue(h.cond.get(), TypeKind::kBool);
    AddOps(h.ops, cat);
  }
  // Update rules read merged effects; set-valued rules stay on the scalar
  // evaluator (sets never materialize as register columns).
  for (const UpdateRule& r : prog.update_rules) {
    const TypeKind kind = cat.Get(r.cls).state_field(r.state_field).type.kind;
    if (kind != TypeKind::kSet) AddValue(r.value.get(), kind);
  }
  compile_micros_ += timer.ElapsedMicros();
  return status_;
}

}  // namespace sgl
