// The bytecode backend (src/vm/): lowering round-trips bit-for-bit against
// the scalar oracle (EvalScalar*, row by row), including merged-effect
// reads, `assigned()` and set reads through effect sets, `if` and null
// owners; register allocation reuses registers on left-leaning chains and
// a tree that needs more than kMaxRegs registers is a lowering error that
// TickExecutor::Init (and so Engine::Create) returns; steady-state ticks
// are allocation-free; and the guarded numeric semantics (div-by-zero,
// sqrt of negatives, degenerate clamp bounds) are pinned identically in
// the scalar oracle and the VM.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/common/alloc_hook.h"
#include "src/common/rng.h"
#include "src/debug/checkpoint.h"
#include "src/engine/engine.h"
#include "src/ra/eval.h"
#include "src/sim/market.h"
#include "src/sim/rts.h"
#include "src/sim/traffic.h"
#include "src/vm/compile.h"
#include "src/vm/vm.h"

namespace sgl {
namespace {

// --- Lowering round-trip ----------------------------------------------------
//
// Build Expr trees directly, compile them, and run the VM over a world span
// against the scalar evaluator row by row. Equality is on the *bits* of
// every lane: the VM claims lane-identical kernels, not merely close
// results.

void ExpectBitEqualNum(const std::vector<double>& want,
                       const std::vector<double>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    uint64_t w = 0, g = 0;
    std::memcpy(&w, &want[i], sizeof(w));
    std::memcpy(&g, &got[i], sizeof(g));
    EXPECT_EQ(w, g) << "lane " << i << ": " << want[i] << " vs " << got[i];
  }
}

// Nodes without construction helpers in expr.h.
ExprPtr Node(ExprKind kind, SglType type, std::vector<ExprPtr> kids) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->type = std::move(type);
  for (ExprPtr& k : kids) e->kids.push_back(std::move(k));
  return e;
}

ExprPtr Gather(ExprPtr ref, ClassId cls, FieldIdx field, SglType type) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(ref));
  ExprPtr e = Node(ExprKind::kRefState, std::move(type), std::move(kids));
  e->cls = cls;
  e->field = field;
  return e;
}

ExprPtr Clamp(ExprPtr v, ExprPtr lo, ExprPtr hi) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(v));
  kids.push_back(std::move(lo));
  kids.push_back(std::move(hi));
  return Node(ExprKind::kClamp, SglType::Number(), std::move(kids));
}

ExprPtr Neg(ExprPtr a) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(a));
  return Node(ExprKind::kUnaryMinus, SglType::Number(), std::move(kids));
}

ExprPtr SetSize(ExprPtr set) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(set));
  return Node(ExprKind::kSetSize, SglType::Number(), std::move(kids));
}

ExprPtr Contains(ExprPtr set, ExprPtr ref) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(set));
  kids.push_back(std::move(ref));
  return Node(ExprKind::kSetContains, SglType::Bool(), std::move(kids));
}

ExprPtr CmpRefEq(ExprPtr a, ExprPtr b) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  ExprPtr e = Node(ExprKind::kCmpRef, SglType::Bool(), std::move(kids));
  e->cmp = CmpOp::kEq;
  return e;
}

// A right-leaning chain a + (a + (... + a)) of `depth` additions: each
// level holds its left operand live while the right one evaluates, so it
// needs depth + 1 number registers.
ExprPtr RightChain(const std::function<ExprPtr()>& leaf, int depth) {
  ExprPtr e = leaf();
  for (int i = 0; i < depth; ++i) e = Arith(ArithOp::kAdd, leaf(), std::move(e));
  return e;
}

class VmLowering : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* src = R"sgl(
class Thing {
  state:
    number a = 0;
    number b = 0;
    ref<Thing> pal = null;
    set<Thing> crew;
  effects:
    number e : last;
    bool f : or;
    ref<Thing> g : last;
    set<Thing> h : union;
  update:
    a = a + 0 * e;
}
script Noop for Thing { e <- a; }
)sgl";
    auto engine = Engine::Create(src);
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(*engine);
    std::vector<EntityId> ids;
    for (int i = 0; i < 41; ++i) {
      // a covers negatives (sqrt guard), b covers zero lanes (div guard).
      auto id = engine_->Spawn(
          "Thing", {{"a", Value::Number(0.5 * i - 10.0)},
                    {"b", Value::Number(static_cast<double>(i % 5) - 2.0)}});
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    // Every third row has a pal (the rest are null owners); every other
    // row's crew holds itself and its predecessor.
    for (size_t i = 3; i < ids.size(); i += 3) {
      ASSERT_TRUE(engine_->Set(ids[i], "pal", Value::Ref(ids[i - 1])).ok());
    }
    for (size_t i = 2; i < ids.size(); i += 2) {
      EntitySet crew;
      crew.Insert(ids[i]);
      crew.Insert(ids[i - 1]);
      ASSERT_TRUE(engine_->Set(ids[i], "crew", Value::Set(crew)).ok());
    }
    cls_ = engine_->catalog().Find("Thing");
    ASSERT_NE(cls_, kInvalidClass);
    const ClassDef& def = engine_->catalog().Get(cls_);
    fa_ = def.FindState("a");
    fb_ = def.FindState("b");
    fpal_ = def.FindState("pal");
    fcrew_ = def.FindState("crew");
    fe_ = def.FindEffect("e");
    ff_ = def.FindEffect("f");
    fg_ = def.FindEffect("g");
    fh_ = def.FindEffect("h");
    const EntityTable& table = engine_->world().table(cls_);
    for (size_t i = 0; i < table.size(); ++i) {
      rows_.push_back(static_cast<RowIdx>(i));
    }
    // Merged effects: rows with i % 4 != 0 are assigned (several times for
    // the set), the rest read as unassigned.
    fx_ = std::make_unique<EffectBuffer>(&def);
    fx_->Reset(table.size());
    for (RowIdx r : rows_) {
      if (r % 4 == 0) continue;
      fx_->AddNumber(fe_, r, 1.5 * r - 7.0, r);
      fx_->AddBool(ff_, r, r % 3 == 0, r);
      fx_->AddRef(fg_, r, ids[(r * 7) % ids.size()], r);
      fx_->AddSetInsert(fh_, r, ids[r]);
      fx_->AddSetInsert(fh_, r, ids[(r + 5) % ids.size()]);
    }
    fx_->FinalizeSets();
    ctx_.world = &engine_->world();
    ctx_.outer = &table;
    ctx_.outer_rows = &rows_;
    ctx_.effects = fx_.get();
  }

  ExprPtr A() { return StateRead(0, cls_, fa_, SglType::Number()); }
  ExprPtr B() { return StateRead(0, cls_, fb_, SglType::Number()); }
  ExprPtr Pal() { return StateRead(0, cls_, fpal_, SglType::Ref("Thing")); }
  ExprPtr Crew() { return StateRead(0, cls_, fcrew_, SglType::Set("Thing")); }
  ExprPtr PalCrew() {
    return Gather(Pal(), cls_, fcrew_, SglType::Set("Thing"));
  }
  ExprPtr Self() { return RowIdRead(0, cls_); }
  ExprPtr E() { return EffectRead(cls_, fe_, SglType::Number()); }
  ExprPtr F() { return EffectRead(cls_, ff_, SglType::Bool()); }
  ExprPtr G() { return EffectRead(cls_, fg_, SglType::Ref("Thing")); }
  ExprPtr H() { return EffectRead(cls_, fh_, SglType::Set("Thing")); }

  // The oracle's view of lane i.
  ScalarContext Scalar(size_t i) const {
    ScalarContext sc;
    sc.world = ctx_.world;
    sc.outer_cls = cls_;
    sc.outer_row = rows_[i];
    sc.effects = fx_.get();
    return sc;
  }

  // Compiles `e` as a value program and checks every lane against the
  // scalar oracle.
  std::vector<double> RoundTripNum(const Expr& e) {
    std::vector<double> want(rows_.size()), got;
    for (size_t i = 0; i < rows_.size(); ++i) {
      want[i] = EvalScalarNum(e, Scalar(i));
    }
    VmProgram p;
    Status st = CompileValue(e, TypeKind::kNumber, &p);
    EXPECT_TRUE(st.ok()) << e.ToString() << ": " << st;
    VmEvalNum(p, ctx_, &regs_, nullptr, 0, &got);
    ExpectBitEqualNum(want, got);
    return got;
  }
  std::vector<uint8_t> RoundTripBool(const Expr& e) {
    std::vector<uint8_t> want(rows_.size()), got;
    for (size_t i = 0; i < rows_.size(); ++i) {
      want[i] = EvalScalarBool(e, Scalar(i)) ? 1 : 0;
    }
    VmProgram p;
    Status st = CompileValue(e, TypeKind::kBool, &p);
    EXPECT_TRUE(st.ok()) << e.ToString() << ": " << st;
    VmEvalBool(p, ctx_, &regs_, nullptr, 0, &got);
    EXPECT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
      EXPECT_EQ(want[i] != 0, got[i] != 0) << "lane " << i;
      got[i] = got[i] != 0 ? 1 : 0;
    }
    return got;
  }
  std::vector<EntityId> RoundTripRef(const Expr& e) {
    std::vector<EntityId> want(rows_.size()), got;
    for (size_t i = 0; i < rows_.size(); ++i) {
      want[i] = EvalScalarRef(e, Scalar(i));
    }
    VmProgram p;
    Status st = CompileValue(e, TypeKind::kRef, &p);
    EXPECT_TRUE(st.ok()) << e.ToString() << ": " << st;
    VmEvalRef(p, ctx_, &regs_, nullptr, 0, &got);
    EXPECT_EQ(want, got);
    return got;
  }
  // A filter program compacts exactly the lanes the oracle keeps, in
  // ascending order.
  void RoundTripFilter(const Expr& e) {
    std::vector<RowIdx> want;
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (EvalScalarBool(e, Scalar(i))) want.push_back(static_cast<RowIdx>(i));
    }
    VmProgram p;
    Status st = CompileFilter(e, &p);
    ASSERT_TRUE(st.ok()) << e.ToString() << ": " << st;
    EXPECT_TRUE(p.filter_mode);
    std::vector<RowIdx> got;
    const size_t n =
        VmRunFilter(p, ctx_, &regs_, /*uniform_outer=*/false, &got);
    got.resize(n);
    EXPECT_EQ(want, got);
  }

  std::unique_ptr<Engine> engine_;
  ClassId cls_ = kInvalidClass;
  FieldIdx fa_ = kInvalidField, fb_ = kInvalidField, fpal_ = kInvalidField,
           fcrew_ = kInvalidField;
  FieldIdx fe_ = kInvalidField, ff_ = kInvalidField, fg_ = kInvalidField,
           fh_ = kInvalidField;
  std::vector<RowIdx> rows_;
  std::unique_ptr<EffectBuffer> fx_;
  VecContext ctx_;
  VmRegisters regs_;
};

TEST_F(VmLowering, ArithKernelsRoundTrip) {
  RoundTripNum(*Arith(ArithOp::kSub,
                      Arith(ArithOp::kMul, Arith(ArithOp::kAdd, A(), B()),
                            NumLit(2.0)),
                      Arith(ArithOp::kMin, A(), B())));
  RoundTripNum(*Arith(ArithOp::kMax, Neg(A()), B()));
  RoundTripNum(*Arith(ArithOp::kPow, Arith(ArithOp::kMod, A(), B()),
                      NumLit(2.0)));
}

TEST_F(VmLowering, Call1KernelsRoundTrip) {
  RoundTripNum(*Call1(Call1Op::kAbs, A()));
  RoundTripNum(*Call1(Call1Op::kFloor, Arith(ArithOp::kDiv, A(), NumLit(3))));
  RoundTripNum(*Call1(Call1Op::kCeil, B()));
}

// Div-by-zero lanes produce exactly 0 — and the same 0 the oracle
// produces — not inf/NaN.
TEST_F(VmLowering, DivByZeroLanesAreZeroInBothEvaluators) {
  std::vector<double> got = RoundTripNum(*Arith(ArithOp::kDiv, A(), B()));
  ConstNumberColumn b = ctx_.outer->Num(fb_);
  bool saw_zero_divisor = false;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (b[rows_[i]] == 0.0) {
      saw_zero_divisor = true;
      EXPECT_EQ(0.0, got[i]) << "lane " << i;
    }
  }
  EXPECT_TRUE(saw_zero_divisor) << "fixture must cover zero divisors";
}

// sqrt of a negative is pinned to 0 (not NaN) in both evaluators.
TEST_F(VmLowering, SqrtOfNegativeLanesAreZeroInBothEvaluators) {
  std::vector<double> got = RoundTripNum(*Call1(Call1Op::kSqrt, A()));
  ConstNumberColumn a = ctx_.outer->Num(fa_);
  bool saw_negative = false;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (a[rows_[i]] < 0.0) {
      saw_negative = true;
      EXPECT_EQ(0.0, got[i]) << "lane " << i;
    }
  }
  EXPECT_TRUE(saw_negative) << "fixture must cover negative lanes";
}

// clamp with lo > hi is pinned as min(max(v, lo), hi) — which collapses to
// hi — identically in both evaluators.
TEST_F(VmLowering, DegenerateClampBoundsRoundTrip) {
  std::vector<double> got =
      RoundTripNum(*Clamp(A(), NumLit(3.0), NumLit(-3.0)));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(-3.0, got[i]) << "lane " << i;
  }
  RoundTripNum(*Clamp(B(), A(), Neg(A())));
}

TEST_F(VmLowering, SelectAndGatherRoundTrip) {
  RoundTripNum(*IfExpr(CmpNum(CmpOp::kLt, A(), B()), A(),
                       Arith(ArithOp::kMul, B(), NumLit(-1.0))));
  // Gather through pal: null lanes read as 0 in both evaluators.
  RoundTripNum(*Gather(Pal(), cls_, fa_, SglType::Number()));
}

TEST_F(VmLowering, BoolProgramRoundTrip) {
  RoundTripBool(*AndB(CmpNum(CmpOp::kLt, A(), B()),
                      NotB(CmpNum(CmpOp::kEq, B(), NumLit(0.0)))));
  RoundTripBool(*OrB(CmpRefEq(Pal(), NullRef()),
                     CmpNum(CmpOp::kGe, A(), NumLit(0.0))));
}

TEST_F(VmLowering, RefProgramRoundTrip) {
  ExprPtr e = IfExpr(CmpNum(CmpOp::kLt, A(), NumLit(0.0)), Pal(), NullRef());
  e->type = SglType::Ref("Thing");
  RoundTripRef(*e);
}

TEST_F(VmLowering, FilterProgramMatchesScalarOracle) {
  RoundTripFilter(*AndB(CmpNum(CmpOp::kGe, A(), NumLit(-5.0)),
                        CmpNum(CmpOp::kNe, B(), NumLit(0.0))));
}

// Merged-effect reads: assigned rows read the post-⊕ value, unassigned
// rows read 0 / false / null — the rule the oracle pins.
TEST_F(VmLowering, EffectReadsMatchOracleOnAssignedAndUnassignedRows) {
  std::vector<double> nums = RoundTripNum(*Arith(ArithOp::kAdd, A(), E()));
  std::vector<uint8_t> bools = RoundTripBool(*F());
  std::vector<EntityId> refs = RoundTripRef(*G());
  bool saw_assigned = false, saw_unassigned = false;
  ConstNumberColumn a = ctx_.outer->Num(fa_);
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (fx_->Assigned(fe_, rows_[i])) {
      saw_assigned = true;
      continue;
    }
    saw_unassigned = true;
    EXPECT_EQ(a[rows_[i]], nums[i]) << "unassigned number reads 0, lane " << i;
    EXPECT_EQ(0, bools[i]) << "unassigned bool reads false, lane " << i;
    EXPECT_EQ(kNullEntity, refs[i]) << "unassigned ref reads null, lane " << i;
  }
  EXPECT_TRUE(saw_assigned && saw_unassigned) << "fixture must cover both";
}

TEST_F(VmLowering, AssignedMatchesOracle) {
  std::vector<uint8_t> got = RoundTripBool(*AssignedRead(cls_, fe_));
  for (size_t i = 0; i < rows_.size(); ++i) {
    EXPECT_EQ(rows_[i] % 4 != 0 ? 1 : 0, got[i]) << "lane " << i;
  }
  // The rts.cc shape: if(assigned(e), min(e, 1), 0).
  RoundTripNum(*IfExpr(AssignedRead(cls_, fe_),
                       Arith(ArithOp::kMin, E(), NumLit(1.0)), NumLit(0.0)));
  RoundTripFilter(*AndB(AssignedRead(cls_, fe_), F()));
}

TEST_F(VmLowering, EffectSetSizeAndContainsMatchOracle) {
  RoundTripNum(*SetSize(H()));
  RoundTripBool(*Contains(H(), Self()));
  RoundTripBool(*Contains(H(), G()));  // probe is itself an effect read
  RoundTripBool(*Contains(H(), Pal()));
}

// A set-valued `if` lowers as a select over the two arms' size /
// membership; arms mix effect, state and gathered sets.
TEST_F(VmLowering, SetReadsThroughIfMatchOracle) {
  RoundTripNum(*SetSize(IfExpr(CmpNum(CmpOp::kLt, A(), NumLit(0.0)), H(),
                               Crew())));
  RoundTripBool(*Contains(IfExpr(AssignedRead(cls_, fe_), H(), PalCrew()),
                          Self()));
  RoundTripNum(*SetSize(
      IfExpr(F(), PalCrew(),
             IfExpr(CmpNum(CmpOp::kGt, B(), NumLit(0.0)), Crew(), H()))));
  RoundTripFilter(*AndB(CmpNum(CmpOp::kGt, SetSize(IfExpr(F(), H(), Crew())),
                               NumLit(0.0)),
                        Contains(IfExpr(F(), Crew(), H()), Self())));
}

// A null owner gathers the empty set: size 0, contains false.
TEST_F(VmLowering, NullOwnerSetReadsAreEmpty) {
  std::vector<double> sizes = RoundTripNum(*SetSize(PalCrew()));
  std::vector<uint8_t> has = RoundTripBool(*Contains(PalCrew(), Self()));
  const EntityId* pal = ctx_.outer->RefCol(fpal_);
  bool saw_null = false;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (pal[rows_[i]] != kNullEntity) continue;
    saw_null = true;
    EXPECT_EQ(0.0, sizes[i]) << "lane " << i;
    EXPECT_EQ(0, has[i]) << "lane " << i;
  }
  EXPECT_TRUE(saw_null) << "fixture must cover null owners";
  RoundTripBool(*Contains(IfExpr(CmpRefEq(Pal(), NullRef()), PalCrew(), H()),
                          G()));
}

// Left-leaning chains re-use a bounded register set: the lowering frees a
// subexpression's register as soon as it is consumed, so program depth does
// not inflate the register files (and with them the per-worker scratch).
TEST_F(VmLowering, RegisterAllocationStaysBoundedOnChains) {
  ExprPtr e = A();
  for (int i = 0; i < 300; ++i) {
    e = Arith(ArithOp::kAdd, std::move(e), NumLit(1.0));
  }
  VmProgram p;
  ASSERT_TRUE(CompileValue(*e, TypeKind::kNumber, &p).ok());
  EXPECT_LE(p.num_regs, 4) << "chain depth leaked into the register file";
  EXPECT_GE(p.code.size(), 301u);
  RoundTripNum(*e);
}

TEST_F(VmLowering, DisassembleListsKernels) {
  VmProgram p;
  ASSERT_TRUE(CompileValue(*Arith(ArithOp::kAdd, A(), E()),
                           TypeKind::kNumber, &p)
                  .ok());
  std::string listing = p.Disassemble();
  EXPECT_NE(listing.find("add"), std::string::npos) << listing;
  EXPECT_NE(listing.find("load.effect.num"), std::string::npos) << listing;
}

// Lowering failures are errors naming the ExprKind, not fallbacks.
TEST_F(VmLowering, ExcessRegisterDemandIsALoweringError) {
  VmProgram p;
  ExprPtr fits = RightChain([&] { return A(); }, kMaxRegs - 1);
  EXPECT_TRUE(CompileValue(*fits, TypeKind::kNumber, &p).ok());
  EXPECT_EQ(kMaxRegs, p.num_regs);
  ExprPtr deep = RightChain([&] { return A(); }, kMaxRegs);
  Status st = CompileValue(*deep, TypeKind::kNumber, &p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("StateRead"), std::string::npos) << st;
  EXPECT_NE(st.message().find("registers"), std::string::npos) << st;
  st = CompileFilter(*CmpNum(CmpOp::kLt, std::move(deep), NumLit(0)), &p);
  EXPECT_FALSE(st.ok());
}

TEST_F(VmLowering, UnhandledKindIsALoweringError) {
  // size() of a literal: no set the VM can read.
  VmProgram p;
  Status st = CompileValue(*SetSize(NumLit(1.0)), TypeKind::kNumber, &p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("NumLit"), std::string::npos) << st;
  st = CompileValue(*H(), TypeKind::kSet, &p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("EffectRead"), std::string::npos) << st;
}

// The executor passes a lowering error on from Init() (which is how
// Engine::Create reports it) instead of aborting or running a partial
// program; the scalar oracle compiles nothing and still runs.
TEST(VmCompileErrors, InitReturnsTheLoweringError) {
  const char* src = R"sgl(
class T {
  state:
    number a = 1;
  effects:
    number e : sum;
  update:
    a = a + e;
}
script S for T { e <- 1; }
)sgl";
  for (bool interpreted : {false, true}) {
    auto prog = CompileSource(src);
    ASSERT_TRUE(prog.ok()) << prog.status();
    CompiledProgram& program = **prog;
    ASSERT_EQ(1u, program.update_rules.size());
    const UpdateRule& rule = program.update_rules[0];
    const SglType num = SglType::Number();
    const ClassId cls = rule.cls;
    const FieldIdx a = rule.state_field;
    program.update_rules[0].value =
        RightChain([&] { return StateRead(0, cls, a, num); }, kMaxRegs);

    World world(program.catalog.get());
    ExecOptions options;
    options.interpreted = interpreted;
    TickExecutor exec(&world, &program, options);
    Status st = exec.Init();
    if (interpreted) {
      EXPECT_TRUE(st.ok()) << st;
      EXPECT_TRUE(exec.RunTick().ok());
    } else {
      ASSERT_FALSE(st.ok());
      EXPECT_NE(st.message().find("StateRead"), std::string::npos) << st;
    }
  }
}

// --- Guarded numeric semantics, oracle and fast path ----------------------
//
// The same source program must produce the same pinned result under the
// scalar object-at-a-time oracle and the bytecode VM. Each of these is a
// regression test for a semantics bug the differential oracle caught: the
// execution paths used to disagree on the guarded cases below.

double RunScalarProgram(const std::string& src, double a, double b,
                        bool interpreted) {
  EngineOptions options;
  options.exec.interpreted = interpreted;
  auto engine = Engine::Create(src, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn(
      "T", {{"a", Value::Number(a)}, {"b", Value::Number(b)}});
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE((*engine)->Tick().ok());
  return (*engine)->Get(*id, "r")->AsNumber();
}

void ExpectAllPathsAgree(const std::string& src, double a, double b,
                         double want) {
  EXPECT_EQ(want, RunScalarProgram(src, a, b, /*interpreted=*/true))
      << "scalar oracle";
  EXPECT_EQ(want, RunScalarProgram(src, a, b, /*interpreted=*/false))
      << "bytecode VM";
}

constexpr char kScalarClass[] = R"sgl(
class T {
  state:
    number a = 0;
    number b = 0;
    number r = 99;
  effects:
    number e : last;
  update:
    r = e;
}
)sgl";

TEST(VmSemantics, DivisionByZeroIsZeroEverywhere) {
  const std::string src = std::string(kScalarClass) +
                          "script S for T { e <- a / b; }\n";
  ExpectAllPathsAgree(src, 7.0, 0.0, 0.0);
  ExpectAllPathsAgree(src, -3.0, 0.0, 0.0);
  ExpectAllPathsAgree(src, 7.0, 2.0, 3.5);  // non-degenerate sanity
}

TEST(VmSemantics, SqrtOfNegativeIsZeroEverywhere) {
  const std::string src = std::string(kScalarClass) +
                          "script S for T { e <- sqrt(b); }\n";
  ExpectAllPathsAgree(src, 0.0, -4.0, 0.0);
  ExpectAllPathsAgree(src, 0.0, 9.0, 3.0);
}

TEST(VmSemantics, DegenerateClampIsMinMaxEverywhere) {
  // clamp(v, lo, hi) with lo > hi is pinned as min(max(v, lo), hi) = hi.
  const std::string src = std::string(kScalarClass) +
                          "script S for T { e <- clamp(a, 5, -5); }\n";
  ExpectAllPathsAgree(src, 7.0, 0.0, -5.0);
  ExpectAllPathsAgree(src, -9.0, 0.0, -5.0);
  ExpectAllPathsAgree(src, 0.0, 0.0, -5.0);
  const std::string sane = std::string(kScalarClass) +
                           "script S for T { e <- clamp(a, -5, 5); }\n";
  ExpectAllPathsAgree(sane, 7.0, 0.0, 5.0);
}

// A null ref mid-span gathers the *empty set*: size() is 0 and contains()
// is false, on both paths.
TEST(VmSemantics, NullRefSetGatherIsEmptySetEverywhere) {
  const char* src = R"sgl(
class G {
  state:
    number n = 99;
    number c = 99;
    ref<G> pal = null;
    set<G> friends;
  effects:
    number en : last;
    number ec : last;
    set<G> ef : union;
  update:
    n = en;
    c = ec;
    friends = ef;
}
script S for G {
  ef <- self;
  en <- size(pal.friends);
  ec <- if(contains(pal.friends, self), 1, 0);
}
)sgl";
  for (bool interpreted : {true, false}) {
    EngineOptions options;
    options.exec.interpreted = interpreted;
    auto engine = Engine::Create(src, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    // Mid-span null: row 1 of three has no pal.
    auto g0 = (*engine)->Spawn("G", {});
    auto g1 = (*engine)->Spawn("G", {});
    auto g2 = (*engine)->Spawn("G", {});
    ASSERT_TRUE(g0.ok() && g1.ok() && g2.ok());
    ASSERT_TRUE((*engine)->Set(*g0, "pal", Value::Ref(*g1)).ok());
    ASSERT_TRUE((*engine)->Set(*g2, "pal", Value::Ref(*g1)).ok());
    // Tick 1 populates friends = {self}; tick 2 gathers through pal.
    ASSERT_TRUE((*engine)->RunTicks(2).ok());
    const char* path = interpreted ? "oracle" : "vm";
    EXPECT_EQ(1.0, (*engine)->Get(*g0, "n")->AsNumber()) << path;
    EXPECT_EQ(0.0, (*engine)->Get(*g0, "c")->AsNumber()) << path;
    EXPECT_EQ(0.0, (*engine)->Get(*g1, "n")->AsNumber()) << path;
    EXPECT_EQ(0.0, (*engine)->Get(*g1, "c")->AsNumber()) << path;
    EXPECT_EQ(1.0, (*engine)->Get(*g2, "n")->AsNumber()) << path;
  }
}

// Update rules over bool, ref and set effects — assigned(), effect reads,
// set size / contains through `if` — run on the VM and match the oracle.
TEST(VmSemantics, UpdateRulesOverEffectsMatchOracle) {
  const char* src = R"sgl(
class U {
  state:
    number hp = 10;
    number seen = 0;
    bool alert = false;
    ref<U> target = null;
    set<U> crew;
  effects:
    number dmg : sum;
    bool warn : or;
    ref<U> pick : last;
    set<U> joins : union;
  update:
    hp = if(assigned(dmg), hp - dmg, hp + 1);
    alert = if(assigned(warn), warn, alert);
    target = if(assigned(pick), pick, target);
    seen = size(if(assigned(warn), joins, crew)) +
           if(contains(if(hp > 5, joins, crew), target), 10, 0);
    crew = if(hp > 8, joins, crew);
}
script S for U {
  if (hp > 6) { dmg <- 1; }
  if (hp < 9) { warn <- hp < 7; }
  if (seen < 3) { pick <- self; joins <- self; }
  if (target != null) { target.joins <- self; }
}
)sgl";
  auto run = [&](bool interpreted) {
    EngineOptions options;
    options.exec.interpreted = interpreted;
    auto engine = Engine::Create(src, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    std::vector<EntityId> ids;
    for (int i = 0; i < 24; ++i) {
      auto id = (*engine)->Spawn("U", {{"hp", Value::Number(4 + i % 9)}});
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (size_t i = 0; i < ids.size(); i += 2) {
      EXPECT_TRUE(
          (*engine)
              ->Set(ids[i], "target", Value::Ref(ids[(i + 5) % ids.size()]))
              .ok());
    }
    EXPECT_TRUE((*engine)->RunTicks(12).ok());
    return WorldChecksum((*engine)->world());
  };
  EXPECT_EQ(run(/*interpreted=*/true), run(/*interpreted=*/false));
}

// --- Checksum parity on the benchmark workloads -----------------------------
//
// The fast path (bytecode VM, batched probes) must reach the oracle's
// bit-identical world checksum on E1 (RTS), E3 (market), and E8 (traffic):
// serially, with 4 worker threads, and with 4 world shards.

uint64_t RunRts(const EngineOptions& options, int ticks, int units,
                bool clustered) {
  RtsConfig config;
  config.num_units = units;
  config.clustered = clustered;
  auto engine = RtsWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->RunTicks(ticks).ok());
  return WorldChecksum((*engine)->world());
}

uint64_t RunTraffic(const EngineOptions& options, int ticks, int vehicles) {
  TrafficConfig config;
  config.num_vehicles = vehicles;
  auto engine = TrafficWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->RunTicks(ticks).ok());
  return WorldChecksum((*engine)->world());
}

EngineOptions Exec(bool interpreted, PlanMode mode = PlanMode::kCostBased,
                   int threads = 1, int shards = 1) {
  EngineOptions options;
  options.exec.interpreted = interpreted;
  options.exec.planner.mode = mode;
  options.exec.num_threads = threads;
  options.exec.num_shards = shards;
  return options;
}

constexpr bool kOracle = true;
constexpr bool kFast = false;

TEST(VmParity, RtsChecksumMatchesOracleSerial) {
  for (bool clustered : {true, false}) {
    EXPECT_EQ(RunRts(Exec(kOracle), 12, 300, clustered),
              RunRts(Exec(kFast), 12, 300, clustered))
        << "clustered=" << clustered;
  }
}

TEST(VmParity, RtsChecksumIndependentOfStrategy) {
  const uint64_t baseline = RunRts(Exec(kOracle), 10, 256, true);
  for (PlanMode mode :
       {PlanMode::kStaticNL, PlanMode::kStaticGrid, PlanMode::kCostBased,
        PlanMode::kAdaptive}) {
    EXPECT_EQ(baseline, RunRts(Exec(kFast, mode), 10, 256, true))
        << "strategy " << PlanModeName(mode);
  }
}

TEST(VmParity, RtsChecksumMatchesAcrossThreadsAndShards) {
  const uint64_t baseline = RunRts(Exec(kOracle), 10, 300, true);
  EXPECT_EQ(baseline, RunRts(Exec(kFast, PlanMode::kCostBased, /*threads=*/4),
                             10, 300, true))
      << "4 threads";
  EXPECT_EQ(baseline,
            RunRts(Exec(kFast, PlanMode::kCostBased, /*threads=*/1,
                        /*shards=*/4),
                   10, 300, true))
      << "4 shards";
}

TEST(VmParity, TrafficChecksumMatchesOracle) {
  const uint64_t baseline = RunTraffic(Exec(kOracle), 15, 400);
  EXPECT_EQ(baseline, RunTraffic(Exec(kFast), 15, 400));
  EXPECT_EQ(baseline,
            RunTraffic(Exec(kFast, PlanMode::kCostBased, /*threads=*/4), 15,
                       400))
      << "4 threads";
  EXPECT_EQ(baseline, RunTraffic(Exec(kFast, PlanMode::kCostBased,
                                      /*threads=*/1, /*shards=*/4),
                                 15, 400))
      << "4 shards";
}

TEST(VmParity, MarketChecksumMatchesOracle) {
  MarketConfig config;
  config.num_traders = 30;
  config.num_items = 60;
  auto run = [&](bool interpreted, int threads) {
    EngineOptions options = Exec(interpreted, PlanMode::kCostBased, threads);
    auto engine = MarketWorkload::Build(config, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    Rng rng(5);
    for (int t = 0; t < 15; ++t) {
      MarketWorkload::AssignWants(engine->get(), config, &rng);
      EXPECT_TRUE((*engine)->Tick().ok());
      EXPECT_TRUE(MarketWorkload::OwnershipConsistent(engine->get()));
      EXPECT_TRUE(MarketWorkload::NoNegativeGold(engine->get()));
    }
    return WorldChecksum((*engine)->world());
  };
  const uint64_t baseline = run(kOracle, 1);
  EXPECT_EQ(baseline, run(kFast, 1));
  EXPECT_EQ(baseline, run(kFast, 4)) << "4 threads";
}

// Join shapes the benchmark workloads never run: set-domain accums
// (`from crew`), or/and/max folds, the entity-id hash probe, bools gathered
// and compared through refs (kGatherBool, kCmpBoolEq/Ne), and set size /
// contains through a ref. Small morsels split every site across workers.
// The `pal` site pins that static-hash mode runs a set-domain site as a
// nested loop: a directory probe would replace the set domain, and the
// hash strategy's pair filter leaves the id equality to that probe.
TEST(VmParity, UncommonJoinShapesMatchOracle) {
  const char* src = R"sgl(
class U {
  state:
    number x = 0;
    number hp = 10;
    number score = 0;
    bool alert = false;
    ref<U> target = null;
    set<U> crew;
  effects:
    number dmg : sum;
    number gain : sum;
    bool warn : or;
    set<U> joins : union;
  update:
    x = clamp(x + if(alert, 2, -1), 0, 60);
    hp = clamp(hp - dmg + gain, 0, 40);
    alert = if(assigned(warn), warn, hp < 12);
    crew = joins;
    score = size(crew);
}
script S for U {
  accum number best with max over U w from crew {
    if (w.alert != alert) { best <- w.hp; }
  } in {
    if (best > 0) { dmg <- best / 8; }
  }
  accum number pal with sum over U w from crew {
    if (w == target) { pal <- w.hp; }
  } in {
    gain <- pal / 10;
  }
  accum bool seen with or over U w from U {
    if (w.x >= x - 3 && w.x <= x + 3 && w != self) {
      seen <- w.alert == target.alert;
    }
  } in {
    warn <- seen;
  }
  accum bool calm with and over U w from U {
    if (w == target) { calm <- !w.alert; }
  } in {
    if (calm) { gain <- 1; }
  }
  if (target != null) {
    target.joins <- self;
    joins <- target;
    if (contains(target.crew, self)) { gain <- size(target.crew) / 4; }
    if (target.alert) { dmg <- 1; }
  }
}
)sgl";
  auto run = [&](bool interpreted, PlanMode mode, int threads) {
    EngineOptions options = Exec(interpreted, mode, threads);
    options.exec.morsel_size = 16;
    auto engine = Engine::Create(src, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    std::vector<EntityId> ids;
    for (int i = 0; i < 64; ++i) {
      auto id = (*engine)->Spawn(
          "U", {{"x", Value::Number((i * 37) % 60)},
                {"hp", Value::Number(5 + i % 17)},
                {"alert", Value::Bool(i % 3 == 0)}});
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i % 5 == 4) continue;  // some rows keep a null target
      EXPECT_TRUE((*engine)
                      ->Set(ids[i], "target",
                            Value::Ref(ids[(i * 7 + 3) % ids.size()]))
                      .ok());
    }
    EXPECT_TRUE((*engine)->RunTicks(12).ok());
    return WorldChecksum((*engine)->world());
  };
  const uint64_t oracle = run(kOracle, PlanMode::kStaticNL, 1);
  for (PlanMode mode : {PlanMode::kStaticNL, PlanMode::kStaticHash,
                        PlanMode::kCostBased, PlanMode::kAdaptive}) {
    for (int threads : {1, 4}) {
      EXPECT_EQ(oracle, run(kFast, mode, threads))
          << PlanModeName(mode) << " threads=" << threads;
    }
  }
}

// --- Compile cache + steady-state allocation --------------------------------

// Programs compile once (Init + first PrepareSite); after warmup a tick
// allocates nothing — the register files live in per-worker scratch with
// high-water reuse.
TEST(VmAlloc, SteadyStateIsAllocFree) {
  if (!AllocCountingEnabled()) {
    GTEST_SKIP() << "allocation counting disabled in this build";
  }
  RtsConfig config;
  // Battle mode from tick 0 at the alloc-regression scale: every buffer's
  // high-water mark (selections, register files, survivor compactions)
  // peaks during warmup instead of creeping up tick over tick.
  config.num_units = 800;
  config.clustered = true;
  auto engine = RtsWorkload::Build(config, Exec(kFast, PlanMode::kStaticGrid));
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->RunTicks(24).ok());  // warmup: compile + high water
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE((*engine)->Tick().ok());
    const TickStats& stats = (*engine)->last_stats();
    EXPECT_EQ(0, stats.allocs_per_tick)
        << "tick " << stats.tick << ": " << stats.bytes_per_tick << " bytes";
    EXPECT_GT(stats.vm_programs, 0) << "the fast path must report programs";
    EXPECT_EQ(0, stats.vm_fallbacks);
  }
}

TEST(VmAlloc, StatsReportCompiledPrograms) {
  RtsConfig config;
  config.num_units = 64;
  auto engine = RtsWorkload::Build(config, Exec(kFast));
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_GT((*engine)->last_stats().vm_programs, 0);

  auto oracle = RtsWorkload::Build(config, Exec(kOracle));
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE((*oracle)->Tick().ok());
  EXPECT_EQ(0, (*oracle)->last_stats().vm_programs)
      << "the oracle compiles no bytecode";
}

}  // namespace
}  // namespace sgl
