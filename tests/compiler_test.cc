// Compiler tests: plan shapes (predicate extraction into range/hash/residual
// pieces, §2.1), the access-rule SemanticErrors and implicit-field
// injection (§3.1–3.2).

#include <gtest/gtest.h>

#include "src/lang/compiler.h"
#include "src/sim/rts.h"

namespace sgl {
namespace {

StatusOr<std::unique_ptr<CompiledProgram>> C(const std::string& src) {
  return CompileSource(src);
}

const char* kBase = R"sgl(
class Unit {
  state:
    number x = 0;
    number y = 0;
    number range = 10;
    number health = 100;
    bool alive = true;
    ref<Unit> target = null;
    set<Unit> squad;
  effects:
    number damage : sum;
    number vx : avg;
    bool alerted : or;
    ref<Unit> new_target : first;
    set<Unit> seen : union;
}
)sgl";

// --- Plan shapes ----------------------------------------------------------

TEST(Compiler, RangePredicateExtraction) {
  auto p = C(std::string(kBase) + R"sgl(
script S for Unit {
  accum number cnt with sum over Unit w from Unit {
    if (w.x >= x - range && w.x <= x + range && w.health > 50) {
      cnt <- 1;
    }
  } in {}
}
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  const auto& ops = (*p)->scripts[0].phases[0];
  ASSERT_EQ(1u, ops.size());
  ASSERT_EQ(PlanOp::Kind::kAccum, ops[0]->kind);
  const auto* accum = static_cast<const AccumOp*>(ops[0].get());
  ASSERT_EQ(1u, accum->range_dims.size());  // x has both bounds
  EXPECT_NE(nullptr, accum->range_dims[0].lo);
  EXPECT_NE(nullptr, accum->range_dims[0].hi);
  // health > 50 is strict, so no range bound; it reads only the inner row,
  // so it is pushed below the join as the inner filter.
  ASSERT_NE(nullptr, accum->inner_filter);
  EXPECT_EQ("(it.s3>50)", accum->inner_filter->ToString());
  EXPECT_EQ(nullptr, accum->residual);
  EXPECT_TRUE(accum->accum_assigns[0].guard == nullptr)
      << "fully-extracted guard should vanish: "
      << accum->accum_assigns[0].guard->ToString();
}

TEST(Compiler, InnerFilterKeyAndResidualExtraction) {
  auto p = C(std::string(kBase) + R"sgl(
script S for Unit {
  accum number cnt with sum over Unit w from Unit {
    if (w.x >= x - range && w.x <= x + range && w.alive &&
        range != w.range && w.health != health && w.health > health &&
        w.target != null) {
      cnt <- 1;
    }
  } in {}
}
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  const auto* accum = static_cast<const AccumOp*>(
      (*p)->scripts[0].phases[0][0].get());
  ASSERT_EQ(1u, accum->range_dims.size());
  // Inner-only conjuncts, including a ref test on the inner row.
  ASSERT_NE(nullptr, accum->inner_filter);
  EXPECT_EQ("(it.s4&&(it.s5!=null))", accum->inner_filter->ToString());
  // The first numeric `it.f != outer` conjunct, either way round, is the
  // key; a second one stays residual, as does any other mixed conjunct.
  EXPECT_EQ(2, accum->key_field);
  ASSERT_NE(nullptr, accum->key);
  EXPECT_EQ("self.s2", accum->key->ToString());
  ASSERT_NE(nullptr, accum->residual);
  EXPECT_EQ("((it.s3!=self.s3)&&(it.s3>self.s3))",
            accum->residual->ToString());
  EXPECT_EQ(nullptr, accum->accum_assigns[0].guard);
}

TEST(Compiler, InnerFilterMayNotReadLocals) {
  auto p = C(std::string(kBase) + R"sgl(
script S for Unit {
  let number floor = 10;
  accum number cnt with sum over Unit w from Unit {
    if (w.health > floor && w.health > 10 - 5) { cnt <- 1; }
  } in {}
}
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  const auto& ops = (*p)->scripts[0].phases[0];
  ASSERT_EQ(2u, ops.size());
  const auto* accum = static_cast<const AccumOp*>(ops[1].get());
  ASSERT_NE(nullptr, accum->inner_filter);
  EXPECT_EQ("(it.s3>(10-5))", accum->inner_filter->ToString());
  ASSERT_NE(nullptr, accum->residual);
  EXPECT_EQ("(it.s3>$0)", accum->residual->ToString());
  EXPECT_EQ(nullptr, accum->key);
}

// Battle's Combat site, verbatim: the box becomes two range dims, and
// both leftover conjuncts are pushed into the grid, so no residual remains.
TEST(Compiler, RtsCombatPlanIsPinned) {
  auto p = C(RtsWorkload::Source());
  ASSERT_TRUE(p.ok()) << p.status();
  const auto* accum = static_cast<const AccumOp*>(
      (*p)->scripts[0].phases[0][0].get());
  EXPECT_EQ(
      "AccumJoin[nested-loop, inner: class0, "
      "range(s1 in [(self.s1-self.s4),(self.s1+self.s4)]), "
      "range(s2 in [(self.s2-self.s4),(self.s2+self.s4)]), "
      "key(s0 != self.s0), inner-filter: (it.s3>0), "
      "gamma($0 sum over 1 assigns), pair-writes: 1]",
      accum->DebugString());
}

TEST(Compiler, TwoDimensionalBoxExtraction) {
  auto p = C(std::string(kBase) + R"sgl(
script S for Unit {
  accum number cnt with sum over Unit w from Unit {
    if (w.x >= x - range && w.x <= x + range &&
        w.y >= y - range && w.y <= y + range) {
      cnt <- 1;
    }
  } in {}
}
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  const auto* accum = static_cast<const AccumOp*>(
      (*p)->scripts[0].phases[0][0].get());
  EXPECT_EQ(2u, accum->range_dims.size());
  EXPECT_EQ(nullptr, accum->residual);
}

TEST(Compiler, EqualityOnInnerFieldBecomesRangePoint) {
  auto p = C(std::string(kBase) + R"sgl(
script S for Unit {
  accum number cnt with sum over Unit w from Unit {
    if (w.health == health) { cnt <- 1; }
  } in {}
}
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  const auto* accum = static_cast<const AccumOp*>(
      (*p)->scripts[0].phases[0][0].get());
  ASSERT_EQ(1u, accum->range_dims.size());
  EXPECT_TRUE(accum->range_dims[0].lo->Equals(*accum->range_dims[0].hi));
}

TEST(Compiler, IdEqualityBecomesHashDim) {
  auto p = C(std::string(kBase) + R"sgl(
script S for Unit {
  accum number cnt with sum over Unit w from Unit {
    if (w == target) { cnt <- 1; }
  } in {}
}
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  const auto* accum = static_cast<const AccumOp*>(
      (*p)->scripts[0].phases[0][0].get());
  ASSERT_EQ(1u, accum->hash_dims.size());
}

TEST(Compiler, ExcludeSelfDetected) {
  auto p = C(std::string(kBase) + R"sgl(
script S for Unit {
  accum number cnt with sum over Unit w from Unit {
    if (w != self && w.x >= x - range && w.x <= x + range) { cnt <- 1; }
  } in {}
}
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  const auto* accum = static_cast<const AccumOp*>(
      (*p)->scripts[0].phases[0][0].get());
  EXPECT_TRUE(accum->exclude_self);
  EXPECT_EQ(1u, accum->range_dims.size());
}

TEST(Compiler, OuterOnlyConjunctHoistedToOuterGuard) {
  auto p = C(std::string(kBase) + R"sgl(
script S for Unit {
  accum number cnt with sum over Unit w from Unit {
    if (alive && w.x >= x - range && w.x <= x + range) { cnt <- 1; }
  } in {}
}
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  const auto* accum = static_cast<const AccumOp*>(
      (*p)->scripts[0].phases[0][0].get());
  ASSERT_NE(nullptr, accum->outer_guard);  // hoisted `alive`
  EXPECT_EQ(nullptr, accum->residual);
}

TEST(Compiler, DivergentGuardsKeepPerAssignResiduals) {
  auto p = C(std::string(kBase) + R"sgl(
script S for Unit {
  accum number cnt with sum over Unit w from Unit {
    if (w.x >= x - range && w.x <= x + range) {
      if (w.health > 50) { cnt <- 1; }
      if (w.health <= 50) { cnt <- 2; }
    }
  } in {}
}
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  const auto* accum = static_cast<const AccumOp*>(
      (*p)->scripts[0].phases[0][0].get());
  EXPECT_EQ(1u, accum->range_dims.size());  // common box extracted
  ASSERT_EQ(2u, accum->accum_assigns.size());
  EXPECT_NE(nullptr, accum->accum_assigns[0].guard);  // divergent parts stay
  EXPECT_NE(nullptr, accum->accum_assigns[1].guard);
}

TEST(Compiler, SetDomainAccum) {
  auto p = C(std::string(kBase) + R"sgl(
script S for Unit {
  accum number cnt with count over Unit w from squad {
    cnt <- 1;
  } in {}
}
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  const auto* accum = static_cast<const AccumOp*>(
      (*p)->scripts[0].phases[0][0].get());
  EXPECT_NE(kInvalidField, accum->inner_set_field);
}

TEST(Compiler, PathConditionsBecomeGuards) {
  auto p = C(std::string(kBase) + R"sgl(
script S for Unit {
  if (health < 50) {
    vx <- 1;
  } else {
    vx <- 2;
  }
}
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  const auto& ops = (*p)->scripts[0].phases[0];
  ASSERT_EQ(1u, ops.size());
  const auto* effects = static_cast<const EffectsOp*>(ops[0].get());
  ASSERT_EQ(2u, effects->writes.size());
  EXPECT_EQ("(self.s3<50)", effects->writes[0].guard->ToString());
  EXPECT_EQ("!((self.s3<50))", effects->writes[1].guard->ToString());
}

TEST(Compiler, MultiTickScriptSplitsIntoPhases) {
  auto p = C(std::string(kBase) + R"sgl(
script March for Unit {
  vx <- 1;
  waitNextTick;
  vx <- 2;
  waitNextTick;
  vx <- 3;
}
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  const CompiledScript& s = (*p)->scripts[0];
  EXPECT_EQ(3, s.num_phases());
  EXPECT_NE(kInvalidField, s.pc_state);
  EXPECT_NE(kInvalidField, s.pc_effect);
  // Implicit PC fields exist on the class.
  const ClassDef& def = (*p)->catalog->Get(s.cls);
  EXPECT_NE(kInvalidField, def.FindState("__pc_March"));
  EXPECT_NE(kInvalidField, def.FindEffect("__pcn_March"));
  // And an auto update rule drives the PC.
  bool found_pc_rule = false;
  for (const UpdateRule& r : (*p)->update_rules) {
    if (r.state_field == s.pc_state) found_pc_rule = true;
  }
  EXPECT_TRUE(found_pc_rule);
}

// --- Access-rule errors ------------------------------------------------------

struct BadCase {
  const char* name;
  const char* body;  // script body for class Unit
  const char* expect_substring;
};

class SemaErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(SemaErrors, RejectedWithMessage) {
  auto p = C(std::string(kBase) + "script S for Unit {" +
             GetParam().body + "}");
  ASSERT_FALSE(p.ok()) << "expected compile error";
  EXPECT_EQ(StatusCode::kSemanticError, p.status().code())
      << p.status();
  EXPECT_NE(std::string::npos,
            p.status().message().find(GetParam().expect_substring))
      << p.status();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SemaErrors,
    ::testing::Values(
        BadCase{"ReadEffect", "vx <- damage;", "write-only"},
        BadCase{"WriteState", "x <- 1;", "read-only"},
        BadCase{"ReadAccumInBlock1",
                "accum number c with sum over Unit w from Unit {"
                " if (c > 0) { c <- 1; } } in {}",
                "write-only"},
        BadCase{"WriteAccumInBlock2",
                "accum number c with sum over Unit w from Unit { c <- 1; }"
                " in { c <- 2; }",
                "read-only"},
        BadCase{"LetInAccumBlock1",
                "accum number c with sum over Unit w from Unit {"
                " let number t = 1; c <- t; } in {}",
                "not allowed"},
        BadCase{"WaitInsideIf", "if (health > 0) { waitNextTick; }",
                "top level"},
        BadCase{"WaitInsideAccum",
                "accum number c with sum over Unit w from Unit {"
                " waitNextTick; } in {}",
                "allowed"},
        BadCase{"NestedAccum",
                "accum number c with sum over Unit w from Unit {"
                " accum number d with sum over Unit v from Unit { d <- 1; }"
                " in {} } in {}",
                "nested"},
        BadCase{"RestartWithoutWait", "restart;", "multi-tick"},
        BadCase{"UnknownIdent", "vx <- nonsense;", "unknown identifier"},
        BadCase{"TypeMismatch", "vx <- alive;", "type"},
        BadCase{"BoolArith", "vx <- alive + 1;", "requires numbers"},
        BadCase{"IterOutOfScope",
                "accum number c with sum over Unit w from Unit { c <- 1; }"
                " in { w.damage <- 1; }",
                "unknown identifier"},
        BadCase{"FirstAccumUnordered",
                "accum number c with bogus over Unit w from Unit { c <- 1; }"
                " in {}",
                "unknown combinator"},
        // Refs admit only first/last, which accum loops reject, so no
        // ref-typed accum compiles and the executors fold numbers and bools
        // only.
        BadCase{"RefAccumRejected",
                "accum ref<Unit> c with first over Unit w from Unit {"
                " c <- w; } in {}",
                "unordered"},
        BadCase{"RefAccumMaxRejected",
                "accum ref<Unit> c with max over Unit w from Unit {"
                " c <- w; } in {}",
                "invalid for accum type"}),
    [](const auto& info) { return info.param.name; });

TEST(Compiler, DuplicateFieldRejected) {
  auto p = C(R"sgl(
class A {
  state:
    number x = 0;
    number x = 1;
}
)sgl");
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(StatusCode::kAlreadyExists, p.status().code());
}

TEST(Compiler, UnknownRefTargetRejected) {
  auto p = C(R"sgl(
class A {
  state:
    ref<Nope> r = null;
}
)sgl");
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(StatusCode::kNotFound, p.status().code());
}

TEST(Compiler, CombinatorTypeMismatchRejected) {
  auto p = C(R"sgl(
class A {
  state:
    number x = 0;
  effects:
    bool b : sum;
}
)sgl");
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(StatusCode::kSemanticError, p.status().code());
}

TEST(Compiler, ExplainMentionsEveryScript) {
  auto p = C(std::string(kBase) + R"sgl(
script Move for Unit { vx <- 1; }
when Unit Panic (health < 10) { alerted <- true; }
)sgl");
  ASSERT_TRUE(p.ok()) << p.status();
  std::string explain = (*p)->Explain();
  EXPECT_NE(std::string::npos, explain.find("script Move"));
  EXPECT_NE(std::string::npos, explain.find("Panic"));
}

}  // namespace
}  // namespace sgl
