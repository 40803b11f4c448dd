// Engine facade: construction errors, entity lifecycle, option plumbing,
// and misuse reporting — the surface a downstream user touches first.

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/sim/rts.h"

namespace sgl {
namespace {

const char* kMinimal = R"sgl(
class A {
  state:
    number x = 0;
  effects:
    number d : sum;
  update:
    x = x + d;
}
script S for A { d <- 1; }
)sgl";

TEST(Engine, CreateReportsParseErrorsWithPosition) {
  auto engine = Engine::Create("class { broken");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(StatusCode::kParseError, engine.status().code());
}

TEST(Engine, CreateReportsSemanticErrors) {
  auto engine = Engine::Create("class A { state: number x = 0; }\n"
                               "script S for A { x <- 1; }");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(StatusCode::kSemanticError, engine.status().code());
}

TEST(Engine, SpawnUnknownClassFails) {
  auto engine = Engine::Create(kMinimal);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(StatusCode::kNotFound,
            (*engine)->Spawn("Nope", {}).status().code());
  EXPECT_EQ(StatusCode::kNotFound,
            (*engine)
                ->Spawn("A", {{"nope", Value::Number(1)}})
                .status()
                .code());
}

TEST(Engine, GetSetRoundTripAndErrors) {
  auto engine = Engine::Create(kMinimal);
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->Spawn("A", {{"x", Value::Number(7)}});
  ASSERT_TRUE(id.ok());
  EXPECT_DOUBLE_EQ(7.0, (*engine)->Get(*id, "x")->AsNumber());
  EXPECT_TRUE((*engine)->Set(*id, "x", Value::Number(9)).ok());
  EXPECT_DOUBLE_EQ(9.0, (*engine)->Get(*id, "x")->AsNumber());
  EXPECT_FALSE((*engine)->Get(*id, "missing").ok());
  EXPECT_FALSE((*engine)->Get(12345, "x").ok());
  EXPECT_FALSE((*engine)->Set(*id, "x", Value::Bool(true)).ok());
}

TEST(Engine, DespawnTwiceFails) {
  auto engine = Engine::Create(kMinimal);
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->Spawn("A", {});
  EXPECT_TRUE((*engine)->Despawn(*id).ok());
  EXPECT_EQ(StatusCode::kNotFound, (*engine)->Despawn(*id).code());
}

TEST(Engine, TickCounterAdvances) {
  auto engine = Engine::Create(kMinimal);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(0, (*engine)->tick());
  ASSERT_TRUE((*engine)->RunTicks(5).ok());
  EXPECT_EQ(5, (*engine)->tick());
}

TEST(Engine, SpawnMidSimulationJoinsNextTick) {
  auto engine = Engine::Create(kMinimal);
  ASSERT_TRUE(engine.ok());
  auto a = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->RunTicks(3).ok());
  auto b = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->RunTicks(2).ok());
  EXPECT_DOUBLE_EQ(5.0, (*engine)->Get(*a, "x")->AsNumber());
  EXPECT_DOUBLE_EQ(2.0, (*engine)->Get(*b, "x")->AsNumber());
}

TEST(Engine, MultipleScriptsPerClassRunInProgramOrder) {
  const char* src = R"sgl(
class A {
  state:
    number first_val = 0;
  effects:
    number e : first;
  update:
    first_val = e;
}
script One for A { e <- 1; }
script Two for A { e <- 2; }
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {});
  ASSERT_TRUE((*engine)->Tick().ok());
  // kFirst resolves by canonical program order: script One wins.
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*id, "first_val")->AsNumber());
}

TEST(Engine, MultipleClassesCoexist) {
  const char* src = R"sgl(
class A {
  state:
    number n = 0;
  effects:
    number d : sum;
  update:
    n = n + d;
}
class B {
  state:
    number n = 0;
  effects:
    number d : sum;
  update:
    n = n + d;
}
script SA for A { d <- 1; }
script SB for B { d <- 10; }
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto a = (*engine)->Spawn("A", {});
  auto b = (*engine)->Spawn("B", {});
  ASSERT_TRUE((*engine)->RunTicks(3).ok());
  EXPECT_DOUBLE_EQ(3.0, (*engine)->Get(*a, "n")->AsNumber());
  EXPECT_DOUBLE_EQ(30.0, (*engine)->Get(*b, "n")->AsNumber());
}

TEST(Engine, OptionsArePluumbedThrough) {
  EngineOptions options;
  options.exec.num_threads = 2;
  options.exec.planner.mode = PlanMode::kAdaptive;
  auto engine = Engine::Create(kMinimal, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(2, (*engine)->executor().options().num_threads);
  EXPECT_EQ(PlanMode::kAdaptive,
            (*engine)->executor().controller().mode());
  ASSERT_TRUE((*engine)->RunTicks(2).ok());
}

// Exec options the executor cannot run are rejected up front: a zero
// morsel size used to divide by zero (threads) or loop forever (shards),
// and 255+ shards overflowed the 8-bit shard ids.
StatusCode RtsCreateCode(int threads, int shards, size_t morsel) {
  RtsConfig config;
  config.num_units = 300;
  EngineOptions options;
  options.exec.num_threads = threads;
  options.exec.num_shards = shards;
  options.exec.morsel_size = morsel;
  return RtsWorkload::Build(config, options).status().code();
}

TEST(Engine, CreateRejectsZeroMorselWithThreads) {
  EXPECT_EQ(StatusCode::kInvalidArgument, RtsCreateCode(2, 1, 0));
}

TEST(Engine, CreateRejectsZeroMorselWithShards) {
  EXPECT_EQ(StatusCode::kInvalidArgument, RtsCreateCode(1, 2, 0));
}

TEST(Engine, CreateRejectsTooManyShards) {
  EXPECT_EQ(StatusCode::kInvalidArgument, RtsCreateCode(1, 300, 2048));
  EXPECT_EQ(StatusCode::kInvalidArgument, RtsCreateCode(1, 255, 2048));
  EXPECT_EQ(StatusCode::kOk, RtsCreateCode(1, 254, 2048));
}

// A negative job-worker count fails Create instead of aborting the process
// in JobService's constructor once a component asks for the service.
TEST(Engine, CreateRejectsNegativeJobWorkers) {
  EngineOptions options;
  options.exec.jobs.num_workers = -1;
  EXPECT_EQ(StatusCode::kInvalidArgument,
            Engine::Create(kMinimal, options).status().code());
  options.exec.jobs.num_workers = 0;
  EXPECT_EQ(StatusCode::kOk, Engine::Create(kMinimal, options).status().code());
}

TEST(Engine, PhysicsOnUnknownClassFails) {
  auto engine = Engine::Create(kMinimal);
  ASSERT_TRUE(engine.ok());
  PhysicsConfig config;
  config.cls = "Ghost";
  EXPECT_EQ(StatusCode::kNotFound, (*engine)->AddPhysics(config).code());
}

TEST(Engine, ScriptForMissingClassFails) {
  auto engine = Engine::Create("script S for Nothing { }");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(StatusCode::kNotFound, engine.status().code());
}

}  // namespace
}  // namespace sgl
