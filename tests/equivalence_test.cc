// The load-bearing property tests of the whole reproduction: the compiled
// set-at-a-time engine, the object-at-a-time interpreter, every join
// strategy, and every thread count must produce the same simulation.
// (§2's claim is that declarative processing changes the *performance*,
// never the *meaning*, of a script.)

#include <gtest/gtest.h>

#include "src/debug/checkpoint.h"
#include "src/sim/market.h"
#include "src/sim/rts.h"
#include "src/sim/traffic.h"

namespace sgl {
namespace {

// Runs the RTS workload for `ticks` and returns the final world checksum.
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

EngineOptions WithMode(PlanMode mode, bool interpreted = false,
                       int threads = 1) {
  EngineOptions options;
  options.exec.planner.mode = mode;
  options.exec.interpreted = interpreted;
  options.exec.num_threads = threads;
  return options;
}

// --- Compiled == interpreted -------------------------------------------

TEST(Equivalence, CompiledMatchesInterpretedRts) {
  uint64_t compiled =
      RunRts(WithMode(PlanMode::kStaticNL), /*ticks=*/12, /*units=*/300,
             /*clustered=*/false);
  uint64_t interpreted =
      RunRts(WithMode(PlanMode::kStaticNL, /*interpreted=*/true), 12, 300,
             false);
  EXPECT_EQ(compiled, interpreted);
}

TEST(Equivalence, CompiledMatchesInterpretedRtsClustered) {
  uint64_t compiled = RunRts(WithMode(PlanMode::kStaticNL), 12, 300, true);
  uint64_t interpreted =
      RunRts(WithMode(PlanMode::kStaticNL, true), 12, 300, true);
  EXPECT_EQ(compiled, interpreted);
}

TEST(Equivalence, CompiledMatchesInterpretedTraffic) {
  uint64_t compiled = RunTraffic(WithMode(PlanMode::kStaticNL), 15, 400);
  uint64_t interpreted =
      RunTraffic(WithMode(PlanMode::kStaticNL, true), 15, 400);
  EXPECT_EQ(compiled, interpreted);
}

// --- All join strategies agree -------------------------------------------

class StrategyEquivalence : public ::testing::TestWithParam<PlanMode> {};

TEST_P(StrategyEquivalence, RtsChecksumIndependentOfStrategy) {
  uint64_t baseline = RunRts(WithMode(PlanMode::kStaticNL), 10, 256, true);
  uint64_t strategy = RunRts(WithMode(GetParam()), 10, 256, true);
  EXPECT_EQ(baseline, strategy)
      << "strategy " << PlanModeName(GetParam())
      << " changed simulation results";
}

TEST_P(StrategyEquivalence, TrafficChecksumIndependentOfStrategy) {
  uint64_t baseline = RunTraffic(WithMode(PlanMode::kStaticNL), 10, 300);
  uint64_t strategy = RunTraffic(WithMode(GetParam()), 10, 300);
  EXPECT_EQ(baseline, strategy)
      << "strategy " << PlanModeName(GetParam())
      << " changed simulation results";
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyEquivalence,
    ::testing::Values(PlanMode::kStaticGrid, PlanMode::kStaticHash,
                      PlanMode::kCostBased, PlanMode::kAdaptive),
    [](const ::testing::TestParamInfo<PlanMode>& info) {
      std::string name = PlanModeName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- Parallel == serial -----------------------------------------------------

class ThreadEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ThreadEquivalence, RtsChecksumIndependentOfThreads) {
  // The RTS workload's effect fields (avg velocities, sum damage over at
  // most a few dozen contributors in fixed order) are FP-stable enough for
  // exact comparison at small scale; see DESIGN.md for the general FP
  // caveat on cross-thread-count sums.
  uint64_t serial = RunRts(WithMode(PlanMode::kCostBased), 8, 300, true);
  uint64_t parallel = RunRts(
      WithMode(PlanMode::kCostBased, false, GetParam()), 8, 300, true);
  EXPECT_EQ(serial, parallel)
      << GetParam() << " threads diverged from serial";
}

TEST_P(ThreadEquivalence, SameThreadCountIsDeterministic) {
  uint64_t a =
      RunRts(WithMode(PlanMode::kCostBased, false, GetParam()), 8, 300, true);
  uint64_t b =
      RunRts(WithMode(PlanMode::kCostBased, false, GetParam()), 8, 300, true);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadEquivalence,
                         ::testing::Values(2, 4, 8));

// --- Marketplace: strategies/threads keep transactional invariants ---------

TEST(Equivalence, MarketConsistentUnderThreads) {
  for (int threads : {1, 4}) {
    MarketConfig config;
    config.num_traders = 40;
    config.num_items = 80;
    config.contention = 5;
    EngineOptions options = WithMode(PlanMode::kCostBased, false, threads);
    auto engine = MarketWorkload::Build(config, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    Rng rng(99);
    double gold0 = MarketWorkload::TotalGold(engine->get());
    for (int t = 0; t < 20; ++t) {
      MarketWorkload::AssignWants(engine->get(), config, &rng);
      ASSERT_TRUE((*engine)->Tick().ok());
      EXPECT_TRUE(MarketWorkload::OwnershipConsistent(engine->get()))
          << "tick " << t << " with " << threads << " threads";
      EXPECT_TRUE(MarketWorkload::NoNegativeGold(engine->get()));
      EXPECT_DOUBLE_EQ(gold0, MarketWorkload::TotalGold(engine->get()));
    }
  }
}

// --- Null refs gather the empty set ----------------------------------------

// A null ref in the middle of a span must gather the *empty set* — size()
// reads 0, contains() reads false — identically in the scalar oracle and
// the vectorized engine (serial, threaded, in small morsels). This pins the
// regression where the set-gather kernel read through a stale row for null
// lanes instead of substituting the empty set.
TEST(Equivalence, NullRefSetGatherIsEmptySet) {
  const char* src = R"sgl(
class G {
  state:
    number pal_friends = 99;
    number pal_knows_me = 99;
    ref<G> pal = null;
    set<G> friends;
  effects:
    number en : last;
    number ec : last;
    set<G> ef : union;
  update:
    pal_friends = en;
    pal_knows_me = ec;
    friends = ef;
}
script S for G {
  ef <- self;
  en <- size(pal.friends);
  ec <- if(contains(pal.friends, self), 1, 0);
}
)sgl";
  auto run = [&](bool interpreted, int threads, size_t morsel) {
    EngineOptions options;
    options.exec.interpreted = interpreted;
    options.exec.num_threads = threads;
    options.exec.morsel_size = morsel;
    auto engine = Engine::Create(src, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    // Row 1 of three keeps pal = null, mid-span.
    auto g0 = (*engine)->Spawn("G", {});
    auto g1 = (*engine)->Spawn("G", {});
    auto g2 = (*engine)->Spawn("G", {});
    EXPECT_TRUE(g0.ok() && g1.ok() && g2.ok());
    EXPECT_TRUE((*engine)->Set(*g0, "pal", Value::Ref(*g1)).ok());
    EXPECT_TRUE((*engine)->Set(*g2, "pal", Value::Ref(*g1)).ok());
    // Tick 1 populates friends = {self}; tick 2 gathers through pal.
    EXPECT_TRUE((*engine)->RunTicks(2).ok());
    EXPECT_EQ(0.0, (*engine)->Get(*g1, "pal_friends")->AsNumber())
        << "null pal must gather an empty set";
    EXPECT_EQ(0.0, (*engine)->Get(*g1, "pal_knows_me")->AsNumber());
    EXPECT_EQ(1.0, (*engine)->Get(*g0, "pal_friends")->AsNumber());
    return WorldChecksum((*engine)->world());
  };
  const uint64_t interpreted = run(true, 1, 2048);
  EXPECT_EQ(interpreted, run(false, 1, 2048));
  EXPECT_EQ(interpreted, run(false, 4, 2048)) << "4 threads";
  EXPECT_EQ(interpreted, run(false, 4, 2)) << "4 threads, morsel 2";
}

TEST(Equivalence, MarketCompiledMatchesInterpreted) {
  MarketConfig config;
  config.num_traders = 30;
  config.num_items = 60;
  auto run = [&](bool interpreted) {
    EngineOptions options = WithMode(PlanMode::kStaticNL, interpreted);
    auto engine = MarketWorkload::Build(config, options);
    EXPECT_TRUE(engine.ok());
    Rng rng(5);
    for (int t = 0; t < 15; ++t) {
      MarketWorkload::AssignWants(engine->get(), config, &rng);
      EXPECT_TRUE((*engine)->Tick().ok());
    }
    return WorldChecksum((*engine)->world());
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace sgl
