// Workload integration tests: long runs of the three simulation workloads
// under the full engine stack, checking the domain invariants a downstream
// user would rely on.

#include <gtest/gtest.h>

#include "src/sim/market.h"
#include "src/sim/rts.h"
#include "src/sim/traffic.h"

namespace sgl {
namespace {

TEST(RtsSim, BattleConvergesAndHealthMonotonicallyFalls) {
  RtsConfig config;
  config.num_units = 400;
  config.clustered = true;
  EngineOptions options;
  options.exec.planner.mode = PlanMode::kCostBased;
  auto engine = RtsWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  double prev = RtsWorkload::TotalHealth(engine->get());
  for (int t = 0; t < 40; ++t) {
    ASSERT_TRUE((*engine)->Tick().ok());
    double now = RtsWorkload::TotalHealth(engine->get());
    EXPECT_LE(now, prev + 1e-9) << "damage only removes health (tick " << t
                                << ")";
    prev = now;
  }
  // A clustered battle must actually kill someone.
  EXPECT_LT(RtsWorkload::AliveUnits(engine->get()), config.num_units);
}

TEST(RtsSim, SpreadUnitsSurviveLonger) {
  auto run = [](bool clustered) {
    RtsConfig config;
    config.num_units = 300;
    config.clustered = clustered;
    EngineOptions options;
    auto engine = RtsWorkload::Build(config, options);
    EXPECT_TRUE(engine.ok());
    EXPECT_TRUE((*engine)->RunTicks(25).ok());
    return RtsWorkload::TotalHealth(engine->get());
  };
  EXPECT_GT(run(false), run(true))
      << "clustered (battle) mode must deal more total damage";
}

TEST(RtsSim, PositionsStayInArena) {
  RtsConfig config;
  config.num_units = 200;
  EngineOptions options;
  auto engine = RtsWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RunTicks(30).ok());
  auto out_of_bounds = (*engine)->inspector().FindWhere("Unit", "x", -1e9,
                                                        -1e-9);
  EXPECT_TRUE(out_of_bounds.empty());
  auto too_far = (*engine)->inspector().FindWhere("Unit", "x", 1000.01, 1e9);
  EXPECT_TRUE(too_far.empty());
}

TEST(TrafficSim, FlowsWithoutCollapsingOrEscaping) {
  TrafficConfig config;
  config.num_vehicles = 600;
  config.num_lanes = 8;
  EngineOptions options;
  options.exec.planner.mode = PlanMode::kCostBased;
  auto engine = TrafficWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (int t = 0; t < 60; ++t) {
    ASSERT_TRUE((*engine)->Tick().ok());
    ASSERT_TRUE(TrafficWorkload::PositionsInBounds(engine->get(),
                                                   config.road_length))
        << "tick " << t;
  }
  // Traffic keeps moving: mean speed settles above zero.
  EXPECT_GT(TrafficWorkload::MeanSpeed(engine->get()), 0.1);
}

TEST(TrafficSim, DenserTrafficIsSlower) {
  auto mean_speed = [](int vehicles) {
    TrafficConfig config;
    config.num_vehicles = vehicles;
    config.num_lanes = 4;
    EngineOptions options;
    auto engine = TrafficWorkload::Build(config, options);
    EXPECT_TRUE(engine.ok());
    EXPECT_TRUE((*engine)->RunTicks(50).ok());
    return TrafficWorkload::MeanSpeed(engine->get());
  };
  EXPECT_GT(mean_speed(200), mean_speed(2000))
      << "congestion must reduce mean speed";
}

TEST(MarketSim, ResaleChainsStayConsistent) {
  // High activity for many ticks: items can change hands repeatedly; every
  // intermediate state must keep single ownership and conserved gold.
  MarketConfig config;
  config.num_traders = 16;
  config.num_items = 8;
  config.contention = 8;
  config.active_fraction = 1.0;
  EngineOptions options;
  auto engine = MarketWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok());
  Rng rng(2718);
  double gold0 = MarketWorkload::TotalGold(engine->get());
  long long commits = 0;
  for (int t = 0; t < 80; ++t) {
    MarketWorkload::AssignWants(engine->get(), config, &rng);
    ASSERT_TRUE((*engine)->Tick().ok());
    ASSERT_TRUE(MarketWorkload::OwnershipConsistent(engine->get()))
        << "tick " << t;
    ASSERT_TRUE(MarketWorkload::NoNegativeGold(engine->get())) << "tick "
                                                               << t;
    commits += (*engine)->last_stats().txn.committed;
  }
  EXPECT_DOUBLE_EQ(gold0, MarketWorkload::TotalGold(engine->get()));
  EXPECT_GT(commits, 40) << "the market should actually trade";
}

TEST(MarketSim, BrokeTradersCannotBuy) {
  MarketConfig config;
  config.num_traders = 4;
  config.num_items = 4;
  config.initial_gold = 5;   // below item_value
  config.item_value = 10;
  config.contention = 4;
  config.active_fraction = 1.0;
  EngineOptions options;
  auto engine = MarketWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok());
  Rng rng(1);
  for (int t = 0; t < 10; ++t) {
    MarketWorkload::AssignWants(engine->get(), config, &rng);
    ASSERT_TRUE((*engine)->Tick().ok());
    ASSERT_TRUE(MarketWorkload::NoNegativeGold(engine->get()));
  }
  // Nobody could ever afford anything: zero commits.
  EXPECT_EQ(0, (*engine)->executor().txn().total().committed);
}

TEST(Workloads, DespawningDeadUnitsMidRun) {
  // Exercise swap-remove + index invalidation between ticks: cull dead
  // units every few ticks and keep simulating.
  RtsConfig config;
  config.num_units = 300;
  config.clustered = true;
  EngineOptions options;
  options.exec.planner.mode = PlanMode::kStaticGrid;
  auto engine = RtsWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok());
  for (int t = 0; t < 30; ++t) {
    ASSERT_TRUE((*engine)->Tick().ok());
    if (t % 5 == 4) {
      World& world = (*engine)->world();
      ClassId cls = (*engine)->catalog().Find("Unit");
      const EntityTable& table = world.table(cls);
      FieldIdx health = (*engine)->catalog().Get(cls).FindState("health");
      std::vector<EntityId> dead;
      for (size_t i = 0; i < table.size(); ++i) {
        if (table.Num(health)[i] <= 0) {
          dead.push_back(table.id_at(static_cast<RowIdx>(i)));
        }
      }
      for (EntityId id : dead) {
        ASSERT_TRUE((*engine)->Despawn(id).ok());
      }
    }
  }
  EXPECT_EQ(static_cast<size_t>(RtsWorkload::AliveUnits(engine->get())),
            (*engine)->world().TotalEntities());
}

}  // namespace
}  // namespace sgl
