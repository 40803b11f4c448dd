// Adaptive query optimization (§4.1): selectivity estimation, the cost
// model's strategy ranking, controller behaviour (probing, exploitation,
// drift-triggered re-probing), and end-to-end plan switching on a workload
// that alternates between modes.

#include <gtest/gtest.h>

#include "src/opt/adaptive.h"
#include "src/sim/rts.h"

namespace sgl {
namespace {

// --- ColumnStats selectivity -----------------------------------------------

TEST(Stats, UniformSelectivityIsProportional) {
  ColumnStats cs;
  cs.min = 0;
  cs.max = 100;
  cs.samples = 1000;
  cs.histogram.assign(20, 50);  // uniform
  EXPECT_NEAR(0.1, cs.RangeSelectivity(10, 20), 0.02);
  EXPECT_NEAR(1.0, cs.RangeSelectivity(-5, 200), 0.01);
  EXPECT_NEAR(0.0, cs.RangeSelectivity(200, 300), 1e-9);
}

TEST(Stats, SkewedHistogramCaptured) {
  ColumnStats cs;
  cs.min = 0;
  cs.max = 100;
  cs.samples = 1000;
  cs.histogram.assign(10, 0);
  cs.histogram[0] = 900;  // 90% of mass in [0, 10)
  cs.histogram[9] = 100;
  EXPECT_NEAR(0.9, cs.RangeSelectivity(0, 10), 0.05);
  EXPECT_NEAR(0.1, cs.RangeSelectivity(90, 100), 0.05);
}

TEST(Stats, ManagerRefreshesOnSchedule) {
  RtsConfig config;
  config.num_units = 100;
  EngineOptions options;
  auto engine = RtsWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok());
  StatsManager mgr(/*sample=*/64, /*buckets=*/8, /*refresh_every=*/4);
  mgr.MaybeRefresh((*engine)->world(), 0);
  Tick first = mgr.last_refresh();
  mgr.MaybeRefresh((*engine)->world(), 2);
  EXPECT_EQ(first, mgr.last_refresh());  // not due yet
  mgr.MaybeRefresh((*engine)->world(), 5);
  EXPECT_EQ(5, mgr.last_refresh());
  const TableStats& ts = mgr.Get((*engine)->catalog().Find("Unit"));
  EXPECT_EQ(100u, ts.row_count);
}

// --- Cost model ranking -------------------------------------------------------

TEST(CostModel, NestedLoopWinsTinyTables) {
  JoinCostInputs in;
  in.outer_rows = 8;
  in.inner_rows = 8;
  in.box_selectivity = 0.5;
  double nl = EstimateJoinCost(JoinStrategy::kNestedLoop, in);
  double grid = EstimateJoinCost(JoinStrategy::kGrid, in);
  EXPECT_LT(nl, grid) << "index build cost must dominate at tiny n";
}

TEST(CostModel, IndexWinsLargeSelectiveJoins) {
  JoinCostInputs in;
  in.outer_rows = 10000;
  in.inner_rows = 10000;
  in.box_selectivity = 0.001;
  double nl = EstimateJoinCost(JoinStrategy::kNestedLoop, in);
  double grid = EstimateJoinCost(JoinStrategy::kGrid, in);
  EXPECT_LT(grid, nl);
}

TEST(CostModel, HashWinsOnPointKeys) {
  JoinCostInputs in;
  in.outer_rows = 5000;
  in.inner_rows = 5000;
  in.box_selectivity = 0.3;  // wide box: range index unattractive
  in.hash_selectivity = 1.0 / 5000;
  double hash = EstimateJoinCost(JoinStrategy::kHash, in);
  double nl = EstimateJoinCost(JoinStrategy::kNestedLoop, in);
  double grid = EstimateJoinCost(JoinStrategy::kGrid, in);
  EXPECT_LT(hash, nl);
  EXPECT_LT(hash, grid);
}

// --- Controller ----------------------------------------------------------

AccumOp RangeOp(int site) {
  AccumOp op;
  op.site_id = site;
  op.inner_cls = 0;
  op.range_dims.push_back(RangeDim{0, NumLit(0), NumLit(1)});
  return op;
}

TEST(Controller, StaticModesNeverSwitch) {
  AdaptiveController::Options options;
  options.mode = PlanMode::kStaticGrid;
  AdaptiveController controller(options, 1);
  AccumOp op = RangeOp(0);
  for (Tick t = 0; t < 10; ++t) {
    EXPECT_EQ(JoinStrategy::kGrid,
              controller.Choose(op, t, nullptr, 100));
  }
  EXPECT_EQ(0, controller.switches());
}

TEST(Controller, StaticIndexFallsBackToNlWithoutRangeDims) {
  AdaptiveController::Options options;
  options.mode = PlanMode::kStaticGrid;
  AdaptiveController controller(options, 1);
  AccumOp op;
  op.site_id = 0;
  op.inner_cls = 0;  // no range dims
  EXPECT_EQ(JoinStrategy::kNestedLoop, controller.Choose(op, 0, nullptr, 10));
}

TEST(Controller, StaticModesRunSetDomainSitesAsNl) {
  // A set-domain site enumerates its set; a grid or directory probe would
  // replace that domain, so every static mode falls back to NL there.
  AccumOp op = RangeOp(0);
  op.inner_set_field = 0;
  op.hash_dims.push_back(HashDim{NumLit(0)});
  for (PlanMode mode : {PlanMode::kStaticGrid, PlanMode::kStaticHash}) {
    AdaptiveController::Options options;
    options.mode = mode;
    AdaptiveController controller(options, 1);
    EXPECT_EQ(JoinStrategy::kNestedLoop, controller.Choose(op, 0, nullptr, 10))
        << PlanModeName(mode);
  }
}

TEST(Controller, AdaptiveConvergesToFasterStrategy) {
  AdaptiveController::Options options;
  options.mode = PlanMode::kAdaptive;
  AdaptiveController controller(options, 1);
  AccumOp op = RangeOp(0);
  // Feed synthetic feedback: the grid is 10x faster than whatever else
  // runs. Over several probe intervals the controller keeps probing nested
  // loop, yet every tick that is not a probe exploits the grid.
  constexpr Tick kTicks = 4 * AdaptiveController::kProbeInterval + 3;
  int probes_of_nl = 0;
  int exploit_ticks = 0;
  JoinStrategy converged = JoinStrategy::kNestedLoop;
  for (Tick t = 0; t < kTicks; ++t) {
    JoinStrategy s = controller.Choose(op, t, nullptr, 1000);
    SiteFeedback fb;
    fb.site = 0;
    fb.strategy = s;
    fb.outer_rows = 1000;
    fb.matches = 1000;
    fb.micros = s == JoinStrategy::kGrid ? 100 : 1000;
    controller.Feedback(fb);
    converged = s;
    if (t < 2) continue;  // seeding pick and the first probe
    if ((t - 1) % AdaptiveController::kProbeInterval == 0) {
      probes_of_nl += s == JoinStrategy::kNestedLoop;
    } else {
      ++exploit_ticks;
      EXPECT_EQ(JoinStrategy::kGrid, s) << "exploit tick " << t;
    }
  }
  EXPECT_EQ(JoinStrategy::kGrid, converged);
  EXPECT_GT(probes_of_nl, 0) << "the controller never re-probed";
  EXPECT_GT(exploit_ticks, 0);
}

TEST(Controller, DriftTriggersReprobe) {
  AdaptiveController::Options options;
  options.mode = PlanMode::kAdaptive;
  AdaptiveController controller(options, 1);
  AccumOp op = RangeOp(0);
  // The grid is 10x faster throughout, so after the first probe (tick 1)
  // only a probe can pick nested loop. Stable fan-out for a while, then a
  // 50x jump, all before the next scheduled probe: only drift can re-probe.
  constexpr Tick kJump = 20;
  constexpr Tick kTicks = 30;
  static_assert(kTicks <= AdaptiveController::kProbeInterval,
                "a scheduled probe would mask the drift re-probe");
  Tick first_nl = -1;
  for (Tick t = 0; t < kTicks; ++t) {
    JoinStrategy s = controller.Choose(op, t, nullptr, 100);
    if (t >= 2 && s == JoinStrategy::kNestedLoop && first_nl < 0) {
      first_nl = t;
    }
    SiteFeedback fb;
    fb.site = 0;
    fb.strategy = s;
    fb.outer_rows = 100;
    fb.matches = t < kJump ? 100 : 5000;
    fb.micros = s == JoinStrategy::kGrid ? 50 : 500;
    controller.Feedback(fb);
    if (t == kJump - 1) {
      EXPECT_EQ(controller.drift_resets(), 0) << "stable fan-out drifted";
    }
  }
  EXPECT_GT(controller.drift_resets(), 0);
  EXPECT_GT(first_nl, kJump) << "drift must trigger the only re-probe";
}

TEST(Controller, CandidatesReflectPredicates) {
  AccumOp range_only = RangeOp(0);
  auto c1 = AdaptiveController::Candidates(range_only);
  EXPECT_EQ(2u, c1.size());  // NL, grid

  AccumOp with_hash = RangeOp(1);
  with_hash.hash_dims.push_back(HashDim{NumLit(0)});
  EXPECT_EQ(3u, AdaptiveController::Candidates(with_hash).size());

  AccumOp set_domain;
  set_domain.site_id = 2;
  set_domain.inner_set_field = 0;
  set_domain.range_dims.push_back(RangeDim{0, NumLit(0), NumLit(1)});
  EXPECT_EQ(1u, AdaptiveController::Candidates(set_domain).size());
}

// --- End-to-end plan switching ----------------------------------------------

TEST(Adaptive, WorkloadModeSwitchChangesChosenPlan) {
  // The cost-based picker should favour indexes when the arena is sparse
  // (low selectivity) and at least not lose to them when everything clumps
  // into range of everything (selectivity ~1 -> NL competitive).
  RtsConfig config;
  config.num_units = 2048;
  config.attack_range = 10;
  EngineOptions options;
  options.exec.planner.mode = PlanMode::kCostBased;
  auto engine = RtsWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RunTicks(3).ok());
  ASSERT_FALSE((*engine)->last_stats().sites.empty());
  JoinStrategy sparse_choice = (*engine)->last_stats().sites[0].strategy;
  EXPECT_NE(JoinStrategy::kNestedLoop, sparse_choice)
      << "sparse 2k-unit workload should pick an index join";
}

TEST(Adaptive, AdaptiveModeRunsAndSwitches) {
  RtsConfig config;
  config.num_units = 512;
  EngineOptions options;
  options.exec.planner.mode = PlanMode::kAdaptive;
  auto engine = RtsWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok());
  // Four spread/clumped phases spanning three probe intervals.
  for (int phase = 0; phase < 4; ++phase) {
    RtsWorkload::RepositionMode(engine->get(), config, phase % 2 == 1,
                                static_cast<uint64_t>(phase));
    ASSERT_TRUE(
        (*engine)->RunTicks(3 * AdaptiveController::kProbeInterval / 4).ok());
  }
  // The controller probed alternatives at least once.
  EXPECT_GT((*engine)->executor().controller().switches(), 0);
}

}  // namespace
}  // namespace sgl
