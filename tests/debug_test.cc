// Debugging facilities (§3.3): tick-boundary inspection, per-NPC effect
// tracing (under serial AND parallel execution), resumable checkpoints, and
// replay-log divergence detection.

#include <gtest/gtest.h>

#include "src/sim/rts.h"

namespace sgl {
namespace {

const char* kSrc = R"sgl(
class A {
  state:
    number x = 0;
    number hp = 100;
  effects:
    number d : sum;
    number vx : avg;
  update:
    hp = hp - d;
    x = x + vx;
}
script S for A {
  vx <- 1;
  accum number near with sum over A w from A {
    if (w.x >= x - 5 && w.x <= x + 5) {
      near <- 1;
      w.d <- 0.5;
    }
  } in {}
}
)sgl";

TEST(Inspector, DescribesEntitiesAndClasses) {
  auto engine = Engine::Create(kSrc);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn("A", {{"x", Value::Number(3)}});
  Inspector inspector = (*engine)->inspector();
  std::string desc = inspector.DescribeEntity(*id);
  EXPECT_NE(std::string::npos, desc.find("A@"));
  EXPECT_NE(std::string::npos, desc.find("x: 3"));
  EXPECT_NE(std::string::npos, desc.find("hp: 100"));
  std::string cls = inspector.DescribeClass("A");
  EXPECT_NE(std::string::npos, cls.find("1 rows"));
  EXPECT_EQ("<no entity @999>", inspector.DescribeEntity(999));
}

TEST(Inspector, FindWhereSelectsByRange) {
  auto engine = Engine::Create(kSrc);
  ASSERT_TRUE(engine.ok());
  std::vector<EntityId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(*(*engine)->Spawn("A", {{"x", Value::Number(i * 10)}}));
  }
  auto found = (*engine)->inspector().FindWhere("A", "x", 25, 55);
  EXPECT_EQ(std::vector<EntityId>({ids[3], ids[4], ids[5]}), found);
}

TEST(Tracer, RecordsEffectsForWatchedEntityOnly) {
  auto engine = Engine::Create(kSrc);
  ASSERT_TRUE(engine.ok());
  auto a = (*engine)->Spawn("A", {{"x", Value::Number(0)}});
  auto b = (*engine)->Spawn("A", {{"x", Value::Number(2)}});
  (void)b;
  EffectTracer tracer;
  tracer.Watch(*a);
  (*engine)->SetTracer(&tracer);
  ASSERT_TRUE((*engine)->Tick().ok());
  // a receives: vx<-1 (self), and d<-0.5 from both a and b's loops.
  auto records = tracer.RecordsFor(*a, 0);
  ASSERT_EQ(3u, records.size());
  int damage_assignments = 0;
  for (const TraceRecord& rec : records) {
    EXPECT_EQ(*a, rec.target);
    if (rec.value == Value::Number(0.5)) ++damage_assignments;
  }
  EXPECT_EQ(2, damage_assignments);
  // Nothing recorded for b.
  EXPECT_TRUE(tracer.RecordsFor(b.value(), 0).empty());
}

TEST(Tracer, ParallelExecutionYieldsSameTrace) {
  auto run = [&](int threads) {
    EngineOptions options;
    options.exec.num_threads = threads;
    auto engine = Engine::Create(kSrc, options);
    EXPECT_TRUE(engine.ok());
    std::vector<EntityId> ids;
    for (int i = 0; i < 40; ++i) {
      ids.push_back(
          *(*engine)->Spawn("A", {{"x", Value::Number(i % 7)}}));
    }
    EffectTracer tracer;
    tracer.Watch(ids[5]);
    (*engine)->SetTracer(&tracer);
    EXPECT_TRUE((*engine)->Tick().ok());
    std::vector<std::pair<uint64_t, std::string>> summary;
    for (const TraceRecord& rec : tracer.RecordsFor(ids[5], 0)) {
      summary.emplace_back(rec.order_key, rec.value.ToString());
    }
    return summary;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(Checkpoint, RestoreResumesBitExact) {
  // Run 30 ticks straight vs. checkpoint at 15 + restore + resume: the
  // paper's "resumable checkpoints" must be invisible to the simulation.
  RtsConfig config;
  config.num_units = 128;
  EngineOptions options;
  auto full = RtsWorkload::Build(config, options);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE((*full)->RunTicks(30).ok());
  uint64_t expected = WorldChecksum((*full)->world());

  auto engine = RtsWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RunTicks(15).ok());
  Checkpoint cp = (*engine)->TakeCheckpoint();
  ASSERT_TRUE((*engine)->RunTicks(7).ok());  // wander past the checkpoint
  ASSERT_TRUE((*engine)->Restore(cp).ok());
  EXPECT_EQ(15, (*engine)->tick());
  ASSERT_TRUE((*engine)->RunTicks(15).ok());
  EXPECT_EQ(expected, WorldChecksum((*engine)->world()));
}

TEST(Checkpoint, ChecksumDetectsStateChange) {
  auto engine = Engine::Create(kSrc);
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->Spawn("A", {});
  uint64_t before = WorldChecksum((*engine)->world());
  ASSERT_TRUE((*engine)->Set(*id, "x", Value::Number(1)).ok());
  EXPECT_NE(before, WorldChecksum((*engine)->world()));
}

TEST(ReplayLog, DetectsDivergence) {
  RtsConfig config;
  config.num_units = 64;
  EngineOptions options;
  auto a = RtsWorkload::Build(config, options);
  auto b = RtsWorkload::Build(config, options);
  ASSERT_TRUE(a.ok() && b.ok());
  ReplayLog log_a, log_b;
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE((*a)->Tick().ok());
    ASSERT_TRUE((*b)->Tick().ok());
    if (t == 6) {
      // Perturb run b mid-way.
      EntityId victim = (*b)->world().table(0).id_at(0);
      ASSERT_TRUE((*b)->Set(victim, "health", Value::Number(1)).ok());
    }
    log_a.Record((*a)->world(), t);
    log_b.Record((*b)->world(), t);
  }
  EXPECT_EQ(6, log_a.FirstDivergence(log_b));
  ReplayLog log_c = log_a;
  EXPECT_EQ(-1, log_a.FirstDivergence(log_c));
}

TEST(ReplayLog, PeriodicCheckpointsRetrievable) {
  auto engine = Engine::Create(kSrc);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Spawn("A", {}).ok());
  ReplayLog log(/*checkpoint_every=*/4);
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE((*engine)->Tick().ok());
    log.Record((*engine)->world(), t);
  }
  const Checkpoint* cp = log.LatestCheckpointBefore(7);
  ASSERT_NE(nullptr, cp);
  EXPECT_EQ(4, cp->tick);
  EXPECT_EQ(nullptr, log.LatestCheckpointBefore(-1));
}

TEST(Explain, ShowsStrategiesAndPredicates) {
  auto engine = Engine::Create(kSrc);
  ASSERT_TRUE(engine.ok());
  std::string plan = (*engine)->ExplainPlans();
  EXPECT_NE(std::string::npos, plan.find("AccumJoin"));
  EXPECT_NE(std::string::npos, plan.find("range(s0"));
  EXPECT_NE(std::string::npos, plan.find("gamma"));
  EXPECT_NE(std::string::npos, plan.find("update A.hp"));
}

// The full EXPLAIN text of a script with a `let` binding and an
// `atomic`/`require` region: the Extend and TxnEmit operators, pinned
// verbatim.
TEST(Explain, PinsLetAndTransactionOperators) {
  auto engine = Engine::Create(R"sgl(
class Account {
  state:
    number balance = 10;
    number withdraw_amount = 0;
}
script Withdraw for Account {
  let number amount = withdraw_amount * 2;
  if (amount > 0) {
    atomic "wd" require(balance >= 0) {
      balance <- -amount;
    }
  }
}
)sgl");
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ((*engine)->ExplainPlans(),
            "script Withdraw for Account:\n"
            "  Extend[$0=(self.s1*2)]\n"
            "  TxnEmit[wd, guard: ($0>0), constraints: 1, writes: 1]\n");
}

}  // namespace
}  // namespace sgl
