// Tests for the sharded world partition (src/shard/): checksum parity of
// sharded layouts against the one-partition layout across shard count ×
// thread count × morsel size (RTS, and a multi-phase script plus reactive
// handler), the partition-independence of transaction admission under
// sharding, despawns that give the same rows and results on every layout,
// and uneven partitions (despawns shrink the last shard) that stay
// bit-identical across thread counts and survive a checkpoint exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/debug/checkpoint.h"
#include "src/engine/engine.h"
#include "src/sim/market.h"
#include "src/sim/rts.h"
#include "src/sim/traffic.h"

namespace sgl {
namespace {

constexpr int kTicks = 30;

EngineOptions ShardOpts(PlanMode mode, int shards, int threads = 1,
                        size_t morsel = 2048, bool interpreted = false) {
  EngineOptions options;
  options.exec.planner.mode = mode;
  options.exec.num_shards = shards;
  options.exec.num_threads = threads;
  options.exec.morsel_size = morsel;
  options.exec.interpreted = interpreted;
  return options;
}

std::unique_ptr<Engine> BuildRts(int units, const EngineOptions& options) {
  RtsConfig config;
  config.num_units = units;
  config.clustered = true;  // dense joins: damage lands in every shard
  auto engine = RtsWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

uint64_t RunRts(const EngineOptions& options, int units = 300,
                int ticks = kTicks) {
  auto engine = BuildRts(units, options);
  EXPECT_TRUE(engine->RunTicks(ticks).ok());
  return WorldChecksum(engine->world());
}

// --- E1: checksum-parity sweep -------------------------------------------

// Every shard × thread × morsel configuration of `run(shards, threads,
// morsel)` must reproduce the serial one-partition checksum.
template <typename Run>
void ExpectSweepParity(Run run, std::initializer_list<int> thread_counts) {
  const uint64_t baseline = run(1, 1, 2048);
  for (int shards : {1, 2, 4, 7}) {
    for (int threads : thread_counts) {
      for (size_t morsel : {size_t{64}, size_t{2048}}) {
        EXPECT_EQ(run(shards, threads, morsel), baseline)
            << "shards=" << shards << " threads=" << threads
            << " morsel=" << morsel;
      }
    }
  }
}

TEST(ShardParity, RtsShardCountThreadCountMorselSweep) {
  ExpectSweepParity(
      [](int shards, int threads, size_t morsel) {
        return RunRts(
            ShardOpts(PlanMode::kStaticGrid, shards, threads, morsel));
      },
      {1, 2, 4});
}

// --- Multi-phase scripts + reactive handlers -----------------------------

// The §3.2 reactive patrol (examples/reactive_patrol.cpp): a waitNextTick
// script, so selections dispatch on the PC column, plus a `when` handler
// that restarts it. Guards start in lockstep on phase 0; restarts at
// different ticks spread them across the phases.
constexpr const char* kPatrolProgram = R"sgl(
class Guard {
  state:
    number x = 0;
    number y = 0;
    number vx = 0;
    number vy = 0;
    number alert_count = 0;
  effects:
    number fx : sum;
    number fy : sum;
    number alerted : sum;
  update:
    alert_count = alert_count + alerted;
}

class Intruder {
  state:
    number x = 0;
    number y = 0;
}

script Patrol for Guard {
  fx <- 2; fy <- 0;
  waitNextTick;
  fx <- 0; fy <- 2;
  waitNextTick;
  fx <- -2; fy <- 0;
  waitNextTick;
  fx <- 0; fy <- -2;
}

when Guard Spot (alert_count == 0) {
  accum number near with sum over Intruder i from Intruder {
    if (i.x >= x - 15 && i.x <= x + 15 && i.y >= y - 15 && i.y <= y + 15) {
      near <- 1;
    }
  } in {
    if (near > 0) {
      alerted <- 1;
      fx <- -vx;
      fy <- -vy;
      restart Patrol;
    }
  }
}
)sgl";

struct PatrolRun {
  uint64_t checksum = 0;
  double alerts = 0;     ///< Σ alert_count: handler firings
  size_t pc_values = 0;  ///< distinct PC values at the end
};

PatrolRun RunPatrol(int shards, int threads, size_t morsel) {
  EngineOptions options;
  options.exec.num_shards = shards;
  options.exec.num_threads = threads;
  options.exec.morsel_size = morsel;
  auto created = Engine::Create(kPatrolProgram, options);
  EXPECT_TRUE(created.ok()) << created.status();
  if (!created.ok()) return {};
  Engine& engine = **created;
  PhysicsConfig physics;
  physics.cls = "Guard";
  physics.max_speed = 4;
  physics.damping = 0.9;
  physics.max_x = 1000;
  physics.max_y = 1000;
  physics.resolve_collisions = false;
  EXPECT_TRUE(engine.AddPhysics(physics).ok());
  Rng rng(2009);
  auto spawn = [&](const char* cls) {
    const double x = rng.Uniform(0, 1000);
    const double y = rng.Uniform(0, 1000);
    EXPECT_TRUE(
        engine.Spawn(cls, {{"x", Value::Number(x)}, {"y", Value::Number(y)}})
            .ok());
  };
  for (int i = 0; i < 3000; ++i) spawn("Guard");
  for (int i = 0; i < 40; ++i) spawn("Intruder");
  EXPECT_TRUE(engine.RunTicks(40).ok());

  PatrolRun run;
  run.checksum = WorldChecksum(engine.world());
  const ClassId guard = engine.catalog().Find("Guard");
  const ClassDef& def = engine.catalog().Get(guard);
  const EntityTable& table = engine.world().table(guard);
  ConstNumberColumn alerts = table.Num(def.FindState("alert_count"));
  ConstNumberColumn pc = table.Num(def.FindState("__pc_Patrol"));
  std::set<double> pcs;
  for (RowIdx r = 0; r < table.size(); ++r) {
    run.alerts += alerts[r];
    pcs.insert(pc[r]);
  }
  run.pc_values = pcs.size();
  return run;
}

TEST(ShardParity, PatrolShardCountThreadCountMorselSweep) {
  const PatrolRun serial = RunPatrol(1, 1, 2048);
  EXPECT_GT(serial.alerts, 0) << "the handler never fired";
  EXPECT_GE(serial.pc_values, 2u) << "PC dispatch never split the guards";
  ExpectSweepParity(
      [](int shards, int threads, size_t morsel) {
        return RunPatrol(shards, threads, morsel).checksum;
      },
      {1, 4});
}

TEST(ShardParity, RtsMatchesAcrossPlanModes) {
  const uint64_t baseline = RunRts(ShardOpts(PlanMode::kStaticGrid, 1));
  EXPECT_EQ(RunRts(ShardOpts(PlanMode::kCostBased, 4)), baseline);
  EXPECT_EQ(RunRts(ShardOpts(PlanMode::kStaticNL, 3, 1, 2048,
                             /*interpreted=*/true)),
            baseline);
}

// --- E3: transactional market under sharding ------------------------------

MarketConfig MarketCfg() {
  MarketConfig config;
  config.num_traders = 128;
  config.num_items = 256;
  config.contention = 6;
  config.active_fraction = 0.25;
  return config;
}

uint64_t RunMarket(int shards, int threads, int64_t* committed = nullptr) {
  MarketConfig config = MarketCfg();
  EngineOptions options = ShardOpts(PlanMode::kCostBased, shards, threads,
                                    /*morsel=*/64);
  auto engine = MarketWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  Rng rng(1234);
  int64_t total_committed = 0;
  for (int t = 0; t < kTicks; ++t) {
    MarketWorkload::AssignWants(engine->get(), config, &rng);
    EXPECT_TRUE((*engine)->Tick().ok());
    total_committed += (*engine)->last_stats().txn.committed;
  }
  EXPECT_GT(total_committed, 0);
  EXPECT_TRUE(MarketWorkload::OwnershipConsistent(engine->get()));
  EXPECT_TRUE(MarketWorkload::NoNegativeGold(engine->get()));
  if (committed != nullptr) *committed = total_committed;
  return WorldChecksum((*engine)->world());
}

// Admission must be independent of the shard-of-owner dimension: the same
// intent multiset partitioned across 1, 2, or 4 per-shard logs (serial and
// parallel) commits the same transactions — PR 3's partition-independence
// property, re-proven through the sharded pipeline.
TEST(ShardParity, MarketAdmissionIndependentOfShardPartitioning) {
  int64_t committed1 = 0;
  const uint64_t baseline = RunMarket(1, 1, &committed1);
  for (int shards : {2, 4}) {
    for (int threads : {1, 4}) {
      int64_t committed = 0;
      EXPECT_EQ(RunMarket(shards, threads, &committed), baseline)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(committed, committed1);
    }
  }
}

// --- E8: traffic ----------------------------------------------------------

uint64_t RunTraffic(int shards, int threads) {
  TrafficConfig config;
  config.num_vehicles = 1500;
  config.num_lanes = 16;
  EngineOptions options =
      ShardOpts(PlanMode::kCostBased, shards, threads, /*morsel=*/512);
  auto engine = TrafficWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->RunTicks(kTicks).ok());
  EXPECT_TRUE(
      TrafficWorkload::PositionsInBounds(engine->get(), config.road_length));
  return WorldChecksum((*engine)->world());
}

TEST(ShardParity, TrafficMatchesSingleShard) {
  const uint64_t baseline = RunTraffic(1, 1);
  EXPECT_EQ(RunTraffic(4, 1), baseline);
  EXPECT_EQ(RunTraffic(4, 4), baseline);
}

// --- Uneven partitions ----------------------------------------------------

// Despawns up to `n` live entities of shard 0, drawn from ids [1, max_id]
// by `rng`. A despawn swap-removes: the class's last row moves into the
// victim's row and shard, so a run of these leaves the last shard smaller
// than its block-partition share.
void DespawnFromShard0(Engine* engine, EntityId max_id, int n, Rng* rng) {
  ShardedWorld& sharded = engine->sharded_world();
  for (int attempt = 0; attempt < 1000 && n > 0; ++attempt) {
    const EntityId id = 1 + static_cast<EntityId>(rng->Next() % max_id);
    if (sharded.ShardOfEntity(id) != 0) continue;
    EXPECT_TRUE(engine->Despawn(id).ok());
    --n;
  }
  EXPECT_EQ(n, 0) << "shard 0 ran out of entities";
  EXPECT_TRUE(sharded.PartitionConsistent());
}

int ShardRows(Engine* engine, int s) {
  const ClassId unit = engine->catalog().Find("Unit");
  const ShardedWorld& sharded = engine->sharded_world();
  return static_cast<int>(sharded.shard_end(unit, s) -
                          sharded.shard_begin(unit, s));
}

// At a fixed shard count, runs with identical despawn schedules are
// bit-identical for any thread count — despawns happen between ticks,
// never concurrently with the query phase, and the skewed partition they
// leave runs like any other.
TEST(UnevenPartition, RunsBitIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    auto engine = BuildRts(200, ShardOpts(PlanMode::kStaticGrid, 4, threads));
    Rng rng(7);
    for (int t = 0; t < 20; ++t) {
      if (t % 3 == 1) DespawnFromShard0(engine.get(), 200, 5, &rng);
      EXPECT_TRUE(engine->Tick().ok());
    }
    EXPECT_LT(ShardRows(engine.get(), 3), ShardRows(engine.get(), 0));
    return WorldChecksum(engine->world());
  };
  EXPECT_EQ(run(1), run(4));
}

// --- Despawn parity -------------------------------------------------------

// Every layout the despawn tests compare: the one-partition oracle, one
// partition at 1 and 4 threads, and {2, 4} shards at {1, 4} threads.
std::vector<EngineOptions> DespawnLayouts() {
  std::vector<EngineOptions> layouts = {
      ShardOpts(PlanMode::kStaticNL, 1, 1, 2048, /*interpreted=*/true),
      ShardOpts(PlanMode::kCostBased, 1, 1),
      ShardOpts(PlanMode::kCostBased, 1, 4, /*morsel=*/64)};
  for (int shards : {2, 4}) {
    for (int threads : {1, 4}) {
      layouts.push_back(
          ShardOpts(PlanMode::kCostBased, shards, threads, /*morsel=*/64));
    }
  }
  return layouts;
}

std::string Describe(const EngineOptions& o) {
  return "shards=" + std::to_string(o.exec.num_shards) +
         " threads=" + std::to_string(o.exec.num_threads) +
         (o.exec.interpreted ? " (oracle)" : "");
}

// Every U sends its `v` to the hub through a `last` effect, whose winner is
// the highest outer row. Despawning the first U moves the last U into its
// row, so the third U (v = 3) holds the highest row: the hub must read 3
// on every layout, a sharded one included.
constexpr const char* kHubProgram = R"sgl(
class Hub {
  state:
    number got = 0;
  effects:
    number e : last;
  update:
    got = e;
}
class U {
  state:
    number v = 0;
    ref<Hub> hub = null;
}
script S for U {
  hub.e <- v;
}
)sgl";

TEST(DespawnParity, LastEffectWinnerIsTheSameOnEveryLayout) {
  uint64_t baseline = 0;
  for (const EngineOptions& options : DespawnLayouts()) {
    SCOPED_TRACE(Describe(options));
    auto created = Engine::Create(kHubProgram, options);
    ASSERT_TRUE(created.ok()) << created.status();
    Engine& engine = **created;
    auto hub = engine.Spawn("Hub");
    ASSERT_TRUE(hub.ok());
    std::vector<EntityId> us;
    for (int v = 1; v <= 4; ++v) {
      auto u = engine.Spawn(
          "U", {{"v", Value::Number(v)}, {"hub", Value::Ref(*hub)}});
      ASSERT_TRUE(u.ok());
      us.push_back(*u);
    }
    ASSERT_TRUE(engine.Despawn(us[0]).ok());
    ASSERT_TRUE(engine.Tick().ok());
    EXPECT_EQ(engine.Get(*hub, "got")->AsNumber(), 3.0);
    const uint64_t sum = WorldChecksum(engine.world());
    if (baseline == 0) baseline = sum;
    EXPECT_EQ(sum, baseline);
  }
}

// A clustered RTS battle with despawns every few ticks: raw checksums and
// every survivor's health agree across all layouts.
TEST(DespawnParity, RtsWithDespawnsMatchesTheOracleOnEveryLayout) {
  constexpr int kUnits = 300;
  struct Result {
    uint64_t checksum = 0;
    std::vector<double> health;  ///< by entity id; -1 = despawned
  };
  auto run = [](const EngineOptions& options) {
    auto engine = BuildRts(kUnits, options);
    Rng rng(11);
    for (int t = 0; t < 24; ++t) {
      if (t % 4 == 1) {
        for (int k = 0; k < 6; ++k) {
          const EntityId id =
              1 + static_cast<EntityId>(rng.Next() % kUnits);
          if (engine->world().Find(id) != nullptr) {
            EXPECT_TRUE(engine->Despawn(id).ok());
          }
        }
      }
      EXPECT_TRUE(engine->Tick().ok());
    }
    Result r;
    r.checksum = WorldChecksum(engine->world());
    for (EntityId id = 1; id <= kUnits; ++id) {
      auto health = engine->Get(id, "health");
      r.health.push_back(health.ok() ? health->AsNumber() : -1);
    }
    return r;
  };
  const std::vector<EngineOptions> layouts = DespawnLayouts();
  const Result oracle = run(layouts[0]);
  EXPECT_LT(std::count(oracle.health.begin(), oracle.health.end(), -1.0),
            kUnits);
  EXPECT_GT(std::count(oracle.health.begin(), oracle.health.end(), -1.0), 0);
  for (size_t i = 1; i < layouts.size(); ++i) {
    SCOPED_TRACE(Describe(layouts[i]));
    const Result got = run(layouts[i]);
    EXPECT_EQ(got.checksum, oracle.checksum);
    EXPECT_EQ(got.health, oracle.health);
  }
}

// --- Despawn --------------------------------------------------------------

TEST(BulkRows, DespawnBatchDropsExactlyTheVictims) {
  auto engine = BuildRts(100, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(engine->Tick().ok());

  std::vector<EntityId> victims;
  for (EntityId id = 5; id <= 95; id += 5) victims.push_back(id);
  for (EntityId id : victims) ASSERT_TRUE(engine->Despawn(id).ok());
  EXPECT_TRUE(engine->sharded_world().PartitionConsistent());
  EXPECT_EQ(engine->world().TotalEntities(), 100u - victims.size());
  for (EntityId id : victims) {
    EXPECT_EQ(engine->world().Find(id), nullptr);
  }
  EXPECT_NE(engine->world().Find(1), nullptr);
  EXPECT_FALSE(engine->Despawn(victims[0]).ok()) << "despawned twice";
  ASSERT_TRUE(engine->RunTicks(3).ok());  // still ticks cleanly
}

// Spawns append through the plain World API; the partition folds them into
// the last shard, and despawns in between keep every range consistent.
TEST(BulkRows, SpawnsJoinTheLastShard) {
  auto engine = BuildRts(64, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(engine->Tick().ok());
  ShardedWorld& sharded = engine->sharded_world();

  std::vector<EntityId> spawned;
  for (int i = 0; i < 5; ++i) {
    auto id = engine->Spawn("Unit");
    ASSERT_TRUE(id.ok());
    spawned.push_back(*id);
  }
  for (EntityId id : spawned) EXPECT_EQ(sharded.ShardOfEntity(id), 3);
  EXPECT_TRUE(sharded.PartitionConsistent());
  ASSERT_TRUE(engine->Despawn(spawned[0]).ok());
  ASSERT_TRUE(engine->Spawn("Unit").ok());
  ASSERT_TRUE(engine->Despawn(1).ok());  // a shard-0 entity
  EXPECT_TRUE(sharded.PartitionConsistent());
  EXPECT_EQ(engine->world().TotalEntities(), 64u + 5u - 1u);
  ASSERT_TRUE(engine->RunTicks(3).ok());
  EXPECT_TRUE(sharded.PartitionConsistent());
}

// --- Directory (open-addressing World::Find) ------------------------------

TEST(EntityDirectoryTest, InsertFindEraseChurn) {
  EntityDirectory dir;
  Rng rng(5);
  std::vector<EntityId> live;
  for (int round = 0; round < 5000; ++round) {
    if (live.empty() || rng.Next() % 3 != 0) {
      EntityId id = 1 + static_cast<EntityId>(rng.Next() % 100000);
      if (dir.Find(id) == nullptr) {
        dir.Insert(id, static_cast<ClassId>(id % 3),
                   static_cast<RowIdx>(id % 977));
        live.push_back(id);
      }
    } else {
      size_t pick = rng.Next() % live.size();
      EntityId id = live[pick];
      EXPECT_TRUE(dir.Erase(id));
      EXPECT_EQ(dir.Find(id), nullptr);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(dir.size(), live.size());
  for (EntityId id : live) {
    const EntityLocator* loc = dir.Find(id);
    ASSERT_NE(loc, nullptr);
    EXPECT_EQ(loc->cls, static_cast<ClassId>(id % 3));
    EXPECT_EQ(loc->row, static_cast<RowIdx>(id % 977));
  }
  dir.Clear();
  EXPECT_EQ(dir.size(), 0u);
  for (EntityId id : live) {
    EXPECT_EQ(dir.Find(id), nullptr);
  }
}

// --- Checkpoint round-trip under sharding ---------------------------------

TEST(ShardParity, CheckpointRestoreResumesShardedRun) {
  auto engine = BuildRts(120, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(engine->RunTicks(10).ok());
  Checkpoint cp = engine->TakeCheckpoint();
  ASSERT_TRUE(engine->RunTicks(10).ok());
  const uint64_t final_sum = WorldChecksum(engine->world());

  auto resumed = BuildRts(120, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(resumed->Restore(cp).ok());
  EXPECT_EQ(resumed->tick(), cp.tick);
  ASSERT_TRUE(resumed->RunTicks(10).ok());
  EXPECT_EQ(WorldChecksum(resumed->world()), final_sum);
}

// Sharded checkpoints persist the partition: a run whose despawns left
// the ranges uneven resumes with those exact ranges (not a fresh
// re-blocking), so restored runs are bit-identical to the uninterrupted
// one and every entity stays in its shard.
TEST(ShardParity, CheckpointRestoresUnevenPartitionExactly) {
  const int units = 150;
  auto engine = BuildRts(units, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(engine->RunTicks(5).ok());

  // Despawn 25 entities of shard 0, which shrinks shard 3, then run a few
  // more ticks so the uneven partition is the live one. A re-blocking
  // would move rows of shards 0-2 up into shard 3.
  Rng rng(23);
  DespawnFromShard0(engine.get(), units, 25, &rng);
  ASSERT_TRUE(engine->RunTicks(3).ok());
  ASSERT_LT(ShardRows(engine.get(), 3), ShardRows(engine.get(), 2));

  Checkpoint cp = engine->TakeCheckpoint();
  EXPECT_FALSE(cp.shard_partition.empty());

  // Record the live partition, then continue the original run.
  std::vector<int> shard_of;
  for (EntityId id = 1; id <= units; ++id) {
    shard_of.push_back(engine->sharded_world().ShardOfEntity(id));
  }
  ASSERT_TRUE(engine->RunTicks(10).ok());
  const uint64_t final_sum = WorldChecksum(engine->world());

  auto resumed = BuildRts(units, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(resumed->Restore(cp).ok());
  EXPECT_TRUE(resumed->sharded_world().PartitionConsistent());
  for (EntityId id = 1; id <= units; ++id) {
    EXPECT_EQ(resumed->sharded_world().ShardOfEntity(id),
              shard_of[static_cast<size_t>(id - 1)])
        << "entity " << id << " restored into a different shard";
  }
  ASSERT_TRUE(resumed->RunTicks(10).ok());
  EXPECT_EQ(WorldChecksum(resumed->world()), final_sum);
}

// A checkpoint taken under one shard count restored under another cannot
// reuse the partition blob; restore falls back to fresh block ranges and
// still resumes with correct state.
TEST(ShardParity, CheckpointShardCountMismatchFallsBackToBlock) {
  auto engine = BuildRts(90, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(engine->RunTicks(5).ok());
  Checkpoint cp = engine->TakeCheckpoint();
  ASSERT_TRUE(engine->RunTicks(8).ok());
  const uint64_t final_sum = WorldChecksum(engine->world());

  auto resumed = BuildRts(90, ShardOpts(PlanMode::kStaticGrid, 2));
  ASSERT_TRUE(resumed->Restore(cp).ok());
  EXPECT_TRUE(resumed->sharded_world().PartitionConsistent());
  ASSERT_TRUE(resumed->RunTicks(8).ok());
  EXPECT_EQ(WorldChecksum(resumed->world()), final_sum);
}

// Direct round-trip of the partition blob, including the reject paths.
TEST(ShardedWorldTest, PartitionSerializeRestoreRoundTrip) {
  auto engine = BuildRts(64, ShardOpts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(engine->Tick().ok());
  ShardedWorld& sharded = engine->sharded_world();

  std::string blob;
  sharded.SerializePartition(&blob);
  EXPECT_TRUE(sharded.RestorePartition(blob).ok());
  EXPECT_TRUE(sharded.PartitionConsistent());

  std::string truncated = blob.substr(0, blob.size() - 3);
  EXPECT_FALSE(sharded.RestorePartition(truncated).ok());
  std::string garbage = blob;
  garbage[0] ^= 0x5a;  // magic
  EXPECT_FALSE(sharded.RestorePartition(garbage).ok());
  // Rejects must leave the good partition usable.
  EXPECT_TRUE(sharded.RestorePartition(blob).ok());
  EXPECT_TRUE(sharded.PartitionConsistent());
}

}  // namespace
}  // namespace sgl
