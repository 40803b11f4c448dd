// Parity of the query-phase schedule (src/exec/tick_executor.h): checksum
// parity of parallel runs against the serial run across thread count ×
// morsel size (RTS, and a multi-phase script plus reactive handler), the
// partition-independence of transaction admission across worker intent
// logs, spawns and despawns that give the same rows and results at every
// thread count and in the oracle, runs with despawns that stay
// bit-identical across thread counts and survive a checkpoint exactly, and
// restores that ignore a partition stored by earlier versions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
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

EngineOptions ExecOpts(PlanMode mode, int threads = 1, size_t morsel = 2048,
                       bool interpreted = false) {
  EngineOptions options;
  options.exec.planner.mode = mode;
  options.exec.num_threads = threads;
  options.exec.morsel_size = morsel;
  options.exec.interpreted = interpreted;
  return options;
}

std::unique_ptr<Engine> BuildRts(int units, const EngineOptions& options) {
  RtsConfig config;
  config.num_units = units;
  config.clustered = true;  // dense joins: damage lands in every morsel
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

// Every thread × morsel configuration of `run(threads, morsel)` must
// reproduce the serial checksum.
template <typename Run>
void ExpectSweepParity(Run run, std::initializer_list<int> thread_counts) {
  const uint64_t baseline = run(1, 2048);
  for (int threads : thread_counts) {
    for (size_t morsel : {size_t{7}, size_t{64}, size_t{2048}}) {
      EXPECT_EQ(run(threads, morsel), baseline)
          << "threads=" << threads << " morsel=" << morsel;
    }
  }
}

TEST(Parity, RtsThreadCountMorselSweep) {
  ExpectSweepParity(
      [](int threads, size_t morsel) {
        return RunRts(ExecOpts(PlanMode::kStaticGrid, threads, morsel));
      },
      {1, 2, 3, 4});
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

PatrolRun RunPatrol(int threads, size_t morsel) {
  EngineOptions options;
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

TEST(Parity, PatrolThreadCountMorselSweep) {
  const PatrolRun serial = RunPatrol(1, 2048);
  EXPECT_GT(serial.alerts, 0) << "the handler never fired";
  EXPECT_GE(serial.pc_values, 2u) << "PC dispatch never split the guards";
  ExpectSweepParity(
      [](int threads, size_t morsel) {
        return RunPatrol(threads, morsel).checksum;
      },
      {1, 4});
}

TEST(Parity, RtsMatchesAcrossPlanModes) {
  const uint64_t baseline = RunRts(ExecOpts(PlanMode::kStaticGrid));
  EXPECT_EQ(RunRts(ExecOpts(PlanMode::kCostBased, 4, /*morsel=*/64)),
            baseline);
  EXPECT_EQ(RunRts(ExecOpts(PlanMode::kStaticNL, 1, 2048,
                            /*interpreted=*/true)),
            baseline);
}

// --- E3: transactional market ---------------------------------------------

MarketConfig MarketCfg() {
  MarketConfig config;
  config.num_traders = 128;
  config.num_items = 256;
  config.contention = 6;
  config.active_fraction = 0.25;
  return config;
}

uint64_t RunMarket(int threads, size_t morsel,
                   int64_t* committed = nullptr) {
  MarketConfig config = MarketCfg();
  EngineOptions options = ExecOpts(PlanMode::kCostBased, threads, morsel);
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

// Admission must be independent of how the intents are split: the same
// intent multiset partitioned across 1, 2 or 4 worker logs, in morsels of
// 64 or 8 rows, commits the same transactions (txn_test holds admission
// itself to every partitioning).
TEST(Parity, MarketAdmissionIndependentOfWorkerPartitioning) {
  int64_t committed1 = 0;
  const uint64_t baseline = RunMarket(1, 64, &committed1);
  for (int threads : {2, 4}) {
    for (size_t morsel : {size_t{8}, size_t{64}}) {
      int64_t committed = 0;
      EXPECT_EQ(RunMarket(threads, morsel, &committed), baseline)
          << "threads=" << threads << " morsel=" << morsel;
      EXPECT_EQ(committed, committed1);
    }
  }
}

// --- E8: traffic ----------------------------------------------------------

uint64_t RunTraffic(int threads) {
  TrafficConfig config;
  config.num_vehicles = 1500;
  config.num_lanes = 16;
  EngineOptions options =
      ExecOpts(PlanMode::kCostBased, threads, /*morsel=*/512);
  auto engine = TrafficWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->RunTicks(kTicks).ok());
  EXPECT_TRUE(
      TrafficWorkload::PositionsInBounds(engine->get(), config.road_length));
  return WorldChecksum((*engine)->world());
}

TEST(Parity, TrafficMatchesSerial) {
  const uint64_t baseline = RunTraffic(1);
  EXPECT_EQ(RunTraffic(2), baseline);
  EXPECT_EQ(RunTraffic(4), baseline);
}

// --- Despawns -------------------------------------------------------------

// Despawns up to `n` live entities of the first quarter of their class's
// rows, drawn from ids [1, max_id] by `rng`. A despawn swap-removes: the
// class's last row moves into the victim's row, so a run of these moves
// entities of the last morsels into the first.
void DespawnFromFirstQuarter(Engine* engine, EntityId max_id, int n,
                             Rng* rng) {
  for (int attempt = 0; attempt < 1000 && n > 0; ++attempt) {
    const EntityId id = 1 + static_cast<EntityId>(rng->Next() % max_id);
    const World::Locator* loc = engine->world().Find(id);
    if (loc == nullptr ||
        loc->row >= engine->world().table(loc->cls).size() / 4) {
      continue;
    }
    EXPECT_TRUE(engine->Despawn(id).ok());
    --n;
  }
  EXPECT_EQ(n, 0) << "the first quarter ran out of entities";
}

// Runs with identical despawn schedules are bit-identical for any thread
// count — despawns happen between ticks, never concurrently with the
// query phase, and the next tick's morsels cover the shrunk class like
// any other.
TEST(Despawns, RunsBitIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    auto engine =
        BuildRts(200, ExecOpts(PlanMode::kStaticGrid, threads, /*morsel=*/64));
    Rng rng(7);
    for (int t = 0; t < 20; ++t) {
      if (t % 3 == 1) DespawnFromFirstQuarter(engine.get(), 200, 5, &rng);
      EXPECT_TRUE(engine->Tick().ok());
    }
    return WorldChecksum(engine->world());
  };
  EXPECT_EQ(run(1), run(4));
}

// --- Despawn parity -------------------------------------------------------

// Every layout the despawn tests compare: the object-at-a-time oracle,
// then 1 thread, and {2, 4} threads in morsels of 64 rows.
std::vector<EngineOptions> DespawnLayouts() {
  return {ExecOpts(PlanMode::kStaticNL, 1, 2048, /*interpreted=*/true),
          ExecOpts(PlanMode::kCostBased, 1),
          ExecOpts(PlanMode::kCostBased, 2, /*morsel=*/64),
          ExecOpts(PlanMode::kCostBased, 4, /*morsel=*/64)};
}

std::string Describe(const EngineOptions& o) {
  return "threads=" + std::to_string(o.exec.num_threads) +
         " morsel=" + std::to_string(o.exec.morsel_size) +
         (o.exec.interpreted ? " (oracle)" : "");
}

// Every U sends its `v` to the hub through a `last` effect, whose winner is
// the highest outer row. Despawning the first U moves the last U into its
// row, so the third U (v = 3) holds the highest row: the hub must read 3
// on every layout.
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

// A clustered RTS battle with despawns every few ticks and spawns into the
// first cluster in between: raw checksums and every survivor's health
// agree across all layouts.
TEST(DespawnParity, RtsWithDespawnsMatchesTheOracleOnEveryLayout) {
  constexpr int kUnits = 300;
  constexpr int kSpawned = 8 * 6;  ///< 8 spawns at each of 6 ticks
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
      if (t % 4 == 3) {
        for (int k = 0; k < 8; ++k) {
          EXPECT_TRUE(engine
                          ->Spawn("Unit", {{"player", Value::Number(k % 2)},
                                           {"x", Value::Number(190 + 4 * k)},
                                           {"y", Value::Number(500)},
                                           {"range", Value::Number(15)}})
                          .ok());
        }
      }
      EXPECT_TRUE(engine->Tick().ok());
    }
    Result r;
    r.checksum = WorldChecksum(engine->world());
    for (EntityId id = 1; id <= kUnits + kSpawned; ++id) {
      auto health = engine->Get(id, "health");
      r.health.push_back(health.ok() ? health->AsNumber() : -1);
    }
    return r;
  };
  const std::vector<EngineOptions> layouts = DespawnLayouts();
  const Result oracle = run(layouts[0]);
  EXPECT_LT(std::count(oracle.health.begin(), oracle.health.end(), -1.0),
            kUnits + kSpawned);
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
  auto engine =
      BuildRts(100, ExecOpts(PlanMode::kStaticGrid, 4, /*morsel=*/16));
  ASSERT_TRUE(engine->Tick().ok());

  std::vector<EntityId> victims;
  for (EntityId id = 5; id <= 95; id += 5) victims.push_back(id);
  for (EntityId id : victims) ASSERT_TRUE(engine->Despawn(id).ok());
  EXPECT_EQ(engine->world().TotalEntities(), 100u - victims.size());
  for (EntityId id : victims) {
    EXPECT_EQ(engine->world().Find(id), nullptr);
  }
  EXPECT_NE(engine->world().Find(1), nullptr);
  EXPECT_FALSE(engine->Despawn(victims[0]).ok()) << "despawned twice";
  ASSERT_TRUE(engine->RunTicks(3).ok());  // still ticks cleanly
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

// --- Checkpoint round-trip -----------------------------------------------

EngineOptions ParallelOpts() {
  return ExecOpts(PlanMode::kStaticGrid, 4, /*morsel=*/64);
}

TEST(Parity, CheckpointRestoreResumesParallelRun) {
  auto engine = BuildRts(120, ParallelOpts());
  ASSERT_TRUE(engine->RunTicks(10).ok());
  Checkpoint cp = engine->TakeCheckpoint();
  ASSERT_TRUE(engine->RunTicks(10).ok());
  const uint64_t final_sum = WorldChecksum(engine->world());

  auto resumed = BuildRts(120, ParallelOpts());
  ASSERT_TRUE(resumed->Restore(cp).ok());
  EXPECT_EQ(resumed->tick(), cp.tick);
  ASSERT_TRUE(resumed->RunTicks(10).ok());
  EXPECT_EQ(WorldChecksum(resumed->world()), final_sum);
}

// A parallel run with despawns restores bit-identically: the checkpoint
// holds no partition (the section is written empty), and the restored run
// works out the same morsels from the same class sizes.
TEST(Parity, CheckpointWithDespawnsRestoresExactly) {
  const int units = 150;
  auto engine = BuildRts(units, ParallelOpts());
  ASSERT_TRUE(engine->RunTicks(5).ok());

  // Despawn 25 entities of the first quarter, then run a few more ticks.
  Rng rng(23);
  DespawnFromFirstQuarter(engine.get(), units, 25, &rng);
  ASSERT_TRUE(engine->RunTicks(3).ok());

  Checkpoint cp = engine->TakeCheckpoint();
  EXPECT_TRUE(cp.shard_partition.empty());
  ASSERT_TRUE(engine->RunTicks(10).ok());
  const uint64_t final_sum = WorldChecksum(engine->world());

  auto resumed = BuildRts(units, ParallelOpts());
  ASSERT_TRUE(resumed->Restore(cp).ok());
  ASSERT_TRUE(resumed->RunTicks(10).ok());
  EXPECT_EQ(WorldChecksum(resumed->world()), final_sum);
}

// A checkpoint taken at one thread count restores at another and resumes
// with correct state.
TEST(Parity, CheckpointRestoresAtAnotherThreadCount) {
  auto engine = BuildRts(90, ParallelOpts());
  ASSERT_TRUE(engine->RunTicks(5).ok());
  Checkpoint cp = engine->TakeCheckpoint();
  ASSERT_TRUE(engine->RunTicks(8).ok());
  const uint64_t final_sum = WorldChecksum(engine->world());

  auto resumed = BuildRts(90, ExecOpts(PlanMode::kStaticGrid, 1));
  ASSERT_TRUE(resumed->Restore(cp).ok());
  ASSERT_TRUE(resumed->RunTicks(8).ok());
  EXPECT_EQ(WorldChecksum(resumed->world()), final_sum);
}

// Earlier versions stored each class's shard boundaries in the
// checkpoint's `shard_partition` section. Restore ignores that blob: a
// checkpoint carrying one with uneven boundaries — whole, or cut short —
// resumes at 1 and 4 threads exactly like the uninterrupted run.
TEST(Parity, RestoreIgnoresAStoredPartition) {
  const int units = 120;
  auto engine = BuildRts(units, ParallelOpts());
  ASSERT_TRUE(engine->RunTicks(6).ok());
  Checkpoint cp = engine->TakeCheckpoint();
  ASSERT_TRUE(engine->RunTicks(8).ok());
  const uint64_t final_sum = WorldChecksum(engine->world());

  // The earlier format: magic "SPAR", shard count, class count, then per
  // class num_shards + 1 ascending row boundaries — here uneven ones.
  auto append = [&](uint32_t v) {
    char bytes[sizeof(v)];
    std::memcpy(bytes, &v, sizeof(v));
    cp.shard_partition.append(bytes, sizeof(v));
  };
  const int num_classes = engine->catalog().num_classes();
  append(0x53504152u);
  append(4);
  append(static_cast<uint32_t>(num_classes));
  for (ClassId c = 0; c < num_classes; ++c) {
    const uint32_t n =
        static_cast<uint32_t>(engine->world().table(c).size());
    for (uint32_t b : {0u, n / 8, n / 2, n / 2 + 1, n}) append(b);
  }

  Checkpoint truncated = cp;
  truncated.shard_partition.resize(cp.shard_partition.size() - 3);
  for (const Checkpoint* restored : {&cp, &truncated}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " blob bytes=" +
                   std::to_string(restored->shard_partition.size()));
      auto resumed = BuildRts(
          units, ExecOpts(PlanMode::kStaticGrid, threads, /*morsel=*/64));
      ASSERT_TRUE(resumed->Restore(*restored).ok());
      ASSERT_TRUE(resumed->RunTicks(8).ok());
      EXPECT_EQ(WorldChecksum(resumed->world()), final_sum);
    }
  }
}

}  // namespace
}  // namespace sgl
