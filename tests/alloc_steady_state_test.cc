// Allocation-regression guard for the zero-allocation steady-state tick
// pipeline: after a short warmup (index buffers, scratch pools, and effect
// shards reach their high-water sizes), the QUERY→MERGE→UPDATE pipeline must
// perform zero heap allocations per tick on the RTS workload — in serial and
// in 4-thread parallel mode — and pooling must not change a single bit of
// the simulation relative to the object-at-a-time reference execution.

// PR 3 extends the guarantee to the *write* path: the transaction-heavy
// market workload (E3 — flat intent logs, dense epoch overlay, pooled set
// slices) and the traffic workload (E8) must also tick allocation-free, in
// serial and 4-thread mode, with bit-identical state across execution modes.

#include <gtest/gtest.h>

#include "src/common/alloc_hook.h"
#include "src/debug/checkpoint.h"
#include "src/debug/inspector.h"
#include "src/sim/armies.h"
#include "src/sim/market.h"
#include "src/sim/rts.h"
#include "src/sim/traffic.h"

namespace sgl {
namespace {

// Warmup must cover the workload's structural transitions (the flee handler
// only starts selecting rows once units drop below 25 health, ~tick 10), so
// every execution path has touched its scratch before measurement begins.
constexpr int kWarmupTicks = 24;
constexpr int kMeasuredTicks = 10;

EngineOptions Opts(PlanMode mode, int threads = 1, bool interpreted = false) {
  EngineOptions options;
  options.exec.planner.mode = mode;
  options.exec.num_threads = threads;
  options.exec.interpreted = interpreted;
  return options;
}

std::unique_ptr<Engine> BuildRts(int units, const EngineOptions& options) {
  RtsConfig config;
  config.num_units = units;
  // Battle mode from tick 0: join fan-out (and with it every scratch
  // buffer's high-water mark) peaks during warmup instead of creeping up
  // for hundreds of ticks as spread-out units slowly converge.
  config.clustered = true;
  auto engine = RtsWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

// Runs warmup then measured ticks; returns total allocations observed in
// the measured window and EXPECTs each tick to be allocation-free.
int64_t MeasureSteadyState(Engine* engine) {
  for (int t = 0; t < kWarmupTicks; ++t) {
    EXPECT_TRUE(engine->Tick().ok());
  }
  int64_t total = 0;
  for (int t = 0; t < kMeasuredTicks; ++t) {
    EXPECT_TRUE(engine->Tick().ok());
    const TickStats& stats = engine->last_stats();
    total += stats.allocs_per_tick;
    EXPECT_EQ(stats.allocs_per_tick, 0) << DescribeTickStats(stats);
  }
  return total;
}

TEST(AllocSteadyState, SerialGridIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  auto engine = BuildRts(800, Opts(PlanMode::kStaticGrid));
  EXPECT_EQ(MeasureSteadyState(engine.get()), 0);
}

TEST(AllocSteadyState, SerialCostBasedIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  auto engine = BuildRts(800, Opts(PlanMode::kCostBased));
  EXPECT_EQ(MeasureSteadyState(engine.get()), 0);
}

TEST(AllocSteadyState, Parallel4ThreadGridIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  auto engine = BuildRts(800, Opts(PlanMode::kStaticGrid, /*threads=*/4));
  EXPECT_EQ(MeasureSteadyState(engine.get()), 0);
}

TEST(AllocSteadyState, SerialNestedLoopIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  auto engine = BuildRts(250, Opts(PlanMode::kStaticNL));
  EXPECT_EQ(MeasureSteadyState(engine.get()), 0);
}

// --- SIMD kernels + batched probes + bytecode, still zero-alloc ----------
// The default fast path — bytecode expressions, AVX2 (or forced scalar)
// kernels, and QueryBatch probing with its pooled CSR buffers on a grid
// site — must hold the same steady-state guarantee in every execution
// shape.

EngineOptions FastPathOpts(int threads = 1, int shards = 1) {
  EngineOptions options = Opts(PlanMode::kStaticGrid, threads);
  options.exec.num_shards = shards;
  return options;
}

TEST(AllocSteadyState, SerialBytecodeBatchedIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  auto engine = BuildRts(800, FastPathOpts());
  EXPECT_EQ(MeasureSteadyState(engine.get()), 0);
  const TickStats& stats = engine->last_stats();
  EXPECT_GT(stats.vm_programs, 0) << "fast path must run bytecode";
  bool probed = false;
  for (const SiteFeedback& fb : stats.sites) {
    probed |= fb.site >= 0 && fb.strategy == JoinStrategy::kGrid &&
              fb.candidates > 0;
  }
  EXPECT_TRUE(probed) << "fast path must actually take batched probes";
}

TEST(AllocSteadyState, Parallel4ThreadBytecodeBatchedIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  auto engine = BuildRts(800, FastPathOpts(/*threads=*/4));
  EXPECT_EQ(MeasureSteadyState(engine.get()), 0);
}

// The sharded fast-path variant lives with the other sharded tests below,
// on the stationary battle they share.

// Determinism guard: the pooled pipeline must produce bit-identical world
// state across thread counts and against the unpooled object-at-a-time
// reference path (the seed engine's semantics).
TEST(AllocSteadyState, PoolingPreservesBitIdenticalState) {
  const int ticks = kWarmupTicks + kMeasuredTicks;
  const int units = 300;

  auto serial = BuildRts(units, Opts(PlanMode::kStaticGrid));
  ASSERT_TRUE(serial->RunTicks(ticks).ok());
  const uint64_t serial_sum = WorldChecksum(serial->world());

  auto parallel = BuildRts(units, Opts(PlanMode::kStaticGrid, 4));
  ASSERT_TRUE(parallel->RunTicks(ticks).ok());
  EXPECT_EQ(WorldChecksum(parallel->world()), serial_sum);

  auto interpreted =
      BuildRts(units, Opts(PlanMode::kStaticNL, 1, /*interpreted=*/true));
  ASSERT_TRUE(interpreted->RunTicks(ticks).ok());
  EXPECT_EQ(WorldChecksum(interpreted->world()), serial_sum);
}

// --- E3: transaction-heavy market (the write path) ------------------------

MarketConfig MarketCfg() {
  MarketConfig config;
  config.num_traders = 256;
  config.num_items = 512;
  config.contention = 8;
  config.active_fraction = 0.25;
  return config;
}

EngineOptions MarketOpts(int threads) {
  EngineOptions options = Opts(PlanMode::kCostBased, threads);
  // Small morsels force multi-shard intent emission in parallel mode, so
  // the flat intent logs and index-based admission ordering are exercised
  // across genuinely different shard partitionings.
  options.exec.morsel_size = 64;
  return options;
}

// Inventory churn makes the market's structural warmup longer than the RTS
// one: set-slice pools, intent logs, and overlay columns reach their
// high-water marks only after a few dozen ticks of trading.
constexpr int kMarketWarmupTicks = 40;

// Runs the market with per-tick want reassignment; asserts every measured
// tick is allocation-free and returns the final world checksum.
uint64_t RunMarketSteadyState(int threads, bool interpreted,
                              bool check_allocs, int shards = 1) {
  MarketConfig config = MarketCfg();
  EngineOptions options = MarketOpts(threads);
  options.exec.interpreted = interpreted;
  options.exec.num_shards = shards;
  auto engine = MarketWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  Rng rng(1234);
  for (int t = 0; t < kMarketWarmupTicks; ++t) {
    MarketWorkload::AssignWants(engine->get(), config, &rng);
    EXPECT_TRUE((*engine)->Tick().ok());
  }
  for (int t = 0; t < kMeasuredTicks; ++t) {
    MarketWorkload::AssignWants(engine->get(), config, &rng);
    EXPECT_TRUE((*engine)->Tick().ok());
    const TickStats& stats = (*engine)->last_stats();
    if (check_allocs) {
      EXPECT_EQ(stats.allocs_per_tick, 0) << DescribeTickStats(stats);
    }
    EXPECT_GT(stats.txn.issued, 0) << "tick must exercise the txn path";
  }
  EXPECT_TRUE(MarketWorkload::OwnershipConsistent(engine->get()));
  return WorldChecksum((*engine)->world());
}

TEST(AllocSteadyState, SerialMarketTransactionsAreAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  RunMarketSteadyState(/*threads=*/1, /*interpreted=*/false,
                       /*check_allocs=*/true);
}

TEST(AllocSteadyState, Parallel4ThreadMarketTransactionsAreAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  RunMarketSteadyState(/*threads=*/4, /*interpreted=*/false,
                       /*check_allocs=*/true);
}

// The flat write path must not change a single bit of the simulation:
// serial, 4-thread (multi-shard intent logs), and the object-at-a-time
// reference all converge to the same world state, statistics included.
TEST(AllocSteadyState, MarketStateIsBitIdenticalAcrossModes) {
  const uint64_t serial = RunMarketSteadyState(1, false, false);
  EXPECT_EQ(serial, RunMarketSteadyState(4, false, false));
  EXPECT_EQ(serial, RunMarketSteadyState(1, true, false));
}

// --- E8: traffic (cost-based planner, keyed effects) ----------------------

uint64_t RunTrafficSteadyState(int threads, bool check_allocs) {
  TrafficConfig config;
  config.num_vehicles = 4000;
  config.num_lanes = 32;
  EngineOptions options = Opts(PlanMode::kCostBased, threads);
  options.exec.morsel_size = 512;
  auto engine = TrafficWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  for (int t = 0; t < kWarmupTicks; ++t) {
    EXPECT_TRUE((*engine)->Tick().ok());
  }
  for (int t = 0; t < kMeasuredTicks; ++t) {
    EXPECT_TRUE((*engine)->Tick().ok());
    const TickStats& stats = (*engine)->last_stats();
    if (check_allocs) {
      EXPECT_EQ(stats.allocs_per_tick, 0) << DescribeTickStats(stats);
    }
  }
  return WorldChecksum((*engine)->world());
}

TEST(AllocSteadyState, SerialTrafficIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  RunTrafficSteadyState(/*threads=*/1, /*check_allocs=*/true);
}

TEST(AllocSteadyState, Parallel4ThreadTrafficIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  RunTrafficSteadyState(/*threads=*/4, /*check_allocs=*/true);
}

TEST(AllocSteadyState, TrafficStateIsBitIdenticalAcrossThreadCounts) {
  EXPECT_EQ(RunTrafficSteadyState(1, false), RunTrafficSteadyState(4, false));
}

// --- Sharded schedule (ExecOptions::num_shards) ---------------------------
// Once the per-worker effect buffers and scratch reach their high-water
// capacity, a sharded tick must be exactly as allocation-free as the
// single-world one — in serial shard order and with shards fanned out
// across threads.

EngineOptions ShardedOpts(PlanMode mode, int shards, int threads) {
  EngineOptions options = Opts(mode, threads);
  options.exec.num_shards = shards;
  return options;
}

// Zeroing attack freezes the engagement geometry: every matching pair
// still emits its damage write each tick, many of them into another
// shard's rows, but the load is stationary and every buffer reaches its
// high-water mark inside the warmup window.
std::unique_ptr<Engine> BuildStationaryShardedRts(
    int units, const EngineOptions& options) {
  RtsConfig config;
  config.num_units = units;
  config.clustered = true;
  config.cluster_radius = 10;  // dense: everyone engaged from tick 0
  auto engine = RtsWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  for (EntityId id = 1; id <= units; ++id) {
    EXPECT_TRUE((*engine)->Set(id, "attack", Value::Number(0)).ok());
  }
  return std::move(engine).value();
}

TEST(AllocSteadyState, Sharded4SerialRtsIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  auto engine = BuildStationaryShardedRts(
      800, ShardedOpts(PlanMode::kStaticGrid, /*shards=*/4, /*threads=*/1));
  EXPECT_EQ(MeasureSteadyState(engine.get()), 0);
}

TEST(AllocSteadyState, Sharded4Parallel4RtsIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  auto engine = BuildStationaryShardedRts(
      800, ShardedOpts(PlanMode::kStaticGrid, /*shards=*/4, /*threads=*/4));
  EXPECT_EQ(MeasureSteadyState(engine.get()), 0);
}

TEST(AllocSteadyState, Sharded4BytecodeBatchedIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  auto engine = BuildStationaryShardedRts(800, FastPathOpts(/*threads=*/1,
                                                            /*shards=*/4));
  EXPECT_EQ(MeasureSteadyState(engine.get()), 0);
}

TEST(AllocSteadyState, Sharded4MarketTransactionsAreAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  RunMarketSteadyState(/*threads=*/1, /*interpreted=*/false,
                       /*check_allocs=*/true, /*shards=*/4);
}

TEST(AllocSteadyState, Sharded4Parallel4MarketTransactionsAreAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  RunMarketSteadyState(/*threads=*/4, /*interpreted=*/false,
                       /*check_allocs=*/true, /*shards=*/4);
}

// Sharded steady state must also be the *same* steady state.
TEST(AllocSteadyState, ShardedMarketMatchesSingleWorldChecksum) {
  EXPECT_EQ(RunMarketSteadyState(4, false, false, /*shards=*/4),
            RunMarketSteadyState(1, false, false));
}

// --- Async out-of-band jobs (src/async/) ---------------------------------
// With background goal-field workers continuously fed (a crowd penalty
// re-submits one field every tick), steady-state ticks must stay
// allocation-free *across all threads*: job slots, snapshots, blobs, goal
// field storage, completion lanes, and per-worker search scratch all sit
// at their high-water marks while jobs are genuinely in flight.

uint64_t RunAsyncArmiesSteadyState(int workers, int shards, int tick_threads,
                                   bool check_allocs) {
  ArmiesConfig config;
  config.num_units = 384;
  config.map_w = 40;
  config.map_h = 40;
  config.num_armies = 6;
  config.num_rally = 4;
  config.async_pathfind = true;
  config.async.latency_ticks = 2;
  config.async.result_ttl_ticks = 12;
  // Snapshot capture and one field re-submitted every tick: sustained job
  // traffic.
  config.async.crowd_penalty = 0.5;
  EngineOptions options;
  options.exec.jobs.num_workers = workers;
  options.exec.num_shards = shards;
  options.exec.num_threads = tick_threads;
  auto engine = ArmiesWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  // Warmup covers two full goal-churn waves, so the measured third wave
  // reuses pooled slots/blobs/keys shaped like the ones before it.
  int round = 0;
  for (int t = 0; t < 110; ++t) {
    if (t > 0 && t % 36 == 0) {
      ArmiesWorkload::Retarget(engine->get(), config, ++round);
    }
    EXPECT_TRUE((*engine)->Tick().ok());
  }
  int64_t in_flight_ticks = 0;
  for (int t = 0; t < kMeasuredTicks; ++t) {
    EXPECT_TRUE((*engine)->Tick().ok());
    const TickStats& stats = (*engine)->last_stats();
    if (check_allocs) {
      EXPECT_EQ(stats.allocs_per_tick, 0) << DescribeTickStats(stats);
    }
    if (stats.jobs_in_flight > 0) ++in_flight_ticks;
  }
  EXPECT_GT(in_flight_ticks, 0)
      << "measured window must have jobs in flight";
  return WorldChecksum((*engine)->world());
}

TEST(AllocSteadyState, AsyncPathfind4WorkersIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  RunAsyncArmiesSteadyState(/*workers=*/4, /*shards=*/1, /*tick_threads=*/1,
                            /*check_allocs=*/true);
}

TEST(AllocSteadyState, AsyncPathfindInlineIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  RunAsyncArmiesSteadyState(/*workers=*/0, /*shards=*/1, /*tick_threads=*/1,
                            /*check_allocs=*/true);
}

TEST(AllocSteadyState, AsyncPathfindSharded4Parallel4IsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  RunAsyncArmiesSteadyState(/*workers=*/4, /*shards=*/4, /*tick_threads=*/4,
                            /*check_allocs=*/true);
}

// Inline mode beside a 4-thread tick pool: the pool runs the query phase
// and the barrier's drain runs every job on the tick thread.
TEST(AllocSteadyState, AsyncPathfindInlineParallel4IsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  RunAsyncArmiesSteadyState(/*workers=*/0, /*shards=*/1, /*tick_threads=*/4,
                            /*check_allocs=*/true);
}

TEST(AllocSteadyState, AsyncPathfind1WorkerSharded2Parallel2IsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  RunAsyncArmiesSteadyState(/*workers=*/1, /*shards=*/2, /*tick_threads=*/2,
                            /*check_allocs=*/true);
}

TEST(AllocSteadyState, AsyncPathfindStateMatchesAcrossWorkerCounts) {
  const uint64_t inline_sum = RunAsyncArmiesSteadyState(0, 1, 1, false);
  EXPECT_EQ(RunAsyncArmiesSteadyState(4, 1, 1, false), inline_sum);
  EXPECT_EQ(RunAsyncArmiesSteadyState(4, 4, 4, false), inline_sum);
  EXPECT_EQ(RunAsyncArmiesSteadyState(0, 1, 4, false), inline_sum);
  EXPECT_EQ(RunAsyncArmiesSteadyState(1, 2, 2, false), inline_sum);
}

// The counters themselves must move when the program allocates — otherwise
// the == 0 assertions above would pass vacuously.
TEST(AllocSteadyState, CountersObserveAllocations) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  const AllocCounts before = AllocCountersNow();
  auto* sink = new std::vector<double>(1024);
  const AllocCounts after = AllocCountersNow();
  delete sink;
  EXPECT_GT(after.count, before.count);
  EXPECT_GE(after.bytes - before.bytes,
            static_cast<int64_t>(1024 * sizeof(double)));
}

}  // namespace
}  // namespace sgl
