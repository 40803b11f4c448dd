// E11 — sharded world partitioning (src/shard/): tick latency, phase
// breakdown and allocs_per_tick vs shard count at 16k and 64k entities.
//
// Series: ms/tick for the RTS battle under {1, 2, 4, 8} shards, each
// shard a row range one worker runs, its effects written to full-size
// per-worker buffers merged at the tick barrier; the single-shard row is
// the no-partition baseline the checksum-parity tests pin the others to.
// Also: the traffic workload at 16k vehicles, where the 1-D road keeps
// interactions lane-local.

#include <thread>

#include "bench/bench_util.h"
#include "src/engine/engine.h"

namespace {

std::unique_ptr<sgl::Engine> BuildShardedRts(int units, int shards,
                                             int threads,
                                             bool clustered = true) {
  sgl::RtsConfig config;
  config.num_units = units;
  config.clustered = clustered;
  sgl::EngineOptions options =
      sgl_bench::Options(sgl::PlanMode::kStaticGrid, false, threads);
  options.exec.num_shards = shards;
  auto engine = sgl::RtsWorkload::Build(config, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  // Zero attack so nobody dies: the measured regime keeps every matching
  // pair emitting its damage write each tick — a stationary peak load
  // instead of a battle that decays to an empty world during warmup.
  for (sgl::EntityId id = 1; id <= units; ++id) {
    if (!(*engine)->Set(id, "attack", sgl::Value::Number(0)).ok()) {
      std::abort();
    }
  }
  return std::move(engine).value();
}

// Threads stay at 1 so the series isolates the partition layer's own cost
// (per-worker buffers and their merge vs direct dense writes); on a
// multicore box the shard fan-out additionally parallelizes the query
// phase (E6's scaling shape), which `hw_cores` lets readers of the JSON
// calibrate for. The 16k rows are the dense clustered battle; 64k runs
// uniform, or the join fan-out would swamp the measurement.
void BM_ShardedRtsTick(benchmark::State& state) {
  const int units = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  auto engine = BuildShardedRts(units, shards, /*threads=*/1,
                                /*clustered=*/units <= 16384);
  sgl_bench::WarmupSteadyState(engine.get());
  int64_t query_us = 0, merge_us = 0, update_us = 0, allocs = 0;
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
    query_us += engine->last_stats().query_effect_micros;
    merge_us += engine->last_stats().merge_micros;
    update_us += engine->last_stats().update_micros;
    allocs += engine->last_stats().allocs_per_tick;
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["units"] = units;
  state.counters["shards"] = shards;
  state.counters["query_ms"] = static_cast<double>(query_us) / n / 1000.0;
  state.counters["merge_ms"] = static_cast<double>(merge_us) / n / 1000.0;
  state.counters["update_ms"] = static_cast<double>(update_us) / n / 1000.0;
  state.counters["allocs_per_tick"] = static_cast<double>(allocs) / n;
  state.counters["hw_cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}

BENCHMARK(BM_ShardedRtsTick)
    ->Args({16384, 1})
    ->Args({16384, 2})
    ->Args({16384, 4})
    ->Args({16384, 8})
    ->Args({65536, 1})
    ->Args({65536, 4})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);

// Traffic at 16k vehicles: lane-local interactions under a block
// partition mean almost no writes into another shard's rows.
void BM_ShardedTrafficTick(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  sgl::TrafficConfig config;
  config.num_vehicles = 16384;
  config.num_lanes = 32;
  sgl::EngineOptions options =
      sgl_bench::Options(sgl::PlanMode::kCostBased, false, /*threads=*/1);
  options.exec.num_shards = shards;
  auto engine = sgl::TrafficWorkload::Build(config, options);
  if (!engine.ok()) std::abort();
  sgl_bench::WarmupSteadyState(engine->get());
  int64_t allocs = 0;
  for (auto _ : state) {
    if (!(*engine)->Tick().ok()) state.SkipWithError("tick failed");
    allocs += (*engine)->last_stats().allocs_per_tick;
  }
  state.counters["shards"] = shards;
  state.counters["allocs_per_tick"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}

BENCHMARK(BM_ShardedTrafficTick)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);

}  // namespace

BENCHMARK_MAIN();
