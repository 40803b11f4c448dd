// E12 — asynchronous out-of-band pathfinding (src/async/): tick latency
// of the goal-field pathfinder on the large-map armies workload, repathing
// under goal churn.
//
// Series: ms/tick for N soldiers marching across a walled grid while their
// orders rotate every kChurnPeriod ticks.
//
//   * async/W   — AsyncPathfindComponent over a JobService with W workers:
//                 one goal field per rally cell, searched off the tick
//                 across `latency_ticks` boundaries and installed
//                 deterministically; with the crowd penalty on, one field
//                 is re-searched per tick. W = 0 is the inline reference
//                 mode (same install schedule, search cost paid at the
//                 barrier).
//   * async/W/T — the same with T tick threads. The tick pool runs the
//                 query phase only; due jobs no worker has claimed run in
//                 the barrier's drain on the tick thread for any T. At
//                 W = 1 and 16k units, T = 2, 4 against T = 1 shows what
//                 extra query threads do to the slowest tick
//                 (`max_tick_ms`).
//
// Counters: phase breakdown, allocs/tick, jobs submitted/installed/in
// flight, barrier wait, drain runs per tick (`fallback_runs`) and the
// slowest tick (`max_tick_ms`, the retarget tick's install hitch). The
// determinism side (bit-identical state across worker counts) is pinned by
// tests/async_test.cc, not measured here.

#include <algorithm>
#include <thread>

#include "bench/bench_util.h"
#include "src/sim/armies.h"

namespace {

constexpr int kChurnPeriod = 16;

sgl::ArmiesConfig E12Config(int units) {
  sgl::ArmiesConfig config;
  config.num_units = units;
  config.map_w = 128;
  config.map_h = 128;
  config.num_armies = 32;
  config.num_rally = 12;
  config.wall_density = 0.08;
  config.async.latency_ticks = 2;
  config.async.result_ttl_ticks = 24;
  config.async.crowd_penalty = 0.25;  // jobs read the position snapshot
  return config;
}

void RunTicks(sgl::Engine* engine, const sgl::ArmiesConfig& config,
              benchmark::State& state) {
  int64_t query_us = 0, update_us = 0, allocs = 0;
  int64_t submitted = 0, installed = 0, in_flight = 0, wait_us = 0;
  int64_t max_tick_us = 0;
  int64_t ticks = 0, round = 1;
  const sgl::JobService* jobs = engine->executor().jobs_or_null();
  const int64_t fallback_before =
      jobs != nullptr ? jobs->total_fallback_runs() : 0;
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
    const sgl::TickStats& stats = engine->last_stats();
    max_tick_us = std::max(max_tick_us, stats.total_micros);
    query_us += stats.query_effect_micros;
    update_us += stats.update_micros;
    allocs += stats.allocs_per_tick;
    submitted += stats.jobs_submitted;
    installed += stats.jobs_installed;
    in_flight += stats.jobs_in_flight;
    wait_us += stats.job_wait_micros;
    if (++ticks % kChurnPeriod == 0) {
      sgl::ArmiesWorkload::Retarget(engine, config,
                                    static_cast<int>(round++));
    }
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["units"] = config.num_units;
  state.counters["query_ms"] = static_cast<double>(query_us) / n / 1000.0;
  state.counters["update_ms"] = static_cast<double>(update_us) / n / 1000.0;
  state.counters["allocs_per_tick"] = static_cast<double>(allocs) / n;
  state.counters["jobs_submitted"] = static_cast<double>(submitted) / n;
  state.counters["jobs_installed"] = static_cast<double>(installed) / n;
  state.counters["jobs_in_flight"] = static_cast<double>(in_flight) / n;
  state.counters["job_wait_ms"] = static_cast<double>(wait_us) / n / 1000.0;
  state.counters["fallback_runs"] =
      jobs != nullptr
          ? static_cast<double>(jobs->total_fallback_runs() - fallback_before) /
                n
          : 0.0;
  state.counters["max_tick_ms"] = static_cast<double>(max_tick_us) / 1000.0;
  state.counters["hw_cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}

void BM_E12_AsyncTick(benchmark::State& state) {
  const int units = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  const sgl::ArmiesConfig config = E12Config(units);
  sgl::EngineOptions options =
      sgl_bench::Options(sgl::PlanMode::kCostBased, false, threads);
  options.exec.jobs.num_workers = workers;
  auto engine = sgl::ArmiesWorkload::Build(config, options);
  if (!engine.ok()) std::abort();
  sgl_bench::WarmupSteadyState(engine->get());
  RunTicks(engine->get(), config, state);
  state.counters["workers"] = workers;
  state.counters["threads"] = threads;
}

// Args: {units, job workers, tick threads}.
BENCHMARK(BM_E12_AsyncTick)
    ->Args({4096, 0, 1})
    ->Args({4096, 4, 1})
    ->Args({16384, 0, 1})
    ->Args({16384, 1, 1})
    ->Args({16384, 1, 2})
    ->Args({16384, 1, 4})
    ->Args({16384, 4, 1})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);

// The full stack: async pathfinding over a 4-shard world ticking with 4
// threads — completions ride the shard barrier.
void BM_E12_AsyncShardedTick(benchmark::State& state) {
  const int units = static_cast<int>(state.range(0));
  const sgl::ArmiesConfig config = E12Config(units);
  sgl::EngineOptions options =
      sgl_bench::Options(sgl::PlanMode::kCostBased, false, /*threads=*/4);
  options.exec.num_shards = 4;
  options.exec.jobs.num_workers = 4;
  auto engine = sgl::ArmiesWorkload::Build(config, options);
  if (!engine.ok()) std::abort();
  sgl_bench::WarmupSteadyState(engine->get());
  RunTicks(engine->get(), config, state);
  state.counters["workers"] = 4;
  state.counters["shards"] = 4;
}

BENCHMARK(BM_E12_AsyncShardedTick)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);

}  // namespace

BENCHMARK_MAIN();
