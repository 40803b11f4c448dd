// E6 — multicore scaling of the read-only query+effect phases (§4.2).
//
// "Since all tables are read-only until the update phase, effect
// computation can occur without synchronization." Series: ms/tick for the
// 16k-unit RTS battle at 1/2/4/8 threads, plus the per-phase breakdown
// (query+effect parallelizes; merge and update are the serial residue).
// Expected shape: near-linear speedup of the query phase up to physical
// cores, Amdahl-limited total speedup.

#include <thread>

#include "bench/bench_util.h"

namespace {

void BM_ParallelTick(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  auto engine = sgl_bench::BuildRts(16384, sgl::PlanMode::kStaticGrid,
                                    /*interpreted=*/false, threads,
                                    /*clustered=*/false);
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
  state.counters["threads"] = threads;
  state.counters["query_ms"] = static_cast<double>(query_us) / n / 1000.0;
  state.counters["merge_ms"] = static_cast<double>(merge_us) / n / 1000.0;
  state.counters["update_ms"] = static_cast<double>(update_us) / n / 1000.0;
  state.counters["allocs_per_tick"] = static_cast<double>(allocs) / n;
  state.counters["hw_cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}

BENCHMARK(BM_ParallelTick)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1);

// The same sweep on the clustered (battle) workload, whose heavier join
// output stresses the sharded effect merge.
void BM_ParallelTickClustered(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  auto engine = sgl_bench::BuildRts(8192, sgl::PlanMode::kStaticGrid,
                                    false, threads, /*clustered=*/true);
  sgl_bench::Warmup(engine.get());
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
  state.counters["threads"] = threads;
}

BENCHMARK(BM_ParallelTickClustered)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1);

}  // namespace

BENCHMARK_MAIN();
