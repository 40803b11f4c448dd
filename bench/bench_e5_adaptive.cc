// E5 — adaptive plan selection across workload modes (§4.1).
//
// The workload alternates every 25 ticks between "exploration" (units
// spread over the whole arena: tiny query boxes relative to the world, few
// matches) and "battle" (everyone clumped into hotspots: dense joins).
// Series: mean ms/tick for each planning policy (nested loop, grid,
// cost-based, adaptive) over the alternating run. Expected shape: the grid
// wins the spread mode by far and stays ahead of nested loop in the clumped
// one; the cost-based and adaptive policies track the per-mode winner,
// landing at or near the per-phase minimum overall. Switch/drift counters show the
// adaptive controller actually reacting.

#include "bench/bench_util.h"

namespace {

void RunPolicy(benchmark::State& state, sgl::PlanMode mode) {
  sgl::RtsConfig config;
  config.num_units = 2048;
  config.attack_range = 25;
  auto engine = sgl::RtsWorkload::Build(config, sgl_bench::Options(mode));
  if (!engine.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  sgl_bench::Warmup(engine->get());
  int64_t tick_in_run = 0;
  for (auto _ : state) {
    if (tick_in_run % 15 == 0) {
      state.PauseTiming();
      bool battle = (tick_in_run / 15) % 2 == 1;
      sgl::RtsWorkload::RepositionMode(engine->get(), config, battle,
                                       static_cast<uint64_t>(tick_in_run));
      state.ResumeTiming();
    }
    if (!(*engine)->Tick().ok()) state.SkipWithError("tick failed");
    ++tick_in_run;
  }
  state.counters["plan_switches"] =
      static_cast<double>((*engine)->executor().controller().switches());
  state.counters["drift_resets"] =
      static_cast<double>((*engine)->executor().controller().drift_resets());
}

void BM_PolicyStaticNl(benchmark::State& state) {
  RunPolicy(state, sgl::PlanMode::kStaticNL);
}
void BM_PolicyStaticGrid(benchmark::State& state) {
  RunPolicy(state, sgl::PlanMode::kStaticGrid);
}
void BM_PolicyCostBased(benchmark::State& state) {
  RunPolicy(state, sgl::PlanMode::kCostBased);
}
void BM_PolicyAdaptive(benchmark::State& state) {
  RunPolicy(state, sgl::PlanMode::kAdaptive);
}

BENCHMARK(BM_PolicyStaticNl)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(60);
BENCHMARK(BM_PolicyStaticGrid)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(60);
BENCHMARK(BM_PolicyCostBased)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(60);
BENCHMARK(BM_PolicyAdaptive)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(60);

}  // namespace

BENCHMARK_MAIN();
