// E13 — "compile the tick" (src/vm/): the register bytecode VM with fused
// filter→project→effect pipelines, the vectorized path's only expression
// evaluator, on the compiled set-at-a-time plans.
//
// Series: ms/tick —
//   dense      nested-loop join plans (E1 RTS battle, E8 traffic): every
//              pair runs the composed filter, so expression evaluation
//              dominates the tick and the fused compare-and-compact
//              conjuncts carry it (survivors compact after each conjunct).
//   indexed    the production access paths (grid / cost-based): the index
//              prunes most pairs, so the tick is probe- and fold-bound —
//              one QueryBatch per morsel, SIMD range filter, pooled CSR
//              output.
//
// The series keep their historical names (bytecode:1, batched:1) so
// compare_bench.py still pairs them with earlier BENCH_<tag>.json files;
// the tree-walker and per-row probe arms they were once compared against
// no longer exist.
//
// Every series reports allocs_per_tick (steady state must stay
// allocation-free), vm_programs, simd_lanes (per tick, 0 under forced
// scalar), probe_us, and the CPU/dispatch context (cpu_avx2, kernel_avx2)
// so recorded numbers are interpretable across machines.

#include <algorithm>
#include <memory>

#include "bench/bench_util.h"
#include "src/common/cpu_features.h"

namespace {

std::unique_ptr<sgl::Engine> BuildWorkload(bool traffic, int n,
                                           sgl::PlanMode mode) {
  sgl::EngineOptions options;
  options.exec.planner.mode = mode;
  if (traffic) {
    sgl::TrafficConfig config;
    config.num_vehicles = n;
    auto engine = sgl::TrafficWorkload::Build(config, options);
    if (!engine.ok()) std::abort();
    return std::move(engine).value();
  }
  sgl::RtsConfig config;
  config.num_units = n;
  config.clustered = true;  // battle mode: dense join fan-out from tick 0
  auto engine = sgl::RtsWorkload::Build(config, options);
  if (!engine.ok()) std::abort();
  return std::move(engine).value();
}

void RunTicks(benchmark::State& state, sgl::Engine* engine) {
  sgl_bench::WarmupSteadyState(engine);
  int64_t allocs = 0, simd_lanes = 0, probe_us = 0;
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
    allocs += engine->last_stats().allocs_per_tick;
    simd_lanes += engine->last_stats().simd_lanes_used;
    probe_us += engine->last_stats().probe_micros;
  }
  const double iters =
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
  state.counters["n"] = static_cast<double>(state.range(2));
  state.counters["allocs_per_tick"] = static_cast<double>(allocs) / iters;
  state.counters["vm_programs"] =
      static_cast<double>(engine->last_stats().vm_programs);
  state.counters["simd_lanes"] = static_cast<double>(simd_lanes) / iters;
  state.counters["probe_us"] = static_cast<double>(probe_us) / iters;
  state.counters["cpu_avx2"] = sgl::CpuHasAvx2() ? 1 : 0;
  state.counters["kernel_avx2"] =
      sgl::ActiveKernelDispatch() == sgl::KernelDispatch::kAvx2 ? 1 : 0;
}

// Dense ticks: forced nested-loop plans, expression-evaluation bound.
void BM_BytecodeVsInterpret(benchmark::State& state) {
  auto engine = BuildWorkload(state.range(1) != 0,
                              static_cast<int>(state.range(2)),
                              sgl::PlanMode::kStaticNL);
  RunTicks(state, engine.get());
}

// Indexed steady state: the production plans (grid RTS, cost-based
// traffic), batched probes.
void BM_BytecodeVsInterpretIndexed(benchmark::State& state) {
  const bool traffic = state.range(1) != 0;
  auto engine = BuildWorkload(
      traffic, static_cast<int>(state.range(2)),
      traffic ? sgl::PlanMode::kCostBased : sgl::PlanMode::kStaticGrid);
  RunTicks(state, engine.get());
}

}  // namespace

BENCHMARK(BM_BytecodeVsInterpret)
    ->ArgNames({"bytecode", "traffic", "n"})
    ->Args({1, 0, 600})
    ->Args({1, 1, 2000})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_BytecodeVsInterpretIndexed)
    ->ArgNames({"bytecode", "traffic", "n", "batched"})
    ->Args({1, 0, 1000, 1})
    ->Args({1, 1, 4000, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
