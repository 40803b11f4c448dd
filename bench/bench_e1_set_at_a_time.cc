// E1 — the headline claim (§1–2): "we can dramatically improve the
// performance of computer games ... by using database query processing and
// indexing technology to process these behaviors set-at-a-time."
//
// Series: ms/tick for the RTS battle at n units under three engines —
//   interpreted     object-at-a-time (per-NPC scalar eval, full scans):
//                   what a traditional scripting engine does
//   compiled-nl     set-at-a-time, but nested-loop joins (vectorization
//                   alone, no indexing)
//   compiled-grid   set-at-a-time + grid index joins (full SGL)
//
// Expected shape: interpreted and compiled-nl grow ~O(n^2); compiled-grid
// near-linear on spread units. The compiled/interpreted gap widens with n.

#include <algorithm>

#include "bench/bench_util.h"

namespace {

using sgl_bench::BuildRts;
using sgl_bench::Warmup;

void BM_Interpreted(benchmark::State& state) {
  auto engine = BuildRts(static_cast<int>(state.range(0)),
                         sgl::PlanMode::kStaticNL, /*interpreted=*/true);
  Warmup(engine.get());
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
  state.counters["units"] = static_cast<double>(state.range(0));
}

void BM_CompiledNl(benchmark::State& state) {
  auto engine =
      BuildRts(static_cast<int>(state.range(0)), sgl::PlanMode::kStaticNL);
  Warmup(engine.get());
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
  state.counters["units"] = static_cast<double>(state.range(0));
}

// Full SGL on the grid access path — the zero-allocation steady state.
// allocs_per_tick is the per-tick average over the timed window; after the
// scratch pools reach high water it should report ~0.
void BM_CompiledGrid(benchmark::State& state) {
  auto engine = BuildRts(static_cast<int>(state.range(0)),
                         sgl::PlanMode::kStaticGrid);
  sgl_bench::WarmupSteadyState(engine.get());
  int64_t allocs = 0;
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
    allocs += engine->last_stats().allocs_per_tick;
  }
  state.counters["units"] = static_cast<double>(state.range(0));
  state.counters["allocs_per_tick"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}

BENCHMARK(BM_Interpreted)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(BM_CompiledNl)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(BM_CompiledGrid)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Arg(8192)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);

}  // namespace

BENCHMARK_MAIN();
