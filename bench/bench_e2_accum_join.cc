// E2 — Figure 2's accum-loop as a relational plan (§2.1): join-strategy
// sweep for the range-count query.
//
// ms/tick at n units for NL / grid joins on the literal Figure-2 query.
// Expected: NL quadratic; grid near-linear.

#include "bench/bench_util.h"

namespace {

const char* kFigure2 = R"sgl(
class Unit {
  state:
    number x = 0;
    number y = 0;
    number range = 12;
    number pad0 = 0;
    number pad1 = 0;
    number pad2 = 0;
    number pad3 = 0;
    number neighbours = 0;
  effects:
    number cnt_out : last;
  update:
    neighbours = cnt_out;
}
script Count for Unit {
  accum number cnt with sum over Unit u from Unit {
    if (u.x >= x - range && u.x <= x + range &&
        u.y >= y - range && u.y <= y + range) {
      cnt <- 1;
    }
  } in {
    cnt_out <- cnt;
  }
}
)sgl";

std::unique_ptr<sgl::Engine> BuildFigure2(int n, sgl::PlanMode mode) {
  auto engine = sgl::Engine::Create(kFigure2, sgl_bench::Options(mode));
  if (!engine.ok()) std::abort();
  sgl::Rng rng(4242);
  for (int i = 0; i < n; ++i) {
    auto id = (*engine)->Spawn(
        "Unit", {{"x", sgl::Value::Number(rng.Uniform(0, 1000))},
                 {"y", sgl::Value::Number(rng.Uniform(0, 1000))}});
    if (!id.ok()) std::abort();
  }
  return std::move(engine).value();
}

void RunStrategy(benchmark::State& state, sgl::PlanMode mode) {
  auto engine = BuildFigure2(static_cast<int>(state.range(0)), mode);
  sgl_bench::Warmup(engine.get());
  int64_t matches = 0;
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
    matches = engine->last_stats().sites[0].matches;
  }
  state.counters["matches"] = static_cast<double>(matches);
}

void BM_JoinNl(benchmark::State& state) {
  RunStrategy(state, sgl::PlanMode::kStaticNL);
}
void BM_JoinGrid(benchmark::State& state) {
  RunStrategy(state, sgl::PlanMode::kStaticGrid);
}

BENCHMARK(BM_JoinNl)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(BM_JoinGrid)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(8192)
    ->Arg(32768)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);

}  // namespace

BENCHMARK_MAIN();
