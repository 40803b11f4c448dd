// E7 — range-index space and cost (§4.2).
//
// "Each of these trees takes Θ(n·log^(d−1) n) space ... a tree with 100,000
// entries of 16 bytes each takes about 2 GB to store." The engine's one
// range index is the uniform grid, whose memory is linear in n; the range
// tree's measured table is kept in src/index/README.md.
//
// Benchmarks: cold build (with bytes_per_entry, flat in n), steady-state
// rebuild (the per-tick cost; allocs_per_build asserts the zero-allocation
// rebuild), single-box query time, and batched probes (QueryBatch), plain
// and over a filtered, key-partitioned grid.

#include <algorithm>
#include <cmath>

#include "bench/bench_util.h"
#include "src/common/alloc_hook.h"
#include "src/index/grid_index.h"

namespace {

std::vector<std::vector<double>> RandomPoints(size_t n, int d,
                                              uint64_t seed) {
  sgl::Rng rng(seed);
  std::vector<std::vector<double>> coords(
      static_cast<size_t>(d), std::vector<double>(n));
  for (auto& dim : coords) {
    for (double& v : dim) v = rng.Uniform(0, 1000);
  }
  return coords;
}

void BM_GridBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  auto coords = RandomPoints(n, d, 5);
  for (auto _ : state) {
    sgl::GridIndex grid(d);
    auto copy = coords;
    grid.Build(std::move(copy), {}, nullptr);
    benchmark::DoNotOptimize(grid.MemoryBytes());
  }
  sgl::GridIndex grid(d);
  grid.Build(coords);
  state.counters["bytes_per_entry"] =
      static_cast<double>(grid.MemoryBytes()) / static_cast<double>(n);
}

// Steady-state rebuild: one persistent index cycling its column buffer
// through the swapping Build, exactly the per-tick path IndexManager drives.
// allocs_per_build measures heap traffic per rebuild (0 once past high
// water).
void BM_GridRebuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const auto coords = RandomPoints(n, d, 5);
  sgl::GridIndex index(d);
  auto buf = coords;
  for (int warm = 0; warm < 3; ++warm) {
    for (int k = 0; k < d; ++k) {
      buf[static_cast<size_t>(k)].assign(coords[static_cast<size_t>(k)].begin(),
                                         coords[static_cast<size_t>(k)].end());
    }
    index.Build(std::move(buf), {}, nullptr);
  }
  const sgl::AllocCounts before = sgl::AllocCountersNow();
  for (auto _ : state) {
    for (int k = 0; k < d; ++k) {
      buf[static_cast<size_t>(k)].assign(coords[static_cast<size_t>(k)].begin(),
                                         coords[static_cast<size_t>(k)].end());
    }
    index.Build(std::move(buf), {}, nullptr);
    benchmark::DoNotOptimize(index.MemoryBytes());
  }
  const sgl::AllocCounts after = sgl::AllocCountersNow();
  state.counters["allocs_per_build"] =
      static_cast<double>(after.count - before.count) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}

void BM_GridQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  sgl::GridIndex grid(d);
  grid.Build(RandomPoints(n, d, 5));
  sgl::Rng rng(6);
  std::vector<sgl::RowIdx> out;
  for (auto _ : state) {
    std::vector<double> lo(static_cast<size_t>(d)), hi(static_cast<size_t>(d));
    for (int k = 0; k < d; ++k) {
      double c = rng.Uniform(0, 1000);
      lo[static_cast<size_t>(k)] = c - 20;
      hi[static_cast<size_t>(k)] = c + 20;
    }
    out.clear();
    grid.Query(lo.data(), hi.data(), &out);
    benchmark::DoNotOptimize(out.size());
  }
}

// Batched probe over a morsel of boxes, the join loop's index call.
// Args: {points, probes, target candidates per probe, keys}; 2-D points
// are uniform over [0, 1000]^2 in random row order, and each box is a
// square sized for the target. {2048, 2048, 100, 0} has every slice span
// at most 32 bitmap words, so EmitAscending takes the bitmap scan.
// {65536, 2048, 2, 0} is sparse-wide: a couple of rows scattered over
// ~1000 words, so each slice takes the std::sort fallback. keys > 0 pushes
// both accum parts into the grid: the build keeps 3 rows in 4 (a keep
// mask, like `w.health > 0`) and keys row i by i % keys, and probe p
// carries key p % keys (like `w.player != player`). {2048, 2048, 100, 2}
// is battle's shape, two key partitions; at 3 keys, past
// kMaxKeyPartitions, the grid keeps one partition and checks keys per row.
void BM_GridQueryBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t probes = static_cast<size_t>(state.range(1));
  const double per_probe = static_cast<double>(state.range(2));
  const int64_t num_keys = state.range(3);
  sgl::GridIndex index(2);
  std::vector<double> keys;
  std::vector<sgl::RowIdx> kept;
  if (num_keys > 0) {
    keys.resize(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<double>(static_cast<int64_t>(i) % num_keys);
      if (i % 4 != 3) kept.push_back(static_cast<sgl::RowIdx>(i));
    }
  }
  index.Build(RandomPoints(n, 2, 5), std::move(keys),
              num_keys > 0 ? &kept : nullptr);
  const double half =
      0.5 * std::sqrt(per_probe * 1e6 / static_cast<double>(n));
  std::vector<std::vector<double>> lo(2, std::vector<double>(probes));
  std::vector<std::vector<double>> hi(2, std::vector<double>(probes));
  std::vector<double> probe_keys(probes);
  sgl::Rng rng(6);
  for (size_t p = 0; p < probes; ++p) {
    for (size_t k = 0; k < 2; ++k) {
      const double c = rng.Uniform(0, 1000);
      lo[k][p] = c - half;
      hi[k][p] = c + half;
    }
    if (num_keys > 0) {
      probe_keys[p] = static_cast<double>(static_cast<int64_t>(p) % num_keys);
    }
  }
  const double* lo_cols[2] = {lo[0].data(), lo[1].data()};
  const double* hi_cols[2] = {hi[0].data(), hi[1].data()};
  const double* key_col = num_keys > 0 ? probe_keys.data() : nullptr;
  sgl::ProbeBatch batch;
  index.QueryBatch(lo_cols, hi_cols, key_col, probes, &batch);
  for (auto _ : state) {
    index.QueryBatch(lo_cols, hi_cols, key_col, probes, &batch);
    benchmark::DoNotOptimize(batch.items.data());
    benchmark::ClobberMemory();
  }
  state.counters["candidates_per_probe"] =
      static_cast<double>(batch.items.size()) / static_cast<double>(probes);
  state.counters["partitions"] = index.num_partitions();
}

BENCHMARK(BM_GridBuild)
    ->Args({16384, 2})
    ->Args({65536, 2})
    ->Args({16384, 3})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(BM_GridRebuild)
    ->Args({16384, 2})
    ->Args({65536, 2})
    ->Args({16384, 3})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(BM_GridQuery)
    ->Args({65536, 2})
    ->Args({16384, 3})
    ->Unit(benchmark::kMicrosecond)
    ->MinTime(0.05);
BENCHMARK(BM_GridQueryBatch)
    ->Args({2048, 2048, 100, 0})
    ->Args({2048, 2048, 100, 2})
    ->Args({2048, 2048, 100, 3})
    ->Args({65536, 2048, 2, 0})
    ->Unit(benchmark::kMicrosecond)
    ->MinTime(0.05);

}  // namespace

BENCHMARK_MAIN();
