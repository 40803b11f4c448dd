// Batched index probes (GridIndex::QueryBatch, src/index/probe_batch.h)
// must be a pure restructuring of per-box Query calls: for every probe
// mix — ordinary boxes, degenerate (lo == hi), inverted
// (lo > hi, contract: empty slice), whole-world boxes, duplicate-heavy
// point sets — slice p of the CSR output must equal Query(box p) + sort,
// element for element. On top of the structural contract, the engine-level
// sweep asserts the observable guarantee: the fast path's batched probes
// reach the scalar oracle's world checksum (the oracle probes nothing — it
// scans), under the grid and the planner modes, serially and at 4 threads
// in default and 64-row morsels. The EmitAscending cases pin the row-order
// emit that produces every slice: bitmap word boundaries, the sparse-wide
// sort fallback, a clean bitmap across table sizes, and zero allocations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/alloc_hook.h"
#include "src/common/rng.h"
#include "src/debug/checkpoint.h"
#include "src/index/grid_index.h"
#include "src/index/probe_batch.h"
#include "src/sim/rts.h"

namespace sgl {
namespace {

std::vector<std::vector<double>> RandomPoints(int n, int d, Rng* rng,
                                              bool duplicate_heavy) {
  std::vector<std::vector<double>> coords(
      static_cast<size_t>(d), std::vector<double>(static_cast<size_t>(n)));
  for (int k = 0; k < d; ++k) {
    for (int i = 0; i < n; ++i) {
      // Duplicate-heavy mode snaps coordinates to a 12-value lattice, so
      // many points coincide exactly and boxes hit ties on their edges.
      double v = duplicate_heavy
                     ? static_cast<double>(rng->NextBelow(12)) * 9.0
                     : rng->Uniform(0, 100);
      coords[static_cast<size_t>(k)][static_cast<size_t>(i)] = v;
    }
  }
  return coords;
}

struct BoxColumns {
  std::vector<std::vector<double>> lo, hi;
  const double* lo_ptr[kMaxIndexDims];
  const double* hi_ptr[kMaxIndexDims];
  size_t count = 0;
};

/// Random probe mix: ~60% ordinary boxes, plus degenerate boxes pinned to
/// an existing point (guaranteed ties), inverted boxes, and whole-world
/// boxes that pull in every row.
BoxColumns RandomBoxes(int d, size_t count, Rng* rng,
                       const std::vector<std::vector<double>>& points) {
  BoxColumns b;
  b.count = count;
  b.lo.assign(static_cast<size_t>(d), std::vector<double>(count));
  b.hi.assign(static_cast<size_t>(d), std::vector<double>(count));
  const size_t n = points[0].size();
  for (size_t p = 0; p < count; ++p) {
    const uint64_t kind = rng->NextBelow(10);
    for (int k = 0; k < d; ++k) {
      double a = rng->Uniform(0, 100), bb = rng->Uniform(0, 100);
      double lo = std::min(a, bb), hi = std::max(a, bb);
      if (kind < 2 && n > 0) {  // degenerate: lo == hi == a point coord
        lo = hi = points[static_cast<size_t>(k)][rng->NextBelow(n)];
      } else if (kind == 2) {  // inverted on this dim: empty by contract
        lo = std::max(a, bb) + 1.0;
        hi = std::min(a, bb);
      } else if (kind == 3) {  // whole world
        lo = -1e300;
        hi = 1e300;
      }
      b.lo[static_cast<size_t>(k)][p] = lo;
      b.hi[static_cast<size_t>(k)][p] = hi;
    }
  }
  for (int k = 0; k < d; ++k) {
    b.lo_ptr[k] = b.lo[static_cast<size_t>(k)].data();
    b.hi_ptr[k] = b.hi[static_cast<size_t>(k)].data();
  }
  return b;
}

/// Asserts QueryBatch(boxes) == per-box Query + sort on `index`.
void ExpectBatchMatchesSingle(const GridIndex& index, const BoxColumns& b,
                              int d, ProbeBatch* reused) {
  ProbeBatch& batch = *reused;
  index.QueryBatch(b.lo_ptr, b.hi_ptr, nullptr, b.count, &batch);
  ASSERT_EQ(batch.num_probes(), b.count);
  std::vector<RowIdx> single;
  for (size_t p = 0; p < b.count; ++p) {
    double lo[kMaxIndexDims], hi[kMaxIndexDims];
    bool inverted = false;
    for (int k = 0; k < d; ++k) {
      lo[k] = b.lo[static_cast<size_t>(k)][p];
      hi[k] = b.hi[static_cast<size_t>(k)][p];
      if (lo[k] > hi[k]) inverted = true;
    }
    single.clear();
    if (!inverted) index.Query(lo, hi, &single);
    std::sort(single.begin(), single.end());
    ASSERT_EQ(batch.offsets[p + 1] - batch.offsets[p], single.size())
        << "probe " << p;
    EXPECT_TRUE(std::equal(single.begin(), single.end(), batch.begin_of(p)))
        << "probe " << p;
    // Contract: every slice arrives sorted ascending.
    EXPECT_TRUE(std::is_sorted(batch.begin_of(p), batch.end_of(p)))
        << "probe " << p;
  }
}

void ExpectBatchMatchesSingle(const GridIndex& index, const BoxColumns& b,
                              int d) {
  ProbeBatch batch;
  ExpectBatchMatchesSingle(index, b, d, &batch);
}

struct Sweep {
  int n;
  int d;
  bool duplicate_heavy;
  uint64_t seed;
};

class ProbeBatchDifferential : public ::testing::TestWithParam<Sweep> {};

TEST_P(ProbeBatchDifferential, GridBatchMatchesSingle) {
  const Sweep& p = GetParam();
  Rng rng(p.seed);
  auto points = RandomPoints(p.n, p.d, &rng, p.duplicate_heavy);
  GridIndex grid(p.d);
  grid.Build(points);
  for (int round = 0; round < 3; ++round) {
    auto boxes = RandomBoxes(p.d, 40, &rng, points);
    ExpectBatchMatchesSingle(grid, boxes, p.d);
  }
}

TEST(ProbeBatchEdge, EmptyIndexAndZeroProbes) {
  GridIndex grid(2);
  grid.Build(std::vector<std::vector<double>>(2));
  Rng rng(7);
  auto points = RandomPoints(4, 2, &rng, false);
  auto boxes = RandomBoxes(2, 8, &rng, points);
  ProbeBatch batch;
  grid.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, nullptr, boxes.count, &batch);
  for (size_t p = 0; p < boxes.count; ++p) {
    EXPECT_EQ(batch.offsets[p + 1], batch.offsets[p]);
  }
  grid.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, nullptr, 0, &batch);
  EXPECT_EQ(batch.num_probes(), 0u);
}

// --- EmitAscending: the row-order emit behind every slice -----------------

/// 1-D points where row i sits at coordinate i, so a box [a, b] selects
/// exactly rows ceil(a)..floor(b) and a test can aim at word boundaries.
std::vector<std::vector<double>> RowLine(size_t n) {
  std::vector<std::vector<double>> coords(1, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) coords[0][i] = static_cast<double>(i);
  return coords;
}

BoxColumns Boxes1D(const std::vector<std::pair<double, double>>& boxes) {
  BoxColumns b;
  b.count = boxes.size();
  b.lo.assign(1, std::vector<double>(b.count));
  b.hi.assign(1, std::vector<double>(b.count));
  for (size_t p = 0; p < b.count; ++p) {
    b.lo[0][p] = boxes[p].first;
    b.hi[0][p] = boxes[p].second;
  }
  b.lo_ptr[0] = b.lo[0].data();
  b.hi_ptr[0] = b.hi[0].data();
  return b;
}

bool AllZero(const std::vector<uint64_t>& bits) {
  return std::all_of(bits.begin(), bits.end(),
                     [](uint64_t w) { return w == 0; });
}

TEST(EmitAscending, MatchesSortAcrossWordBoundaries) {
  const std::vector<std::vector<RowIdx>> slices = {
      {65, 63, 64},          {64},           {63, 0},
      {129, 0, 64, 63, 127}, {130, 128, 129}, {191, 2, 150, 64, 65, 1}};
  std::vector<uint64_t> bits;
  for (const auto& slice : slices) {
    std::vector<RowIdx> want = slice;
    std::sort(want.begin(), want.end());
    std::vector<RowIdx> got(slice.size());
    EmitAscending(slice.data(), slice.size(), got.data(), &bits);
    EXPECT_EQ(want, got);
    EXPECT_TRUE(AllZero(bits));
    std::vector<RowIdx> in_place = slice;
    EmitAscending(in_place.data(), in_place.size(), in_place.data(), &bits);
    EXPECT_EQ(want, in_place);
    EXPECT_TRUE(AllZero(bits));
  }
}

TEST(EmitAscending, WordBoundaryProbesMatchSingle) {
  // n % 64 != 0, so the last bitmap word is partial.
  const size_t n = 130;
  const auto points = RowLine(n);
  GridIndex grid(1);
  grid.Build(points);
  const BoxColumns boxes =
      Boxes1D({{63, 65}, {62.5, 64.5}, {64, 64}, {63, 63}, {0, 129},
               {-5, 200}, {127, 129}, {65, 65}, {0, 63}, {64, 127}});
  ProbeBatch batch;
  ExpectBatchMatchesSingle(grid, boxes, 1, &batch);
  // Every slice here is dense, so each went through the bitmap.
  EXPECT_GE(batch.bits.size() * 64, n);
  EXPECT_TRUE(AllZero(batch.bits));
}

TEST(EmitAscending, SparseWideSliceTakesSortFallback) {
  // A wide box over three far-apart rows of a 100k-row index: the box
  // spans many grid cells, but its slice is rows {0, 50000, 99999}, ~1563
  // bitmap words for 3 rows, so it must be ordered by std::sort and must
  // never touch the bitmap. Every other row sits far outside the box.
  const size_t n = 100000;
  auto points = RowLine(n);
  for (size_t i = 0; i < n; ++i) {
    points[0][i] = 1000.0 + static_cast<double>(i);
  }
  points[0][n - 1] = 10.0;
  points[0][n / 2] = 50.0;
  points[0][0] = 90.0;
  GridIndex grid(1);
  grid.Build(points);
  const BoxColumns boxes = Boxes1D({{0, 100}});
  ProbeBatch batch;
  ExpectBatchMatchesSingle(grid, boxes, 1, &batch);
  ASSERT_EQ(3u, batch.items.size());
  EXPECT_EQ(0u, batch.items[0]);
  EXPECT_EQ(n / 2, batch.items[1]);
  EXPECT_EQ(n - 1, batch.items[2]);
  EXPECT_TRUE(batch.bits.empty()) << "sparse slice went through the bitmap";
}

TEST(EmitAscending, BitmapStaysZeroAcrossTableSizes) {
  // One per-worker ProbeBatch serves every site, so the bitmap must be
  // clean after each call whatever the inner table's size.
  const auto small_points = RowLine(100);
  const auto large_points = RowLine(100000);
  GridIndex small_grid(1), large_grid(1);
  small_grid.Build(small_points);
  large_grid.Build(large_points);
  const BoxColumns small_boxes =
      Boxes1D({{0, 99}, {10, 70}, {63, 64}, {98, 99}});
  const BoxColumns large_boxes = Boxes1D(
      {{0, 500}, {99000, 99999}, {50000, 50200}, {63, 64}, {-1, 1e9}});
  ProbeBatch batch;
  for (int round = 0; round < 3; ++round) {
    ExpectBatchMatchesSingle(small_grid, small_boxes, 1, &batch);
    EXPECT_TRUE(AllZero(batch.bits));
    ExpectBatchMatchesSingle(large_grid, large_boxes, 1, &batch);
    EXPECT_TRUE(AllZero(batch.bits));
  }
  EXPECT_GE(batch.bits.size() * 64, large_points[0].size() - 1);
}

TEST(EmitAscending, ZeroAllocationsAtHighWater) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  Rng rng(31);
  const auto points = RandomPoints(2048, 2, &rng, false);
  GridIndex grid(2);
  grid.Build(points);
  const BoxColumns boxes = RandomBoxes(2, 256, &rng, points);
  ProbeBatch batch;
  for (int warm = 0; warm < 2; ++warm) {
    grid.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, nullptr, boxes.count, &batch);
  }
  const AllocCounts before = AllocCountersNow();
  for (int q = 0; q < 5; ++q) {
    grid.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, nullptr, boxes.count, &batch);
  }
  const AllocCounts after = AllocCountersNow();
  EXPECT_EQ(0, after.count - before.count);
}

TEST(EmitAscendingDeathTest, DuplicateRowFailsLoudly) {
#ifdef NDEBUG
  GTEST_SKIP() << "SGL_DCHECK is compiled out in NDEBUG builds";
#else
  std::vector<uint64_t> bits;
  const RowIdx dense[] = {3, 5, 3};
  RowIdx out[3];
  EXPECT_DEATH(EmitAscending(dense, 3, out, &bits), "");
  const RowIdx sparse[] = {0, 100000, 0};
  EXPECT_DEATH(EmitAscending(sparse, 3, out, &bits), "");
#endif
}

// --- Filtered, key-partitioned grids -------------------------------------

/// Brute-force reference for a filtered, keyed grid: the rows of `kept`
/// inside box p by the language's `v >= lo && v <= hi` (false for a NaN
/// coordinate or edge) whose key is `!=` the probe key, ascending.
std::vector<RowIdx> BruteForce(const std::vector<std::vector<double>>& coords,
                               const std::vector<RowIdx>& kept,
                               const std::vector<double>& keys,
                               const BoxColumns& b, const double* probe_keys,
                               size_t p) {
  std::vector<RowIdx> out;
  for (RowIdx r : kept) {
    bool inside = true;
    for (size_t k = 0; k < coords.size(); ++k) {
      const double v = coords[k][r];
      if (!(v >= b.lo[k][p] && v <= b.hi[k][p])) {
        inside = false;
      }
    }
    if (inside && (probe_keys == nullptr || keys[r] != probe_keys[p])) {
      out.push_back(r);
    }
  }
  return out;
}

/// Builds a filtered, keyed grid over `coords` and asserts every
/// QueryBatch slice equals the brute-force scan, for keyed and unkeyed
/// probes. Returns the grid's partition count.
int ExpectKeyedBatchMatchesBruteForce(
    const std::vector<std::vector<double>>& coords,
    const std::vector<RowIdx>& kept, const std::vector<double>& keys,
    const BoxColumns& boxes, const std::vector<double>& probe_keys) {
  const int d = static_cast<int>(coords.size());
  GridIndex grid(d);
  auto coords_copy = coords;
  auto keys_copy = keys;
  grid.Build(std::move(coords_copy), std::move(keys_copy), &kept);
  size_t indexed = 0;  // rows with a NaN coordinate are not indexed
  for (RowIdx r : kept) {
    bool nan = false;
    for (const auto& c : coords) nan = nan || std::isnan(c[r]);
    indexed += nan ? 0 : 1;
  }
  EXPECT_EQ(indexed, grid.size());
  ProbeBatch batch;
  for (const double* q : {probe_keys.data(),
                          static_cast<const double*>(nullptr)}) {
    grid.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, q, boxes.count, &batch);
    EXPECT_EQ(boxes.count, batch.num_probes());
    for (size_t p = 0; p < boxes.count; ++p) {
      const std::vector<RowIdx> want =
          BruteForce(coords, kept, keys, boxes, q, p);
      EXPECT_EQ(want, std::vector<RowIdx>(batch.begin_of(p), batch.end_of(p)))
          << "probe " << p << (q != nullptr ? " key " : " unkeyed ")
          << (q != nullptr ? q[p] : 0.0);
    }
    EXPECT_TRUE(AllZero(batch.bits));
  }
  return grid.num_partitions();
}

/// Every third row dropped by the build filter.
std::vector<RowIdx> KeepMost(size_t n) {
  std::vector<RowIdx> kept;
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 != 1) kept.push_back(static_cast<RowIdx>(i));
  }
  return kept;
}

TEST(KeyedGrid, FilteredPartitionsMatchBruteForce) {
  Rng rng(41);
  for (int d = 1; d <= 3; ++d) {
    const size_t n = 400;
    const auto points = RandomPoints(static_cast<int>(n), d, &rng, d == 2);
    std::vector<double> keys(n);
    for (double& k : keys) {
      k = static_cast<double>(rng.NextBelow(kMaxKeyPartitions));
    }
    const auto boxes = RandomBoxes(d, 120, &rng, points);
    // Probe key kMaxKeyPartitions matches no partition, so its probes walk
    // them all.
    std::vector<double> probe_keys(boxes.count);
    for (double& k : probe_keys) {
      k = static_cast<double>(rng.NextBelow(kMaxKeyPartitions + 1));
    }
    EXPECT_EQ(kMaxKeyPartitions,
              ExpectKeyedBatchMatchesBruteForce(points, KeepMost(n), keys,
                                                boxes, probe_keys));
  }
}

TEST(KeyedGrid, NegativeZeroSharesPartitionWithZero) {
  Rng rng(42);
  const size_t n = 200;
  const auto points = RandomPoints(static_cast<int>(n), 2, &rng, false);
  std::vector<double> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = i % 3 == 0 ? 0.0 : (i % 3 == 1 ? -0.0 : 1.0);
  }
  const auto boxes = RandomBoxes(2, 60, &rng, points);
  std::vector<double> probe_keys(boxes.count);
  for (size_t p = 0; p < boxes.count; ++p) {
    probe_keys[p] = p % 3 == 0 ? 0.0 : (p % 3 == 1 ? -0.0 : 1.0);
  }
  EXPECT_EQ(2, ExpectKeyedBatchMatchesBruteForce(points, KeepMost(n), keys,
                                                 boxes, probe_keys));
}

TEST(KeyedGrid, NanKeysAndNanProbesSeeEveryRow) {
  Rng rng(43);
  const size_t n = 200;
  const auto points = RandomPoints(static_cast<int>(n), 2, &rng, false);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = i % 5 == 0 ? nan
                         : static_cast<double>(i % (kMaxKeyPartitions - 1));
  }
  const auto boxes = RandomBoxes(2, 60, &rng, points);
  std::vector<double> probe_keys(boxes.count);
  for (size_t p = 0; p < boxes.count; ++p) {
    probe_keys[p] = p % 3 == 0 ? nan : static_cast<double>(p % 2);
  }
  // Every NaN-keyed row lands in one partition beside the numeric keys'.
  EXPECT_EQ(kMaxKeyPartitions,
            ExpectKeyedBatchMatchesBruteForce(points, KeepMost(n), keys,
                                              boxes, probe_keys));
}

// A NaN coordinate is in no box and a NaN box edge holds nothing, as the
// language's `w.x >= lo && w.x <= hi` says; the first kept row is NaN, so
// the bounding box must skip it too.
TEST(KeyedGrid, NanCoordinatesAndNanEdgesMatchBruteForce) {
  Rng rng(47);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int d = 1; d <= 3; ++d) {
    const size_t n = 240;
    auto points = RandomPoints(static_cast<int>(n), d, &rng, false);
    for (size_t i = 0; i < n; i += 7) {
      points[i % static_cast<size_t>(d)][i] = nan;
    }
    std::vector<double> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = static_cast<double>(i % 2);
    auto boxes = RandomBoxes(d, 90, &rng, points);
    for (size_t p = 0; p < boxes.count; p += 5) {
      const size_t k = p % static_cast<size_t>(d);
      (p % 2 == 0 ? boxes.lo : boxes.hi)[k][p] = nan;
    }
    const std::vector<double> probe_keys(boxes.count, 0.0);
    ExpectKeyedBatchMatchesBruteForce(points, KeepMost(n), keys, boxes,
                                      probe_keys);
    // Every row NaN: nothing is indexed.
    for (auto& col : points) std::fill(col.begin(), col.end(), nan);
    ExpectKeyedBatchMatchesBruteForce(points, KeepMost(n), keys, boxes,
                                      probe_keys);
  }
}

TEST(KeyedGrid, MoreKeysThanTheCapFallBackToOnePartition) {
  Rng rng(44);
  const size_t n = 300;
  const auto points = RandomPoints(static_cast<int>(n), 2, &rng, true);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = i % 17 == 0
                  ? nan
                  : static_cast<double>(i % (kMaxKeyPartitions + 3));
  }
  const auto boxes = RandomBoxes(2, 80, &rng, points);
  std::vector<double> probe_keys(boxes.count);
  for (size_t p = 0; p < boxes.count; ++p) {
    probe_keys[p] =
        p % 7 == 0 ? nan : static_cast<double>(p % (kMaxKeyPartitions + 4));
  }
  EXPECT_EQ(1, ExpectKeyedBatchMatchesBruteForce(points, KeepMost(n), keys,
                                                 boxes, probe_keys));
  // Exactly at the cap, the grid still partitions.
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<double>(i % kMaxKeyPartitions);
  }
  EXPECT_EQ(kMaxKeyPartitions,
            ExpectKeyedBatchMatchesBruteForce(points, KeepMost(n), keys, boxes,
                                              probe_keys));
}

TEST(KeyedGrid, EveryRowFilteredOut) {
  Rng rng(45);
  const size_t n = 100;
  const auto points = RandomPoints(static_cast<int>(n), 2, &rng, false);
  const std::vector<double> keys(n, 1.0);
  const auto boxes = RandomBoxes(2, 30, &rng, points);
  const std::vector<double> probe_keys(boxes.count, 0.0);
  ExpectKeyedBatchMatchesBruteForce(points, {}, keys, boxes, probe_keys);
}

TEST(KeyedGrid, ProbeKeyEqualToTheOnlyPartitionSeesNothing) {
  Rng rng(46);
  const size_t n = 150;
  const auto points = RandomPoints(static_cast<int>(n), 2, &rng, false);
  const std::vector<double> keys(n, 1.0);
  const auto boxes = RandomBoxes(2, 40, &rng, points);
  std::vector<double> probe_keys(boxes.count);
  for (size_t p = 0; p < boxes.count; ++p) probe_keys[p] = p % 2 ? 1.0 : 2.0;
  EXPECT_EQ(1, ExpectKeyedBatchMatchesBruteForce(points, KeepMost(n), keys,
                                                 boxes, probe_keys));
}

TEST(KeyedGrid, RebuildWithoutKeysResetsPartitions) {
  Rng rng(47);
  const size_t n = 200;
  const auto points = RandomPoints(static_cast<int>(n), 2, &rng, false);
  std::vector<double> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<double>(i % 2);
  const std::vector<RowIdx> kept = KeepMost(n);
  GridIndex grid(2);
  auto coords = points;
  grid.Build(std::move(coords), std::move(keys), &kept);
  EXPECT_EQ(2, grid.num_partitions());
  grid.Build(points);
  EXPECT_EQ(1, grid.num_partitions());
  EXPECT_EQ(n, grid.size());
  ExpectBatchMatchesSingle(grid, RandomBoxes(2, 40, &rng, points), 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, ProbeBatchDifferential,
    ::testing::Values(Sweep{0, 2, false, 1}, Sweep{1, 2, false, 2},
                      Sweep{60, 1, false, 3}, Sweep{60, 2, false, 4},
                      Sweep{200, 2, false, 5}, Sweep{200, 3, false, 6},
                      Sweep{200, 2, true, 7}, Sweep{500, 2, true, 8}));

// --- Engine-level: batched probes reach the oracle's checksum -------------

uint64_t RunRts(bool interpreted, PlanMode plan, int threads,
                size_t morsel = 2048) {
  RtsConfig config;
  config.num_units = 300;
  config.clustered = true;
  EngineOptions options;
  options.exec.interpreted = interpreted;
  options.exec.planner.mode = plan;
  options.exec.num_threads = threads;
  options.exec.morsel_size = morsel;
  auto engine = RtsWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->RunTicks(30).ok());
  return WorldChecksum((*engine)->world());
}

TEST(BatchedProbeParity, MatchesOracleUnderIndexedStrategies) {
  const uint64_t oracle = RunRts(true, PlanMode::kStaticNL, 1);
  EXPECT_EQ(oracle, RunRts(false, PlanMode::kStaticGrid, 1));
  EXPECT_EQ(oracle, RunRts(false, PlanMode::kCostBased, 1));
  EXPECT_EQ(oracle, RunRts(false, PlanMode::kAdaptive, 1));
}

TEST(BatchedProbeParity, MatchesOracleUnderThreadsAndMorsels) {
  const uint64_t oracle = RunRts(true, PlanMode::kStaticNL, 1);
  EXPECT_EQ(oracle, RunRts(false, PlanMode::kStaticGrid, 4));
  EXPECT_EQ(oracle, RunRts(false, PlanMode::kStaticGrid, 4, /*morsel=*/64));
}

// --- Engine-level: the accum pushdown (inner filter + key partitions) -----

// The RTS program with every fifth unit dead and one player-0 unit whose
// player is -0.0: the grid's build filter (`w.health > 0`) drops the dead,
// and -0.0 must share player 0's key partition (`w.player != player`).
uint64_t RunPushdownRts(bool interpreted, PlanMode plan, int threads,
                        size_t morsel) {
  RtsConfig config;
  config.num_units = 300;
  config.clustered = true;
  EngineOptions options;
  options.exec.interpreted = interpreted;
  options.exec.planner.mode = plan;
  options.exec.num_threads = threads;
  options.exec.morsel_size = morsel;
  auto engine = RtsWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  const ClassId cls = (*engine)->catalog().Find("Unit");
  const ClassDef& def = (*engine)->catalog().Get(cls);
  EntityTable& table = (*engine)->world().table(cls);
  NumberColumn health = table.Num(def.FindState("health"));
  NumberColumn player = table.Num(def.FindState("player"));
  for (size_t i = 0; i < table.size(); i += 5) health.at(i) = 0;
  EXPECT_EQ(0.0, player.at(2));
  player.at(2) = -0.0;
  EXPECT_TRUE((*engine)->RunTicks(30).ok());
  return WorldChecksum((*engine)->world());
}

TEST(PushdownParity, RtsWithDeadUnitsAndNegativeZeroPlayer) {
  const uint64_t oracle =
      RunPushdownRts(true, PlanMode::kStaticNL, 1, 2048);
  for (PlanMode plan : {PlanMode::kStaticGrid, PlanMode::kCostBased}) {
    for (int threads : {1, 4}) {
      for (size_t morsel : {size_t{64}, size_t{2048}}) {
        EXPECT_EQ(oracle, RunPushdownRts(false, plan, threads, morsel))
            << "threads " << threads << " morsel " << morsel;
      }
    }
  }
}

// Four sites over the same Unit (x, y) box: A and C push the same inner
// filter (one grid between them), B another filter, and E B's filter plus
// a key. A grid shared across different filters or keys would count the
// wrong rows. D joins on an id, so its hash path re-checks the key and the
// inner filter itself.
constexpr char kTwoFilterSrc[] = R"sgl(
class Unit {
  state:
    number x = 0;
    number y = 0;
    number health = 100;
    number team = 0;
    number seen_hi = 0;
    number seen_lo = 0;
    number seen_buddy = 0;
    number seen_foes = 0;
    ref<Unit> buddy = null;
  effects:
    number hi : sum;
    number lo : sum;
    number hurt : sum;
    number buddies : sum;
    number foes : sum;
  update:
    seen_hi = hi;
    seen_lo = lo;
    seen_buddy = buddies;
    seen_foes = foes;
    health = max(health - hurt, 0);
}
script A for Unit {
  accum number n with sum over Unit w from Unit {
    if (w.x >= x - 20 && w.x <= x + 20 && w.y >= y - 20 && w.y <= y + 20 &&
        w.health > 50) {
      n <- 1;
      w.hurt <- 1;
    }
  } in { hi <- n; }
}
script B for Unit {
  accum number n with sum over Unit w from Unit {
    if (w.x >= x - 20 && w.x <= x + 20 && w.y >= y - 20 && w.y <= y + 20 &&
        w.health < 50) {
      n <- 1;
    }
  } in { lo <- n; }
}
script E for Unit {
  accum number n with sum over Unit w from Unit {
    if (w.x >= x - 20 && w.x <= x + 20 && w.y >= y - 20 && w.y <= y + 20 &&
        w.health < 50 && team != w.team) {
      n <- 1;
    }
  } in { foes <- n; }
}
script C for Unit {
  accum number n with count over Unit w from Unit {
    if (w.x >= x - 20 && w.x <= x + 20 && w.y >= y - 20 && w.y <= y + 20 &&
        w.health > 50) {
      n <- 1;
    }
  } in { hurt <- n / 64; }
}
script D for Unit {
  accum number n with sum over Unit w from Unit {
    if (w == buddy && w.health > 30 && w.team != team) { n <- 1; }
  } in { buddies <- n; }
}
)sgl";

uint64_t RunTwoFilters(bool interpreted, PlanMode plan, int threads) {
  EngineOptions options;
  options.exec.interpreted = interpreted;
  options.exec.planner.mode = plan;
  options.exec.num_threads = threads;
  options.exec.morsel_size = 64;
  auto engine = Engine::Create(kTwoFilterSrc, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  Rng rng(9);
  EntityId prev = kNullEntity;
  for (int i = 0; i < 400; ++i) {
    auto id = (*engine)->Spawn(
        "Unit", {{"x", Value::Number(rng.Uniform(0, 200))},
                 {"y", Value::Number(rng.Uniform(0, 200))},
                 {"health", Value::Number(rng.Uniform(20, 80))},
                 {"team", Value::Number(static_cast<double>(i % 3))},
                 {"buddy", Value::Ref(prev)}});
    EXPECT_TRUE(id.ok()) << id.status();
    prev = id.ok() ? *id : kNullEntity;
  }
  EXPECT_TRUE((*engine)->RunTicks(12).ok());
  return WorldChecksum((*engine)->world());
}

TEST(PushdownParity, SitesWithDifferentFiltersOverOneBoxMatchOracle) {
  const uint64_t oracle = RunTwoFilters(true, PlanMode::kStaticNL, 1);
  EXPECT_EQ(oracle, RunTwoFilters(false, PlanMode::kStaticGrid, 1));
  EXPECT_EQ(oracle, RunTwoFilters(false, PlanMode::kStaticGrid, 4));
  EXPECT_EQ(oracle, RunTwoFilters(false, PlanMode::kCostBased, 1));
  EXPECT_EQ(oracle, RunTwoFilters(false, PlanMode::kStaticHash, 1));
}

// With both leftover conjuncts pushed into the grid, every candidate the
// Combat site inspects is a match: the exact counters agree tick by tick.
TEST(PushdownCounters, CombatCandidatesEqualMatches) {
  RtsConfig config;
  config.num_units = 512;
  config.clustered = true;
  EngineOptions options;
  options.exec.planner.mode = PlanMode::kStaticGrid;
  auto engine = RtsWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  int64_t matches = 0;
  for (int t = 0; t < 12; ++t) {
    ASSERT_TRUE((*engine)->Tick().ok());
    const TickStats& stats = (*engine)->last_stats();
    ASSERT_FALSE(stats.sites.empty());
    const SiteFeedback& combat = stats.sites[0];
    EXPECT_EQ(JoinStrategy::kGrid, combat.strategy);
    EXPECT_EQ(combat.candidates, combat.matches) << "tick " << t;
    matches += combat.matches;
  }
  EXPECT_GT(matches, 0);
}

// A NaN coordinate is in no box: the oracle's `w.x >= x - 5 && w.x <=
// x + 5` is false for it, and a NaN row's own box holds nothing. The grid
// once indexed the NaN row in cell 0 and kept it in every box over that
// cell, and let the NaN box walk cell 0.
TEST(PushdownParity, NanCoordinateMatchesOracle) {
  constexpr char kSrc[] = R"sgl(
class P {
  state:
    number x = 0;
    number c = 0;
  effects:
    number n : sum;
  update:
    c = n;
}
script S for P {
  accum number k with sum over P w from P {
    if (w.x >= x - 5 && w.x <= x + 5) { k <- 1; }
  } in { n <- k; }
}
)sgl";
  auto run = [&](bool interpreted, PlanMode plan, int threads) {
    EngineOptions options;
    options.exec.interpreted = interpreted;
    options.exec.planner.mode = plan;
    options.exec.num_threads = threads;
    auto engine = Engine::Create(kSrc, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    std::vector<EntityId> ids;
    for (int i = 0; i < 100; ++i) {
      const double x =
          i == 50 ? std::numeric_limits<double>::quiet_NaN() : i;
      auto id = (*engine)->Spawn("P", {{"x", Value::Number(x)}});
      EXPECT_TRUE(id.ok()) << id.status();
      ids.push_back(id.ok() ? *id : kNullEntity);
    }
    EXPECT_TRUE((*engine)->RunTicks(1).ok());
    EXPECT_EQ(6.0, (*engine)->Get(ids[0], "c")->AsNumber());
    EXPECT_EQ(0.0, (*engine)->Get(ids[50], "c")->AsNumber());
    return WorldChecksum((*engine)->world());
  };
  const uint64_t oracle = run(true, PlanMode::kStaticNL, 1);
  EXPECT_EQ(oracle, run(false, PlanMode::kStaticGrid, 1));
  EXPECT_EQ(oracle, run(false, PlanMode::kStaticGrid, 4));
  EXPECT_EQ(oracle, run(false, PlanMode::kCostBased, 1));
}

// A one-sided range dim probes with an infinite upper bound; the grid must
// still walk every cell up to the top of the data.
TEST(PushdownParity, OneSidedRangeMatchesOracle) {
  constexpr char kSrc[] = R"sgl(
class P {
  state:
    number x = 0;
    number c = 0;
  effects:
    number n : sum;
  update:
    c = n;
}
script S for P {
  accum number k with sum over P w from P {
    if (w.x >= x) { k <- 1; }
  } in { n <- k; }
}
)sgl";
  auto run = [&](bool interpreted, PlanMode plan) {
    EngineOptions options;
    options.exec.interpreted = interpreted;
    options.exec.planner.mode = plan;
    auto engine = Engine::Create(kSrc, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE((*engine)->Spawn("P", {{"x", Value::Number(i)}}).ok());
    }
    EXPECT_TRUE((*engine)->RunTicks(1).ok());
    return WorldChecksum((*engine)->world());
  };
  EXPECT_EQ(run(true, PlanMode::kStaticNL), run(false, PlanMode::kStaticGrid));
}

}  // namespace
}  // namespace sgl
