// Batched index probes (SpatialIndex::QueryBatch, src/index/probe_batch.h)
// must be a pure restructuring of per-box Query calls: for every backend
// and every probe mix — ordinary boxes, degenerate (lo == hi), inverted
// (lo > hi, contract: empty slice), whole-world boxes, duplicate-heavy
// point sets — slice p of the CSR output must equal Query(box p) + sort,
// element for element. On top of the structural contract, the engine-level
// sweep asserts the observable guarantee: the fast path's batched probes
// reach the scalar oracle's world checksum (the oracle probes nothing — it
// scans), under the range-indexed strategies, in serial, 4-thread, and
// 4-shard execution.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/debug/checkpoint.h"
#include "src/index/grid_index.h"
#include "src/index/partitioned_index.h"
#include "src/index/probe_batch.h"
#include "src/index/range_tree.h"
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

/// Asserts QueryBatch(boxes) == per-box Query + sort on `index`, which can
/// be any of the three native backends (they share the method shape).
template <typename Index>
void ExpectBatchMatchesSingle(const Index& index, const BoxColumns& b,
                              int d) {
  ProbeBatch batch;
  index.QueryBatch(b.lo_ptr, b.hi_ptr, b.count, &batch);
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

TEST_P(ProbeBatchDifferential, RangeTreeBatchMatchesSingle) {
  const Sweep& p = GetParam();
  Rng rng(p.seed ^ 0xbeefULL);
  auto points = RandomPoints(p.n, p.d, &rng, p.duplicate_heavy);
  RangeTree tree(p.d);
  tree.Build(points);
  for (int round = 0; round < 3; ++round) {
    auto boxes = RandomBoxes(p.d, 40, &rng, points);
    ExpectBatchMatchesSingle(tree, boxes, p.d);
  }
}

TEST_P(ProbeBatchDifferential, PartitionedBatchMatchesSingle) {
  const Sweep& p = GetParam();
  Rng rng(p.seed ^ 0xcafeULL);
  auto points = RandomPoints(p.n, p.d, &rng, p.duplicate_heavy);
  PartitionedIndex part(p.d, /*shards=*/4);
  part.Build(points);
  for (int round = 0; round < 3; ++round) {
    auto boxes = RandomBoxes(p.d, 40, &rng, points);
    ExpectBatchMatchesSingle(part, boxes, p.d);
  }
}

TEST(ProbeBatchEdge, EmptyIndexAndZeroProbes) {
  GridIndex grid(2);
  grid.Build(std::vector<std::vector<double>>(2));
  Rng rng(7);
  auto points = RandomPoints(4, 2, &rng, false);
  auto boxes = RandomBoxes(2, 8, &rng, points);
  ProbeBatch batch;
  grid.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, boxes.count, &batch);
  for (size_t p = 0; p < boxes.count; ++p) {
    EXPECT_EQ(batch.offsets[p + 1], batch.offsets[p]);
  }
  grid.QueryBatch(boxes.lo_ptr, boxes.hi_ptr, 0, &batch);
  EXPECT_EQ(batch.num_probes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, ProbeBatchDifferential,
    ::testing::Values(Sweep{0, 2, false, 1}, Sweep{1, 2, false, 2},
                      Sweep{60, 1, false, 3}, Sweep{60, 2, false, 4},
                      Sweep{200, 2, false, 5}, Sweep{200, 3, false, 6},
                      Sweep{200, 2, true, 7}, Sweep{500, 2, true, 8}));

// --- Engine-level: batched probes reach the oracle's checksum -------------

uint64_t RunRts(bool interpreted, PlanMode plan, int threads, int shards) {
  RtsConfig config;
  config.num_units = 300;
  config.clustered = true;
  EngineOptions options;
  options.exec.interpreted = interpreted;
  options.exec.planner.mode = plan;
  options.exec.num_threads = threads;
  options.exec.num_shards = shards;
  auto engine = RtsWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->RunTicks(30).ok());
  return WorldChecksum((*engine)->world());
}

TEST(BatchedProbeParity, MatchesOracleUnderIndexedStrategies) {
  const uint64_t oracle = RunRts(true, PlanMode::kStaticNL, 1, 1);
  EXPECT_EQ(oracle, RunRts(false, PlanMode::kStaticGrid, 1, 1));
  EXPECT_EQ(oracle, RunRts(false, PlanMode::kStaticRangeTree, 1, 1));
  EXPECT_EQ(oracle, RunRts(false, PlanMode::kCostBased, 1, 1));
  EXPECT_EQ(oracle, RunRts(false, PlanMode::kAdaptive, 1, 1));
}

TEST(BatchedProbeParity, MatchesOracleUnderThreadsAndShards) {
  const uint64_t oracle = RunRts(true, PlanMode::kStaticNL, 1, 1);
  for (PlanMode plan : {PlanMode::kStaticGrid, PlanMode::kStaticRangeTree}) {
    EXPECT_EQ(oracle, RunRts(false, plan, 4, 1)) << PlanModeName(plan);
    EXPECT_EQ(oracle, RunRts(false, plan, 1, 4)) << PlanModeName(plan);
    EXPECT_EQ(oracle, RunRts(false, plan, 4, 4)) << PlanModeName(plan);
  }
}

}  // namespace
}  // namespace sgl
