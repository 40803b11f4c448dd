// Index structures (§4.2): range-tree correctness against brute force over
// random boxes and dimensions, grid equivalence, and the Θ(n log^(d-1) n)
// memory accounting the paper calls out.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/index/grid_index.h"
#include "src/index/range_tree.h"

namespace sgl {
namespace {

std::vector<std::vector<double>> RandomPoints(int n, int d, Rng* rng,
                                              double lo = 0,
                                              double hi = 100) {
  std::vector<std::vector<double>> coords(
      static_cast<size_t>(d), std::vector<double>(static_cast<size_t>(n)));
  for (int k = 0; k < d; ++k) {
    for (int i = 0; i < n; ++i) {
      coords[static_cast<size_t>(k)][static_cast<size_t>(i)] =
          rng->Uniform(lo, hi);
    }
  }
  return coords;
}

std::vector<RowIdx> BruteForce(const std::vector<std::vector<double>>& coords,
                               const std::vector<double>& lo,
                               const std::vector<double>& hi) {
  std::vector<RowIdx> out;
  const size_t n = coords.empty() ? 0 : coords[0].size();
  for (size_t i = 0; i < n; ++i) {
    bool inside = true;
    for (size_t k = 0; k < coords.size(); ++k) {
      if (coords[k][i] < lo[k] || coords[k][i] > hi[k]) {
        inside = false;
        break;
      }
    }
    if (inside) out.push_back(static_cast<RowIdx>(i));
  }
  return out;
}

struct Sweep {
  int n;
  int d;
  uint64_t seed;
};

class RangeTreeProperty : public ::testing::TestWithParam<Sweep> {};

TEST_P(RangeTreeProperty, MatchesBruteForceOnRandomBoxes) {
  const Sweep& p = GetParam();
  Rng rng(p.seed);
  auto coords = RandomPoints(p.n, p.d, &rng);
  RangeTree tree(p.d);
  tree.Build(coords);
  for (int q = 0; q < 50; ++q) {
    std::vector<double> lo(static_cast<size_t>(p.d));
    std::vector<double> hi(static_cast<size_t>(p.d));
    for (int k = 0; k < p.d; ++k) {
      double a = rng.Uniform(0, 100);
      double b = rng.Uniform(0, 100);
      lo[static_cast<size_t>(k)] = std::min(a, b);
      hi[static_cast<size_t>(k)] = std::max(a, b);
    }
    std::vector<RowIdx> got;
    tree.Query(lo.data(), hi.data(), &got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(BruteForce(coords, lo, hi), got)
        << "n=" << p.n << " d=" << p.d << " query " << q;
  }
}

TEST_P(RangeTreeProperty, GridMatchesBruteForce) {
  const Sweep& p = GetParam();
  Rng rng(p.seed ^ 0xabcdULL);
  auto coords = RandomPoints(p.n, p.d, &rng);
  GridIndex grid(p.d);
  grid.Build(coords);
  for (int q = 0; q < 50; ++q) {
    std::vector<double> lo(static_cast<size_t>(p.d));
    std::vector<double> hi(static_cast<size_t>(p.d));
    for (int k = 0; k < p.d; ++k) {
      double a = rng.Uniform(0, 100);
      double b = rng.Uniform(0, 100);
      lo[static_cast<size_t>(k)] = std::min(a, b);
      hi[static_cast<size_t>(k)] = std::max(a, b);
    }
    std::vector<RowIdx> got;
    grid.Query(lo.data(), hi.data(), &got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(BruteForce(coords, lo, hi), got);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RangeTreeProperty,
    ::testing::Values(Sweep{0, 2, 1}, Sweep{1, 1, 2}, Sweep{7, 1, 3},
                      Sweep{64, 1, 4}, Sweep{64, 2, 5}, Sweep{256, 2, 6},
                      Sweep{256, 3, 7}, Sweep{1024, 2, 8}, Sweep{1024, 3, 9},
                      Sweep{4096, 2, 10}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "d" +
             std::to_string(info.param.d);
    });

TEST(RangeTree, DuplicateCoordinatesAreAllReported) {
  // Many points stacked on identical coordinates.
  std::vector<std::vector<double>> coords(2);
  for (int i = 0; i < 100; ++i) {
    coords[0].push_back(5.0);
    coords[1].push_back(static_cast<double>(i % 3));
  }
  RangeTree tree(2);
  tree.Build(coords);
  double lo[2] = {5.0, 0.0};
  double hi[2] = {5.0, 1.0};
  EXPECT_EQ(67u, tree.Count(lo, hi));  // y in {0,1}: 34 + 33
}

TEST(RangeTree, EmptyBoxReturnsNothing) {
  Rng rng(1);
  auto coords = RandomPoints(100, 2, &rng);
  RangeTree tree(2);
  tree.Build(coords);
  double lo[2] = {200, 200};
  double hi[2] = {300, 300};
  EXPECT_EQ(0u, tree.Count(lo, hi));
  double ilo[2] = {50, 50};
  double ihi[2] = {40, 40};  // inverted
  EXPECT_EQ(0u, tree.Count(ilo, ihi));
}

TEST(RangeTree, BoundsAreInclusive) {
  std::vector<std::vector<double>> coords = {{1, 2, 3}, {1, 2, 3}};
  RangeTree tree(2);
  tree.Build(coords);
  double lo[2] = {2, 2};
  double hi[2] = {2, 2};
  std::vector<RowIdx> got;
  tree.Query(lo, hi, &got);
  ASSERT_EQ(1u, got.size());
  EXPECT_EQ(1u, got[0]);
}

// --- Memory accounting (the paper's 2 GB observation) ----------------------

TEST(RangeTree, MemoryGrowsWithLogFactorPerDimension) {
  Rng rng(2);
  const int n = 8192;
  auto c1 = RandomPoints(n, 1, &rng);
  auto c2 = RandomPoints(n, 2, &rng);
  auto c3 = RandomPoints(n, 3, &rng);
  RangeTree t1(1), t2(2), t3(3);
  t1.Build(c1);
  t2.Build(c2);
  t3.Build(c3);
  // Each extra dimension multiplies memory by ~log n (paper: n log^(d-1) n).
  EXPECT_GT(t2.MemoryBytes(), 3 * t1.MemoryBytes());
  EXPECT_GT(t3.MemoryBytes(), 3 * t2.MemoryBytes());
}

TEST(RangeTree, TheoreticalBytesMatchesPaperExample) {
  // §4.2: "a tree with 100,000 entries of 16 bytes each takes about 2 GB"
  // (d = 3: n * log2(n)^2 * 16 = 100k * 17^2 * 16 ≈ 0.46 GB; the paper's
  // ~2 GB figure includes constant factors; we assert the right order).
  size_t bytes = RangeTree::TheoreticalBytes(100000, 3, 16);
  EXPECT_GT(bytes, 100ull * 1024 * 1024);
  EXPECT_LT(bytes, 8ull * 1024 * 1024 * 1024);
}

TEST(Grid, UsesLinearMemory) {
  Rng rng(3);
  const int n = 8192;
  auto coords = RandomPoints(n, 2, &rng);
  GridIndex grid(2);
  grid.Build(coords);
  RangeTree tree(2);
  auto coords2 = coords;
  tree.Build(coords2);
  EXPECT_LT(grid.MemoryBytes(), tree.MemoryBytes());
}

}  // namespace
}  // namespace sgl
