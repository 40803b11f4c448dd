// The grid index (§4.2's access path): correctness against brute force over
// random boxes and dimensions, and the O(n) memory that answers the paper's
// Θ(n log^(d-1) n) range-tree observation.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/index/grid_index.h"

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

class GridProperty : public ::testing::TestWithParam<Sweep> {};

TEST_P(GridProperty, GridMatchesBruteForce) {
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
    Sizes, GridProperty,
    ::testing::Values(Sweep{0, 2, 1}, Sweep{1, 1, 2}, Sweep{7, 1, 3},
                      Sweep{64, 1, 4}, Sweep{64, 2, 5}, Sweep{256, 2, 6},
                      Sweep{256, 3, 7}, Sweep{1024, 2, 8}, Sweep{1024, 3, 9},
                      Sweep{4096, 2, 10}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "d" +
             std::to_string(info.param.d);
    });

TEST(Grid, UsesLinearMemory) {
  // §4.2's range tree needs Θ(n·log^(d−1) n) bytes; the grid holds each
  // coordinate once plus O(1) CSR words per point, so bytes per entry stay
  // flat as n grows, and each extra dimension adds about one double.
  Rng rng(3);
  const int sizes[2] = {2048, 32768};
  for (int d = 1; d <= 3; ++d) {
    double per_entry[2];
    for (int s = 0; s < 2; ++s) {
      GridIndex grid(d);
      grid.Build(RandomPoints(sizes[s], d, &rng));
      per_entry[s] = static_cast<double>(grid.MemoryBytes()) /
                     static_cast<double>(sizes[s]);
      EXPECT_LE(per_entry[s], 8.0 * d + 24.0) << "d=" << d;
    }
    EXPECT_NEAR(per_entry[0], per_entry[1], 1.0) << "d=" << d;
  }
}

}  // namespace
}  // namespace sgl
