// Differential test of the two kernel tables (src/vm/kernels.h): every
// family — fills, binary/unary folds, clamps, compares, fused
// compare-and-compact filters, and the batched index range filter — must be
// BITWISE identical between the scalar reference table and the AVX2 table,
// over adversarial inputs (NaN, +/-inf, signed zeros, denormals, exact
// zeros for the div/mod guards, negatives for the sqrt guard) and over
// lengths that exercise the 4-lane vector body, the scalar tail, and the
// empty edge. This is the ground truth behind the engine-level promise that
// kernel dispatch can never change a world checksum.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "src/common/cpu_features.h"
#include "src/common/rng.h"
#include "src/vm/kernels.h"

namespace sgl {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

// Special-value pool the random vectors draw from. Zero is over-represented
// so the guarded div/mod paths trigger constantly, and ties (equal values
// with different signs of zero) exercise the min/max/clamp tie rules.
constexpr double kPool[] = {
    kNan,  kInf,     -kInf,    0.0,   -0.0,   kDenorm, -kDenorm,
    1e308, -1e308,   1.0,      -1.0,  0.5,    -2.5,    3.0,
    0.0,   -0.0,     7.25,     -9.5,  2.0,    0.0,
    std::numeric_limits<double>::min(),
    -std::numeric_limits<double>::min()};

std::vector<double> RandomSpecials(Rng* rng, size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = kPool[rng->NextBelow(sizeof(kPool) / sizeof(kPool[0]))];
  }
  return v;
}

// Ascending random subset of [0, n) — the shape every selection vector in
// the engine has.
std::vector<RowIdx> RandomSel(Rng* rng, size_t n) {
  std::vector<RowIdx> sel;
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(0.6)) sel.push_back(static_cast<RowIdx>(i));
  }
  return sel;
}

::testing::AssertionResult BitEq(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  // Empty vectors may hold null data(), which memcmp must not receive.
  if (a.empty() ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t ba, bb;
    std::memcpy(&ba, &a[i], 8);
    std::memcpy(&bb, &b[i], 8);
    if (ba != bb) {
      return ::testing::AssertionFailure()
             << "lane " << i << ": scalar " << a[i] << " (0x" << std::hex
             << ba << ") vs avx2 " << b[i] << " (0x" << bb << ")";
    }
  }
  return ::testing::AssertionFailure() << "memcmp failed";
}

// Lengths covering empty, sub-vector, exact multiples of the 4-wide body,
// and body + every tail size.
constexpr size_t kLens[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 257};

// Sentinel-filled output buffers double as an "only touch your lanes" check
// for the selection variants: any write outside sel shows up as a bitwise
// diff in the untouched sentinel lanes.
std::vector<double> Sentinels(size_t n) {
  return std::vector<double>(n, -6.022e23);
}

class KernelsDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
#if SGL_KERNELS_AVX2
    if (!CpuHasAvx2()) GTEST_SKIP() << "CPU lacks AVX2";
#else
    GTEST_SKIP() << "AVX2 table not compiled on this target";
#endif
  }
};

#if SGL_KERNELS_AVX2

TEST_F(KernelsDifferential, FillMatches) {
  const VmKernels& s = GetScalarKernels();
  const VmKernels& v = GetAvx2Kernels();
  for (size_t n : kLens) {
    for (double val : {kNan, -0.0, kInf, 1.5}) {
      std::vector<double> ds = Sentinels(n), dv = Sentinels(n);
      s.fill(ds.data(), val, n);
      v.fill(dv.data(), val, n);
      EXPECT_TRUE(BitEq(ds, dv)) << "fill n=" << n;
    }
  }
}

TEST_F(KernelsDifferential, BinaryFoldsMatch) {
  const VmKernels& s = GetScalarKernels();
  const VmKernels& v = GetAvx2Kernels();
  Rng rng(11);
  for (size_t n : kLens) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> a = RandomSpecials(&rng, n);
      std::vector<double> b = RandomSpecials(&rng, n);
      std::vector<RowIdx> sel = RandomSel(&rng, n);
      for (int k = 0; k < kNumBinKernels; ++k) {
        std::vector<double> ds = Sentinels(n), dv = Sentinels(n);
        s.bin[k](a.data(), b.data(), ds.data(), n);
        v.bin[k](a.data(), b.data(), dv.data(), n);
        EXPECT_TRUE(BitEq(ds, dv)) << "bin k=" << k << " n=" << n;

        std::vector<double> es = Sentinels(n), ev = Sentinels(n);
        s.bin_sel[k](a.data(), b.data(), es.data(), sel.data(), sel.size());
        v.bin_sel[k](a.data(), b.data(), ev.data(), sel.data(), sel.size());
        EXPECT_TRUE(BitEq(es, ev)) << "bin_sel k=" << k << " n=" << n;
      }
    }
  }
}

TEST_F(KernelsDifferential, UnaryFoldsMatch) {
  const VmKernels& s = GetScalarKernels();
  const VmKernels& v = GetAvx2Kernels();
  Rng rng(12);
  for (size_t n : kLens) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> a = RandomSpecials(&rng, n);
      std::vector<RowIdx> sel = RandomSel(&rng, n);
      for (int k = 0; k < kNumUnKernels; ++k) {
        std::vector<double> ds = Sentinels(n), dv = Sentinels(n);
        s.un[k](a.data(), ds.data(), n);
        v.un[k](a.data(), dv.data(), n);
        EXPECT_TRUE(BitEq(ds, dv)) << "un k=" << k << " n=" << n;

        std::vector<double> es = Sentinels(n), ev = Sentinels(n);
        s.un_sel[k](a.data(), es.data(), sel.data(), sel.size());
        v.un_sel[k](a.data(), ev.data(), sel.data(), sel.size());
        EXPECT_TRUE(BitEq(es, ev)) << "un_sel k=" << k << " n=" << n;
      }
    }
  }
}

TEST_F(KernelsDifferential, ClampMatches) {
  const VmKernels& s = GetScalarKernels();
  const VmKernels& v = GetAvx2Kernels();
  Rng rng(13);
  for (size_t n : kLens) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> val = RandomSpecials(&rng, n);
      std::vector<double> lo = RandomSpecials(&rng, n);
      std::vector<double> hi = RandomSpecials(&rng, n);
      std::vector<RowIdx> sel = RandomSel(&rng, n);
      std::vector<double> ds = Sentinels(n), dv = Sentinels(n);
      s.clamp(val.data(), lo.data(), hi.data(), ds.data(), n);
      v.clamp(val.data(), lo.data(), hi.data(), dv.data(), n);
      EXPECT_TRUE(BitEq(ds, dv)) << "clamp n=" << n;

      std::vector<double> es = Sentinels(n), ev = Sentinels(n);
      s.clamp_sel(val.data(), lo.data(), hi.data(), es.data(), sel.data(),
                  sel.size());
      v.clamp_sel(val.data(), lo.data(), hi.data(), ev.data(), sel.data(),
                  sel.size());
      EXPECT_TRUE(BitEq(es, ev)) << "clamp_sel n=" << n;
    }
  }
}

TEST_F(KernelsDifferential, ComparesMatch) {
  const VmKernels& s = GetScalarKernels();
  const VmKernels& v = GetAvx2Kernels();
  Rng rng(14);
  for (size_t n : kLens) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> a = RandomSpecials(&rng, n);
      std::vector<double> b = RandomSpecials(&rng, n);
      std::vector<RowIdx> sel = RandomSel(&rng, n);
      for (int k = 0; k < kNumCmpKernels; ++k) {
        std::vector<uint8_t> ds(n, 0xAB), dv(n, 0xAB);
        s.cmp[k](a.data(), b.data(), ds.data(), n);
        v.cmp[k](a.data(), b.data(), dv.data(), n);
        EXPECT_EQ(ds, dv) << "cmp k=" << k << " n=" << n;

        std::vector<uint8_t> es(n, 0xAB), ev(n, 0xAB);
        s.cmp_sel[k](a.data(), b.data(), es.data(), sel.data(), sel.size());
        v.cmp_sel[k](a.data(), b.data(), ev.data(), sel.data(), sel.size());
        EXPECT_EQ(es, ev) << "cmp_sel k=" << k << " n=" << n;
      }
    }
  }
}

TEST_F(KernelsDifferential, FusedFiltersMatch) {
  const VmKernels& s = GetScalarKernels();
  const VmKernels& v = GetAvx2Kernels();
  Rng rng(15);
  for (size_t n : kLens) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> a = RandomSpecials(&rng, n);
      std::vector<double> b = RandomSpecials(&rng, n);
      const double ub = kPool[rng.NextBelow(sizeof(kPool) / 8)];
      std::vector<RowIdx> sel = RandomSel(&rng, n);
      for (int k = 0; k < kNumCmpKernels; ++k) {
        std::vector<RowIdx> os(n + 1, 0xFFFF), ov(n + 1, 0xFFFF);
        size_t cs = s.f_iota_vv[k](a.data(), b.data(), os.data(), n);
        size_t cv = v.f_iota_vv[k](a.data(), b.data(), ov.data(), n);
        ASSERT_EQ(cs, cv) << "f_iota_vv k=" << k << " n=" << n;
        EXPECT_TRUE(std::equal(os.begin(), os.begin() + cs, ov.begin()))
            << "f_iota_vv k=" << k << " n=" << n;

        cs = s.f_iota_vs[k](a.data(), ub, os.data(), n);
        cv = v.f_iota_vs[k](a.data(), ub, ov.data(), n);
        ASSERT_EQ(cs, cv) << "f_iota_vs k=" << k << " n=" << n;
        EXPECT_TRUE(std::equal(os.begin(), os.begin() + cs, ov.begin()));

        cs = s.f_iota_sv[k](ub, b.data(), os.data(), n);
        cv = v.f_iota_sv[k](ub, b.data(), ov.data(), n);
        ASSERT_EQ(cs, cv) << "f_iota_sv k=" << k << " n=" << n;
        EXPECT_TRUE(std::equal(os.begin(), os.begin() + cs, ov.begin()));

        cs = s.f_sel_vv[k](a.data(), b.data(), sel.data(), sel.size(),
                           os.data());
        cv = v.f_sel_vv[k](a.data(), b.data(), sel.data(), sel.size(),
                           ov.data());
        ASSERT_EQ(cs, cv) << "f_sel_vv k=" << k << " n=" << n;
        EXPECT_TRUE(std::equal(os.begin(), os.begin() + cs, ov.begin()));

        // In-place compaction (out == sel), the shape RunGuardFilter uses.
        std::vector<RowIdx> is = sel, iv = sel;
        cs = s.f_sel_vs[k](a.data(), ub, is.data(), is.size(), is.data());
        cv = v.f_sel_vs[k](a.data(), ub, iv.data(), iv.size(), iv.data());
        ASSERT_EQ(cs, cv) << "f_sel_vs in-place k=" << k << " n=" << n;
        EXPECT_TRUE(std::equal(is.begin(), is.begin() + cs, iv.begin()));

        is = sel;
        iv = sel;
        cs = s.f_sel_sv[k](ub, b.data(), is.data(), is.size(), is.data());
        cv = v.f_sel_sv[k](ub, b.data(), iv.data(), iv.size(), iv.data());
        ASSERT_EQ(cs, cv) << "f_sel_sv in-place k=" << k << " n=" << n;
        EXPECT_TRUE(std::equal(is.begin(), is.begin() + cs, iv.begin()));
      }
    }
  }
}

TEST_F(KernelsDifferential, RangeFilterMatches) {
  const VmKernels& s = GetScalarKernels();
  const VmKernels& v = GetAvx2Kernels();
  Rng rng(16);
  for (size_t n : kLens) {
    for (int dims = 1; dims <= 3; ++dims) {
      for (int rep = 0; rep < 4; ++rep) {
        // Coordinate columns include NaN/inf points; items visit rows in a
        // scrambled order with duplicates, like a grid cell span does.
        std::vector<std::vector<double>> cols(static_cast<size_t>(dims));
        const double* colp[3];
        const size_t rows = n + 7;
        for (int k = 0; k < dims; ++k) {
          cols[static_cast<size_t>(k)] = RandomSpecials(&rng, rows);
          colp[k] = cols[static_cast<size_t>(k)].data();
        }
        std::vector<RowIdx> items(n);
        for (size_t i = 0; i < n; ++i) {
          items[i] = static_cast<RowIdx>(rng.NextBelow(rows));
        }
        double lo[3], hi[3];
        for (int k = 0; k < dims; ++k) {
          double a = rng.Uniform(-5, 5), b = rng.Uniform(-5, 5);
          // Mix ordinary, inverted (lo > hi), and NaN-bounded boxes.
          lo[k] = rng.Bernoulli(0.1) ? kNan : std::min(a, b);
          hi[k] = rng.Bernoulli(0.1) ? kNan
                                     : (rng.Bernoulli(0.15) ? std::min(a, b) -
                                                                  1.0
                                                            : std::max(a, b));
        }
        std::vector<RowIdx> os(n + 1, 0xFFFF), ov(n + 1, 0xFFFF);
        size_t cs = s.range_filter(items.data(), n, colp, dims, lo, hi,
                                   os.data());
        size_t cv = v.range_filter(items.data(), n, colp, dims, lo, hi,
                                   ov.data());
        ASSERT_EQ(cs, cv) << "range_filter dims=" << dims << " n=" << n;
        EXPECT_TRUE(std::equal(os.begin(), os.begin() + cs, ov.begin()))
            << "range_filter dims=" << dims << " n=" << n;
      }
    }
  }
}

#endif  // SGL_KERNELS_AVX2

// --- Dispatch plumbing (runs on every target) -----------------------------

TEST(KernelDispatch, OverrideSelectsTableAndResets) {
  SetKernelDispatch(KernelDispatch::kScalar);
  EXPECT_EQ(ActiveKernelDispatch(), KernelDispatch::kScalar);
  EXPECT_EQ(&GetVmKernels(), &GetScalarKernels());
#if SGL_KERNELS_AVX2
  if (CpuHasAvx2()) {
    SetKernelDispatch(KernelDispatch::kAvx2);
    EXPECT_EQ(ActiveKernelDispatch(), KernelDispatch::kAvx2);
    EXPECT_EQ(&GetVmKernels(), &GetAvx2Kernels());
  }
#endif
  ResetKernelDispatch();
  // Back to env/CPU selection; whatever it picks must be a real table.
  const VmKernels& k = GetVmKernels();
  EXPECT_NE(k.fill, nullptr);
  EXPECT_NE(k.range_filter, nullptr);
}

TEST(KernelDispatch, RequestingAvx2WithoutCpuSupportStaysScalar) {
  if (CpuHasAvx2()) GTEST_SKIP() << "CPU has AVX2; degrade path untestable";
  SetKernelDispatch(KernelDispatch::kAvx2);
  EXPECT_EQ(ActiveKernelDispatch(), KernelDispatch::kScalar);
  ResetKernelDispatch();
}

TEST(KernelDispatch, NamesAreStable) {
  EXPECT_STREQ(KernelDispatchName(KernelDispatch::kScalar), "scalar");
  EXPECT_STREQ(KernelDispatchName(KernelDispatch::kAvx2), "avx2");
}

}  // namespace
}  // namespace sgl
