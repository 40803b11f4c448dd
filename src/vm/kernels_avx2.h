// AVX2 implementations of the VM kernel table.
//
// Every function carries __attribute__((target("avx2"))) so the file
// compiles without a global -mavx2 and the binary still boots on older
// x86-64; GetVmKernels() only hands this table out when the CPU reports
// AVX2 (src/common/cpu_features.h).
//
// Bit-exactness contract (differentially pinned by tests/kernels_test.cc
// against kernels_scalar.h, including NaN / ±inf / ±0 / denormal lanes):
//
//   * GuardedDiv  b==0 ? 0 : a/b    -> andnot(cmp(b,0,EQ_OQ), div(a,b))
//   * GuardedSqrt a<=0 ? 0 : sqrt(a)-> andnot(cmp(a,0,LE_OQ), sqrt(a));
//     NaN input: LE_OQ is false on unordered, so the lane keeps sqrt(NaN)
//     = NaN, exactly like the scalar guard.
//   * kMin a<b?a:b == MINPD(a,b), kMax a>b?a:b == MAXPD(a,b): the x86
//     min/max "return SRC2 on NaN or equal" rule is literally the ternary.
//   * ApplyClamp min(max(v,lo),hi) -> min_pd(hi, max_pd(lo, v)) — operand
//     order matters: std::max(v,lo) returns v on ties (incl. ±0), which is
//     MAXPD's SRC2, hence max_pd(lo, v); likewise min_pd(hi, x).
//   * != uses _CMP_NEQ_UQ (true on unordered) to match C++ !=; all other
//     predicates use ordered-quiet (_CMP_*_OQ), false on NaN.
//   * fmod / pow stay scalar libm in BOTH tables (kernels.cc wires the
//     scalar functions into this table), so there is nothing to match.
//   * No FMA, no reassociation: each lane executes the same single-rounded
//     IEEE ops as the scalar loop, just four lanes at a time.
//
// Filter kernels compact with movemask + a 16-entry byte-shuffle LUT:
// compare 4 lanes, movemask_pd gives a 4-bit keep mask, _mm_shuffle_epi8
// packs the surviving 32-bit row indices to the front, popcount advances
// the output cursor. 16-byte stores past the logical end are safe: the
// caller's buffers hold >= n entries and out+m+3 < n always (m <= i).
// Sel-shaped kernels gather lanes with vgatherdps-style i32gather and may
// compact in place (indices are loaded before the store, m <= k).
//
// Included only by kernels.cc, and only when SGL_KERNELS_AVX2.

#ifndef SGL_VM_KERNELS_AVX2_H_
#define SGL_VM_KERNELS_AVX2_H_

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "src/common/types.h"
#include "src/ra/numeric.h"
#include "src/vm/kernels.h"

#define SGL_AVX2 __attribute__((target("avx2"))) inline

namespace sgl {
namespace vmka {

// Shuffle controls: entry m packs the 4-byte groups of the set bits of m
// to the front; unused output bytes are 0x80 (shuffle writes zero).
struct CompactLut {
  alignas(16) uint8_t b[16][16];
  constexpr CompactLut() : b() {
    for (int m = 0; m < 16; ++m) {
      int o = 0;
      for (int j = 0; j < 4; ++j) {
        if ((m >> j) & 1) {
          for (int t = 0; t < 4; ++t)
            b[m][o * 4 + t] = static_cast<uint8_t>(j * 4 + t);
          ++o;
        }
      }
      for (; o < 4; ++o)
        for (int t = 0; t < 4; ++t) b[m][o * 4 + t] = 0x80;
    }
  }
};
inline constexpr CompactLut kCompactLut{};

// Byte-mask expansion: nibble mask -> 4 bytes of 0/1, little-endian.
struct BoolLut {
  uint32_t v[16];
  constexpr BoolLut() : v() {
    for (int m = 0; m < 16; ++m)
      v[m] = static_cast<uint32_t>(((m >> 0) & 1) | (((m >> 1) & 1) << 8) |
                                   (((m >> 2) & 1) << 16) |
                                   (((m >> 3) & 1) << 24));
  }
};
inline constexpr BoolLut kBoolLut{};

SGL_AVX2 void Fill(double* d, double v, size_t n) {
  const __m256d s = _mm256_set1_pd(v);
  size_t i = 0;
  const size_t n4 = n & ~size_t(3);
  for (; i < n4; i += 4) _mm256_storeu_pd(d + i, s);
  if (n4) AddSimdLanes(n4);
  for (; i < n; ++i) d[i] = v;
}

// VEXPR sees __m256d a, b; SEXPR sees doubles av, bv (the scalar tail must
// be the exact scalar-table expression).
#define SGL_AX_BIN(NAME, VEXPR, SEXPR)                                      \
  SGL_AVX2 void NAME(const double* pa, const double* pb, double* d,         \
                     size_t n) {                                            \
    size_t i = 0;                                                           \
    const size_t n4 = n & ~size_t(3);                                       \
    for (; i < n4; i += 4) {                                                \
      const __m256d a = _mm256_loadu_pd(pa + i);                            \
      const __m256d b = _mm256_loadu_pd(pb + i);                            \
      _mm256_storeu_pd(d + i, (VEXPR));                                     \
    }                                                                       \
    if (n4) AddSimdLanes(n4);                                               \
    for (; i < n; ++i) {                                                    \
      const double av = pa[i], bv = pb[i];                                  \
      d[i] = (SEXPR);                                                       \
    }                                                                       \
  }                                                                         \
  SGL_AVX2 void NAME##Sel(const double* pa, const double* pb, double* d,    \
                          const RowIdx* sel, size_t cnt) {                  \
    size_t k = 0;                                                           \
    const size_t c4 = cnt & ~size_t(3);                                     \
    double tmp[4];                                                          \
    for (; k < c4; k += 4) {                                                \
      const __m128i idx =                                                   \
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + k));       \
      const __m256d a = _mm256_i32gather_pd(pa, idx, 8);                    \
      const __m256d b = _mm256_i32gather_pd(pb, idx, 8);                    \
      _mm256_storeu_pd(tmp, (VEXPR));                                       \
      d[sel[k]] = tmp[0];                                                   \
      d[sel[k + 1]] = tmp[1];                                               \
      d[sel[k + 2]] = tmp[2];                                               \
      d[sel[k + 3]] = tmp[3];                                               \
    }                                                                       \
    if (c4) AddSimdLanes(c4);                                               \
    for (; k < cnt; ++k) {                                                  \
      const size_t i = sel[k];                                              \
      const double av = pa[i], bv = pb[i];                                  \
      d[i] = (SEXPR);                                                       \
    }                                                                       \
  }

SGL_AX_BIN(Add, _mm256_add_pd(a, b), av + bv)
SGL_AX_BIN(Sub, _mm256_sub_pd(a, b), av - bv)
SGL_AX_BIN(Mul, _mm256_mul_pd(a, b), av * bv)
SGL_AX_BIN(Div,
           _mm256_andnot_pd(
               _mm256_cmp_pd(b, _mm256_setzero_pd(), _CMP_EQ_OQ),
               _mm256_div_pd(a, b)),
           GuardedDiv(av, bv))
SGL_AX_BIN(Min, _mm256_min_pd(a, b), av < bv ? av : bv)
SGL_AX_BIN(Max, _mm256_max_pd(a, b), av > bv ? av : bv)
#undef SGL_AX_BIN

#define SGL_AX_UN(NAME, VEXPR, SEXPR)                                       \
  SGL_AVX2 void NAME(const double* pa, double* d, size_t n) {               \
    size_t i = 0;                                                           \
    const size_t n4 = n & ~size_t(3);                                       \
    for (; i < n4; i += 4) {                                                \
      const __m256d a = _mm256_loadu_pd(pa + i);                            \
      _mm256_storeu_pd(d + i, (VEXPR));                                     \
    }                                                                       \
    if (n4) AddSimdLanes(n4);                                               \
    for (; i < n; ++i) {                                                    \
      const double av = pa[i];                                              \
      d[i] = (SEXPR);                                                       \
    }                                                                       \
  }                                                                         \
  SGL_AVX2 void NAME##Sel(const double* pa, double* d, const RowIdx* sel,   \
                          size_t cnt) {                                     \
    size_t k = 0;                                                           \
    const size_t c4 = cnt & ~size_t(3);                                     \
    double tmp[4];                                                          \
    for (; k < c4; k += 4) {                                                \
      const __m128i idx =                                                   \
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + k));       \
      const __m256d a = _mm256_i32gather_pd(pa, idx, 8);                    \
      _mm256_storeu_pd(tmp, (VEXPR));                                       \
      d[sel[k]] = tmp[0];                                                   \
      d[sel[k + 1]] = tmp[1];                                               \
      d[sel[k + 2]] = tmp[2];                                               \
      d[sel[k + 3]] = tmp[3];                                               \
    }                                                                       \
    if (c4) AddSimdLanes(c4);                                               \
    for (; k < cnt; ++k) {                                                  \
      const double av = pa[sel[k]];                                         \
      d[sel[k]] = (SEXPR);                                                  \
    }                                                                       \
  }

SGL_AX_UN(Neg, _mm256_xor_pd(a, _mm256_set1_pd(-0.0)), -av)
SGL_AX_UN(Abs, _mm256_andnot_pd(_mm256_set1_pd(-0.0), a), std::fabs(av))
SGL_AX_UN(Sqrt,
          _mm256_andnot_pd(
              _mm256_cmp_pd(a, _mm256_setzero_pd(), _CMP_LE_OQ),
              _mm256_sqrt_pd(a)),
          GuardedSqrt(av))
SGL_AX_UN(Floor, _mm256_round_pd(a, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC),
          std::floor(av))
SGL_AX_UN(Ceil, _mm256_round_pd(a, _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC),
          std::ceil(av))
#undef SGL_AX_UN

SGL_AVX2 void Clamp(const double* v, const double* lo, const double* hi,
                    double* d, size_t n) {
  size_t i = 0;
  const size_t n4 = n & ~size_t(3);
  for (; i < n4; i += 4) {
    const __m256d vv = _mm256_loadu_pd(v + i);
    const __m256d vl = _mm256_loadu_pd(lo + i);
    const __m256d vh = _mm256_loadu_pd(hi + i);
    _mm256_storeu_pd(d + i, _mm256_min_pd(vh, _mm256_max_pd(vl, vv)));
  }
  if (n4) AddSimdLanes(n4);
  for (; i < n; ++i) d[i] = ApplyClamp(v[i], lo[i], hi[i]);
}

SGL_AVX2 void ClampSel(const double* v, const double* lo, const double* hi,
                       double* d, const RowIdx* sel, size_t cnt) {
  size_t k = 0;
  const size_t c4 = cnt & ~size_t(3);
  double tmp[4];
  for (; k < c4; k += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + k));
    const __m256d vv = _mm256_i32gather_pd(v, idx, 8);
    const __m256d vl = _mm256_i32gather_pd(lo, idx, 8);
    const __m256d vh = _mm256_i32gather_pd(hi, idx, 8);
    _mm256_storeu_pd(tmp, _mm256_min_pd(vh, _mm256_max_pd(vl, vv)));
    d[sel[k]] = tmp[0];
    d[sel[k + 1]] = tmp[1];
    d[sel[k + 2]] = tmp[2];
    d[sel[k + 3]] = tmp[3];
  }
  if (c4) AddSimdLanes(c4);
  for (; k < cnt; ++k) {
    const size_t i = sel[k];
    d[i] = ApplyClamp(v[i], lo[i], hi[i]);
  }
}

// IMM is the AVX comparison predicate immediate, OP the C++ operator for
// tails. One macro stamps the byte-mask compares and all six fused filter
// shapes for a predicate.
#define SGL_AX_CMP(NAME, IMM, OP)                                           \
  SGL_AVX2 void Cmp##NAME(const double* pa, const double* pb, uint8_t* d,   \
                          size_t n) {                                       \
    size_t i = 0;                                                           \
    const size_t n4 = n & ~size_t(3);                                       \
    for (; i < n4; i += 4) {                                                \
      const __m256d a = _mm256_loadu_pd(pa + i);                            \
      const __m256d b = _mm256_loadu_pd(pb + i);                            \
      const int mask = _mm256_movemask_pd(_mm256_cmp_pd(a, b, IMM));        \
      const uint32_t bytes = kBoolLut.v[mask];                              \
      __builtin_memcpy(d + i, &bytes, 4);                                   \
    }                                                                       \
    if (n4) AddSimdLanes(n4);                                               \
    for (; i < n; ++i) d[i] = (pa[i] OP pb[i]) ? 1 : 0;                     \
  }                                                                         \
  SGL_AVX2 void Cmp##NAME##Sel(const double* pa, const double* pb,          \
                               uint8_t* d, const RowIdx* sel, size_t cnt) { \
    for (size_t k = 0; k < cnt; ++k) {                                      \
      const size_t i = sel[k];                                              \
      d[i] = (pa[i] OP pb[i]) ? 1 : 0;                                      \
    }                                                                       \
  }                                                                         \
  SGL_AVX2 size_t Filter##NAME##IotaVV(const double* pa, const double* pb,  \
                                       RowIdx* out, size_t n) {             \
    size_t m = 0, i = 0;                                                    \
    const size_t n4 = n & ~size_t(3);                                       \
    const __m128i iota = _mm_set_epi32(3, 2, 1, 0);                         \
    for (; i < n4; i += 4) {                                                \
      const __m256d a = _mm256_loadu_pd(pa + i);                            \
      const __m256d b = _mm256_loadu_pd(pb + i);                            \
      const int mask = _mm256_movemask_pd(_mm256_cmp_pd(a, b, IMM));        \
      const __m128i base =                                                  \
          _mm_add_epi32(_mm_set1_epi32(static_cast<int>(i)), iota);         \
      const __m128i ctrl = _mm_load_si128(                                  \
          reinterpret_cast<const __m128i*>(kCompactLut.b[mask]));           \
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + m),                 \
                       _mm_shuffle_epi8(base, ctrl));                       \
      m += static_cast<size_t>(__builtin_popcount(                          \
          static_cast<unsigned>(mask)));                                    \
    }                                                                       \
    if (n4) AddSimdLanes(n4);                                               \
    for (; i < n; ++i) {                                                    \
      out[m] = static_cast<RowIdx>(i);                                      \
      m += (pa[i] OP pb[i]) ? 1 : 0;                                        \
    }                                                                       \
    return m;                                                               \
  }                                                                         \
  SGL_AVX2 size_t Filter##NAME##IotaVS(const double* pa, double vb,         \
                                       RowIdx* out, size_t n) {             \
    size_t m = 0, i = 0;                                                    \
    const size_t n4 = n & ~size_t(3);                                       \
    const __m128i iota = _mm_set_epi32(3, 2, 1, 0);                         \
    const __m256d b = _mm256_set1_pd(vb);                                   \
    for (; i < n4; i += 4) {                                                \
      const __m256d a = _mm256_loadu_pd(pa + i);                            \
      const int mask = _mm256_movemask_pd(_mm256_cmp_pd(a, b, IMM));        \
      const __m128i base =                                                  \
          _mm_add_epi32(_mm_set1_epi32(static_cast<int>(i)), iota);         \
      const __m128i ctrl = _mm_load_si128(                                  \
          reinterpret_cast<const __m128i*>(kCompactLut.b[mask]));           \
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + m),                 \
                       _mm_shuffle_epi8(base, ctrl));                       \
      m += static_cast<size_t>(__builtin_popcount(                          \
          static_cast<unsigned>(mask)));                                    \
    }                                                                       \
    if (n4) AddSimdLanes(n4);                                               \
    for (; i < n; ++i) {                                                    \
      out[m] = static_cast<RowIdx>(i);                                      \
      m += (pa[i] OP vb) ? 1 : 0;                                           \
    }                                                                       \
    return m;                                                               \
  }                                                                         \
  SGL_AVX2 size_t Filter##NAME##IotaSV(double va, const double* pb,         \
                                       RowIdx* out, size_t n) {             \
    size_t m = 0, i = 0;                                                    \
    const size_t n4 = n & ~size_t(3);                                       \
    const __m128i iota = _mm_set_epi32(3, 2, 1, 0);                         \
    const __m256d a = _mm256_set1_pd(va);                                   \
    for (; i < n4; i += 4) {                                                \
      const __m256d b = _mm256_loadu_pd(pb + i);                            \
      const int mask = _mm256_movemask_pd(_mm256_cmp_pd(a, b, IMM));        \
      const __m128i base =                                                  \
          _mm_add_epi32(_mm_set1_epi32(static_cast<int>(i)), iota);         \
      const __m128i ctrl = _mm_load_si128(                                  \
          reinterpret_cast<const __m128i*>(kCompactLut.b[mask]));           \
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + m),                 \
                       _mm_shuffle_epi8(base, ctrl));                       \
      m += static_cast<size_t>(__builtin_popcount(                          \
          static_cast<unsigned>(mask)));                                    \
    }                                                                       \
    if (n4) AddSimdLanes(n4);                                               \
    for (; i < n; ++i) {                                                    \
      out[m] = static_cast<RowIdx>(i);                                      \
      m += (va OP pb[i]) ? 1 : 0;                                           \
    }                                                                       \
    return m;                                                               \
  }                                                                         \
  SGL_AVX2 size_t Filter##NAME##SelVV(const double* pa, const double* pb,   \
                                      const RowIdx* sel, size_t cnt,        \
                                      RowIdx* out) {                        \
    size_t m = 0, k = 0;                                                    \
    const size_t c4 = cnt & ~size_t(3);                                     \
    for (; k < c4; k += 4) {                                                \
      const __m128i idx =                                                   \
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + k));       \
      const __m256d a = _mm256_i32gather_pd(pa, idx, 8);                    \
      const __m256d b = _mm256_i32gather_pd(pb, idx, 8);                    \
      const int mask = _mm256_movemask_pd(_mm256_cmp_pd(a, b, IMM));        \
      const __m128i ctrl = _mm_load_si128(                                  \
          reinterpret_cast<const __m128i*>(kCompactLut.b[mask]));           \
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + m),                 \
                       _mm_shuffle_epi8(idx, ctrl));                        \
      m += static_cast<size_t>(__builtin_popcount(                          \
          static_cast<unsigned>(mask)));                                    \
    }                                                                       \
    if (c4) AddSimdLanes(c4);                                               \
    for (; k < cnt; ++k) {                                                  \
      const RowIdx i = sel[k];                                              \
      out[m] = i;                                                           \
      m += (pa[i] OP pb[i]) ? 1 : 0;                                        \
    }                                                                       \
    return m;                                                               \
  }                                                                         \
  SGL_AVX2 size_t Filter##NAME##SelVS(const double* pa, double vb,          \
                                      const RowIdx* sel, size_t cnt,        \
                                      RowIdx* out) {                        \
    size_t m = 0, k = 0;                                                    \
    const size_t c4 = cnt & ~size_t(3);                                     \
    const __m256d b = _mm256_set1_pd(vb);                                   \
    for (; k < c4; k += 4) {                                                \
      const __m128i idx =                                                   \
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + k));       \
      const __m256d a = _mm256_i32gather_pd(pa, idx, 8);                    \
      const int mask = _mm256_movemask_pd(_mm256_cmp_pd(a, b, IMM));        \
      const __m128i ctrl = _mm_load_si128(                                  \
          reinterpret_cast<const __m128i*>(kCompactLut.b[mask]));           \
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + m),                 \
                       _mm_shuffle_epi8(idx, ctrl));                        \
      m += static_cast<size_t>(__builtin_popcount(                          \
          static_cast<unsigned>(mask)));                                    \
    }                                                                       \
    if (c4) AddSimdLanes(c4);                                               \
    for (; k < cnt; ++k) {                                                  \
      const RowIdx i = sel[k];                                              \
      out[m] = i;                                                           \
      m += (pa[i] OP vb) ? 1 : 0;                                           \
    }                                                                       \
    return m;                                                               \
  }                                                                         \
  SGL_AVX2 size_t Filter##NAME##SelSV(double va, const double* pb,          \
                                      const RowIdx* sel, size_t cnt,        \
                                      RowIdx* out) {                        \
    size_t m = 0, k = 0;                                                    \
    const size_t c4 = cnt & ~size_t(3);                                     \
    const __m256d a = _mm256_set1_pd(va);                                   \
    for (; k < c4; k += 4) {                                                \
      const __m128i idx =                                                   \
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + k));       \
      const __m256d b = _mm256_i32gather_pd(pb, idx, 8);                    \
      const int mask = _mm256_movemask_pd(_mm256_cmp_pd(a, b, IMM));        \
      const __m128i ctrl = _mm_load_si128(                                  \
          reinterpret_cast<const __m128i*>(kCompactLut.b[mask]));           \
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + m),                 \
                       _mm_shuffle_epi8(idx, ctrl));                        \
      m += static_cast<size_t>(__builtin_popcount(                          \
          static_cast<unsigned>(mask)));                                    \
    }                                                                       \
    if (c4) AddSimdLanes(c4);                                               \
    for (; k < cnt; ++k) {                                                  \
      const RowIdx i = sel[k];                                              \
      out[m] = i;                                                           \
      m += (va OP pb[i]) ? 1 : 0;                                           \
    }                                                                       \
    return m;                                                               \
  }

SGL_AX_CMP(Lt, _CMP_LT_OQ, <)
SGL_AX_CMP(Le, _CMP_LE_OQ, <=)
SGL_AX_CMP(Gt, _CMP_GT_OQ, >)
SGL_AX_CMP(Ge, _CMP_GE_OQ, >=)
SGL_AX_CMP(Eq, _CMP_EQ_OQ, ==)
SGL_AX_CMP(Ne, _CMP_NEQ_UQ, !=)
#undef SGL_AX_CMP

// Batched probe filter. keep = (v >= lo & v <= hi) per dim with ordered
// compares, so a NaN coordinate or box edge is never inside, matching
// GridIndex::Query exactly.
SGL_AVX2 size_t RangeFilter(const RowIdx* items, size_t n,
                            const double* const* coords, int dims,
                            const double* lo, const double* hi, RowIdx* out) {
  size_t m = 0, t = 0;
  const size_t n4 = n & ~size_t(3);
  for (; t < n4; t += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(items + t));
    __m256d keep = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    for (int k = 0; k < dims; ++k) {
      const __m256d v = _mm256_i32gather_pd(coords[k], idx, 8);
      const __m256d in = _mm256_and_pd(
          _mm256_cmp_pd(v, _mm256_set1_pd(lo[k]), _CMP_GE_OQ),
          _mm256_cmp_pd(v, _mm256_set1_pd(hi[k]), _CMP_LE_OQ));
      keep = _mm256_and_pd(in, keep);
    }
    const int mask = _mm256_movemask_pd(keep);
    const __m128i ctrl =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kCompactLut.b[mask]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + m),
                     _mm_shuffle_epi8(idx, ctrl));
    m += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  if (n4) AddSimdLanes(n4);
  for (; t < n; ++t) {
    const RowIdx p = items[t];
    bool inside = true;
    for (int k = 0; k < dims; ++k) {
      const double v = coords[k][p];
      if (!(v >= lo[k] && v <= hi[k])) {
        inside = false;
        break;
      }
    }
    out[m] = p;
    m += inside ? 1 : 0;
  }
  return m;
}

}  // namespace vmka
}  // namespace sgl

#undef SGL_AVX2

#endif  // SGL_VM_KERNELS_AVX2_H_
