// Portable scalar implementations of the VM kernel table — the semantic
// reference every other table must match bit-for-bit per lane.
//
// These are the exact loops the VM interpreter ran before the kernel layer
// existed: same guarded numeric forms (src/ra/numeric.h), same branchless
// compaction (`out[m] = i; m += keep ? 1 : 0`), same evaluation order.
// The vectorize pragma only *hints*; it never licenses reassociation, so
// -O3 + ivdep keeps IEEE lane semantics intact.
//
// Included only by kernels.cc.

#ifndef SGL_VM_KERNELS_SCALAR_H_
#define SGL_VM_KERNELS_SCALAR_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "src/common/types.h"
#include "src/ra/numeric.h"

#if defined(__GNUC__) && !defined(__clang__)
#define SGL_KERN_VEC _Pragma("GCC ivdep")
#else
#define SGL_KERN_VEC
#endif

namespace sgl {
namespace vmks {

inline void Fill(double* d, double v, size_t n) {
  SGL_KERN_VEC
  for (size_t i = 0; i < n; ++i) d[i] = v;
}

// EXPR sees the lane operands as `av` / `bv`.
#define SGL_SC_BIN(NAME, EXPR)                                              \
  inline void NAME(const double* pa, const double* pb, double* d,           \
                   size_t n) {                                              \
    SGL_KERN_VEC                                                            \
    for (size_t i = 0; i < n; ++i) {                                        \
      const double av = pa[i], bv = pb[i];                                  \
      d[i] = (EXPR);                                                        \
    }                                                                       \
  }                                                                         \
  inline void NAME##Sel(const double* pa, const double* pb, double* d,      \
                        const RowIdx* sel, size_t cnt) {                    \
    for (size_t k = 0; k < cnt; ++k) {                                      \
      const size_t i = sel[k];                                              \
      const double av = pa[i], bv = pb[i];                                  \
      d[i] = (EXPR);                                                        \
    }                                                                       \
  }

SGL_SC_BIN(Add, av + bv)
SGL_SC_BIN(Sub, av - bv)
SGL_SC_BIN(Mul, av * bv)
SGL_SC_BIN(Div, GuardedDiv(av, bv))
SGL_SC_BIN(Mod, GuardedMod(av, bv))
SGL_SC_BIN(Min, av < bv ? av : bv)
SGL_SC_BIN(Max, av > bv ? av : bv)
SGL_SC_BIN(Pow, std::pow(av, bv))
#undef SGL_SC_BIN

#define SGL_SC_UN(NAME, EXPR)                                               \
  inline void NAME(const double* pa, double* d, size_t n) {                 \
    SGL_KERN_VEC                                                            \
    for (size_t i = 0; i < n; ++i) {                                        \
      const double av = pa[i];                                              \
      d[i] = (EXPR);                                                        \
    }                                                                       \
  }                                                                         \
  inline void NAME##Sel(const double* pa, double* d, const RowIdx* sel,     \
                        size_t cnt) {                                       \
    for (size_t k = 0; k < cnt; ++k) {                                      \
      const size_t i = sel[k];                                              \
      const double av = pa[i];                                              \
      d[i] = (EXPR);                                                        \
    }                                                                       \
  }

SGL_SC_UN(Neg, -av)
SGL_SC_UN(Abs, std::fabs(av))
SGL_SC_UN(Sqrt, GuardedSqrt(av))
SGL_SC_UN(Floor, std::floor(av))
SGL_SC_UN(Ceil, std::ceil(av))
#undef SGL_SC_UN

inline void Clamp(const double* v, const double* lo, const double* hi,
                  double* d, size_t n) {
  SGL_KERN_VEC
  for (size_t i = 0; i < n; ++i) d[i] = ApplyClamp(v[i], lo[i], hi[i]);
}

inline void ClampSel(const double* v, const double* lo, const double* hi,
                     double* d, const RowIdx* sel, size_t cnt) {
  for (size_t k = 0; k < cnt; ++k) {
    const size_t i = sel[k];
    d[i] = ApplyClamp(v[i], lo[i], hi[i]);
  }
}

// One macro stamps the whole predicate family: byte-mask compares plus the
// six fused filter shapes ({iota, sel} x {vv, vs, sv}). Sel-shape filters
// may run in place (out == sel): out[m] with m <= k is always at or behind
// the read cursor.
#define SGL_SC_CMP(NAME, OP)                                                \
  inline void Cmp##NAME(const double* pa, const double* pb, uint8_t* d,     \
                        size_t n) {                                         \
    SGL_KERN_VEC                                                            \
    for (size_t i = 0; i < n; ++i) d[i] = (pa[i] OP pb[i]) ? 1 : 0;         \
  }                                                                         \
  inline void Cmp##NAME##Sel(const double* pa, const double* pb,            \
                             uint8_t* d, const RowIdx* sel, size_t cnt) {   \
    for (size_t k = 0; k < cnt; ++k) {                                      \
      const size_t i = sel[k];                                              \
      d[i] = (pa[i] OP pb[i]) ? 1 : 0;                                      \
    }                                                                       \
  }                                                                         \
  inline size_t Filter##NAME##IotaVV(const double* pa, const double* pb,    \
                                     RowIdx* out, size_t n) {               \
    size_t m = 0;                                                           \
    for (size_t i = 0; i < n; ++i) {                                        \
      out[m] = static_cast<RowIdx>(i);                                      \
      m += (pa[i] OP pb[i]) ? 1 : 0;                                        \
    }                                                                       \
    return m;                                                               \
  }                                                                         \
  inline size_t Filter##NAME##IotaVS(const double* pa, double vb,           \
                                     RowIdx* out, size_t n) {               \
    size_t m = 0;                                                           \
    for (size_t i = 0; i < n; ++i) {                                        \
      out[m] = static_cast<RowIdx>(i);                                      \
      m += (pa[i] OP vb) ? 1 : 0;                                           \
    }                                                                       \
    return m;                                                               \
  }                                                                         \
  inline size_t Filter##NAME##IotaSV(double va, const double* pb,           \
                                     RowIdx* out, size_t n) {               \
    size_t m = 0;                                                           \
    for (size_t i = 0; i < n; ++i) {                                        \
      out[m] = static_cast<RowIdx>(i);                                      \
      m += (va OP pb[i]) ? 1 : 0;                                           \
    }                                                                       \
    return m;                                                               \
  }                                                                         \
  inline size_t Filter##NAME##SelVV(const double* pa, const double* pb,     \
                                    const RowIdx* sel, size_t cnt,          \
                                    RowIdx* out) {                          \
    size_t m = 0;                                                           \
    for (size_t k = 0; k < cnt; ++k) {                                      \
      const RowIdx i = sel[k];                                              \
      out[m] = i;                                                           \
      m += (pa[i] OP pb[i]) ? 1 : 0;                                        \
    }                                                                       \
    return m;                                                               \
  }                                                                         \
  inline size_t Filter##NAME##SelVS(const double* pa, double vb,            \
                                    const RowIdx* sel, size_t cnt,          \
                                    RowIdx* out) {                          \
    size_t m = 0;                                                           \
    for (size_t k = 0; k < cnt; ++k) {                                      \
      const RowIdx i = sel[k];                                              \
      out[m] = i;                                                           \
      m += (pa[i] OP vb) ? 1 : 0;                                           \
    }                                                                       \
    return m;                                                               \
  }                                                                         \
  inline size_t Filter##NAME##SelSV(double va, const double* pb,            \
                                    const RowIdx* sel, size_t cnt,          \
                                    RowIdx* out) {                          \
    size_t m = 0;                                                           \
    for (size_t k = 0; k < cnt; ++k) {                                      \
      const RowIdx i = sel[k];                                              \
      out[m] = i;                                                           \
      m += (va OP pb[i]) ? 1 : 0;                                           \
    }                                                                       \
    return m;                                                               \
  }

SGL_SC_CMP(Lt, <)
SGL_SC_CMP(Le, <=)
SGL_SC_CMP(Gt, >)
SGL_SC_CMP(Ge, >=)
SGL_SC_CMP(Eq, ==)
SGL_SC_CMP(Ne, !=)
#undef SGL_SC_CMP

// Mirrors GridIndex::Query's exact per-item bounds test, the language's
// `v >= lo && v <= hi`: a NaN coordinate or box edge is never inside.
inline size_t RangeFilter(const RowIdx* items, size_t n,
                          const double* const* coords, int dims,
                          const double* lo, const double* hi, RowIdx* out) {
  size_t m = 0;
  for (size_t t = 0; t < n; ++t) {
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

}  // namespace vmks
}  // namespace sgl

#endif  // SGL_VM_KERNELS_SCALAR_H_
