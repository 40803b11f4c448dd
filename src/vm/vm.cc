// Bytecode interpreter: one dispatch per instruction, one kernel call per
// dispatch. See bytecode.h for the execution model and vm.h for parity
// invariants. Numeric folds, comparisons, and fused compare-and-compact
// filters route through the explicit-SIMD kernel table (kernels.h, scalar
// or AVX2 picked at runtime — bit-identical per lane either way); the
// remaining loops (ref/bool logic, gathers, set reads) stay plain
// pragma-hinted index loops. Guarded arithmetic comes from
// src/ra/numeric.h, shared with the scalar oracle.

#include "src/vm/vm.h"

#include <algorithm>
#include <cmath>

#include "src/ra/numeric.h"
#include "src/vm/kernels.h"

namespace sgl {
namespace {

// Vectorization hint for contiguous elementwise loops. The register
// allocator may reuse an operand register as the destination, but only with
// same-index access (d[i] from pa[i]/pb[i]), so asserting independence
// across iterations is sound.
#if defined(__clang__)
#define SGL_VEC_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define SGL_VEC_LOOP _Pragma("GCC ivdep")
#else
#define SGL_VEC_LOOP
#endif

const EntitySet kEmptySet;

/// Everything one program execution needs. `sel == nullptr` means all lanes
/// [0, n) are active and contiguous (the fast, vectorizable state); once a
/// filter compacts, `sel/cnt` list the active span positions ascending.
struct ExecState {
  const VmProgram* p = nullptr;
  const VecContext* ctx = nullptr;
  VmRegisters* r = nullptr;
  const VmKernels* k = nullptr;  // active kernel table (scalar or AVX2)
  const RowIdx* sel = nullptr;
  size_t cnt = 0;
  size_t n = 0;
  bool uniform_outer = false;
  std::vector<RowIdx>* filter_sel = nullptr;  // filter-mode compaction buffer
};

/// Sizes register files and resets per-run bookkeeping. All growth is
/// amortized: steady state touches capacities only.
void SizeRegs(const VmProgram& p, size_t n, VmRegisters* r) {
  if (n > r->span_high) r->span_high = n;
  n = r->span_high;  // columns hold the high-water span (see vm.h)
  if (r->num.size() < p.num_regs) r->num.resize(p.num_regs);
  if (r->bools.size() < p.bool_regs) r->bools.resize(p.bool_regs);
  if (r->refs.size() < p.ref_regs) r->refs.resize(p.ref_regs);
  ResizeAmortized(&r->num_ptr, p.num_regs);
  ResizeAmortized(&r->bool_ptr, p.bool_regs);
  ResizeAmortized(&r->ref_ptr, p.ref_regs);
  ResizeAmortized(&r->num_uni, p.num_regs);
  ResizeAmortized(&r->bool_uni, p.bool_regs);
  ResizeAmortized(&r->ref_uni, p.ref_regs);
  ResizeAmortized(&r->num_val, p.num_regs);
  ResizeAmortized(&r->bool_val, p.bool_regs);
  ResizeAmortized(&r->ref_val, p.ref_regs);
  for (uint16_t i = 0; i < p.num_regs; ++i) {
    ResizeAmortized(&r->num[i], n);
    r->num_ptr[i] = r->num[i].data();
    r->num_uni[i] = 0;
  }
  for (uint16_t i = 0; i < p.bool_regs; ++i) {
    ResizeAmortized(&r->bools[i], n);
    r->bool_ptr[i] = r->bools[i].data();
    r->bool_uni[i] = 0;
  }
  for (uint16_t i = 0; i < p.ref_regs; ++i) {
    ResizeAmortized(&r->refs[i], n);
    r->ref_ptr[i] = r->refs[i].data();
    r->ref_uni[i] = 0;
  }
}

inline void SetNumU(ExecState& s, uint16_t reg, double v) {
  s.r->num_uni[reg] = 1;
  s.r->num_val[reg] = v;
}
inline void SetBoolU(ExecState& s, uint16_t reg, uint8_t v) {
  s.r->bool_uni[reg] = 1;
  s.r->bool_val[reg] = v;
}
inline void SetRefU(ExecState& s, uint16_t reg, EntityId v) {
  s.r->ref_uni[reg] = 1;
  s.r->ref_val[reg] = v;
}

// Lazy materialization: splats a uniform register over the active lanes so
// a mixed uniform/per-lane kernel can run one homogeneous loop.
double* MatNum(ExecState& s, uint16_t reg) {
  double* d = s.r->num_ptr[reg];
  if (s.r->num_uni[reg]) {
    const double v = s.r->num_val[reg];
    if (s.sel == nullptr) {
      s.k->fill(d, v, s.n);
    } else {
      for (size_t k = 0; k < s.cnt; ++k) d[s.sel[k]] = v;
    }
    s.r->num_uni[reg] = 0;
  }
  return d;
}
uint8_t* MatBool(ExecState& s, uint16_t reg) {
  uint8_t* d = s.r->bool_ptr[reg];
  if (s.r->bool_uni[reg]) {
    const uint8_t v = s.r->bool_val[reg];
    if (s.sel == nullptr) {
      SGL_VEC_LOOP
      for (size_t i = 0; i < s.n; ++i) d[i] = v;
    } else {
      for (size_t k = 0; k < s.cnt; ++k) d[s.sel[k]] = v;
    }
    s.r->bool_uni[reg] = 0;
  }
  return d;
}
EntityId* MatRef(ExecState& s, uint16_t reg) {
  EntityId* d = s.r->ref_ptr[reg];
  if (s.r->ref_uni[reg]) {
    const EntityId v = s.r->ref_val[reg];
    if (s.sel == nullptr) {
      SGL_VEC_LOOP
      for (size_t i = 0; i < s.n; ++i) d[i] = v;
    } else {
      for (size_t k = 0; k < s.cnt; ++k) d[s.sel[k]] = v;
    }
    s.r->ref_uni[reg] = 0;
  }
  return d;
}

// Runs BODY once per active lane with `i` bound to the span position.
// Contiguous (no selection) iterations get the vectorization hint.
#define SGL_VM_LANES(...)                               \
  do {                                                  \
    if (s.sel == nullptr) {                             \
      SGL_VEC_LOOP                                      \
      for (size_t i = 0; i < s.n; ++i) { __VA_ARGS__; } \
    } else {                                            \
      for (size_t k = 0; k < s.cnt; ++k) {              \
        const size_t i = s.sel[k];                      \
        __VA_ARGS__;                                    \
      }                                                 \
    }                                                   \
  } while (0)

// dst = kernel KID (av, bv) over doubles; all-uniform operands stay scalar
// via EXPR — the kernel tables implement the identical lane expression.
#define SGL_VM_NUM_BIN(KID, EXPR)                       \
  do {                                                  \
    if (s.r->num_uni[in.a] && s.r->num_uni[in.b]) {     \
      const double av = s.r->num_val[in.a];             \
      const double bv = s.r->num_val[in.b];             \
      SetNumU(s, in.dst, (EXPR));                       \
    } else {                                            \
      const double* pa = MatNum(s, in.a);               \
      const double* pb = MatNum(s, in.b);               \
      double* d = s.r->num_ptr[in.dst];                 \
      s.r->num_uni[in.dst] = 0;                         \
      if (s.sel == nullptr) {                           \
        s.k->bin[KID](pa, pb, d, s.n);                  \
      } else {                                          \
        s.k->bin_sel[KID](pa, pb, d, s.sel, s.cnt);     \
      }                                                 \
    }                                                   \
  } while (0)

// dst = kernel KID (av) over doubles.
#define SGL_VM_NUM_UN(KID, EXPR)               \
  do {                                         \
    if (s.r->num_uni[in.a]) {                  \
      const double av = s.r->num_val[in.a];    \
      SetNumU(s, in.dst, (EXPR));              \
    } else {                                   \
      const double* pa = s.r->num_ptr[in.a];   \
      double* d = s.r->num_ptr[in.dst];        \
      s.r->num_uni[in.dst] = 0;                \
      if (s.sel == nullptr) {                  \
        s.k->un[KID](pa, d, s.n);              \
      } else {                                 \
        s.k->un_sel[KID](pa, d, s.sel, s.cnt); \
      }                                        \
    }                                          \
  } while (0)

// bool dst = num a OP num b (plain C++ operator, matching ApplyCmp).
#define SGL_VM_NUM_CMP(KID, OP)                                     \
  do {                                                              \
    if (s.r->num_uni[in.a] && s.r->num_uni[in.b]) {                 \
      SetBoolU(s, in.dst,                                           \
               (s.r->num_val[in.a] OP s.r->num_val[in.b]) ? 1 : 0); \
    } else {                                                        \
      const double* pa = MatNum(s, in.a);                           \
      const double* pb = MatNum(s, in.b);                           \
      uint8_t* d = s.r->bool_ptr[in.dst];                           \
      s.r->bool_uni[in.dst] = 0;                                    \
      if (s.sel == nullptr) {                                       \
        s.k->cmp[KID](pa, pb, d, s.n);                              \
      } else {                                                      \
        s.k->cmp_sel[KID](pa, pb, d, s.sel, s.cnt);                 \
      }                                                             \
    }                                                               \
  } while (0)

#define SGL_VM_REF_CMP(OP)                                          \
  do {                                                              \
    if (s.r->ref_uni[in.a] && s.r->ref_uni[in.b]) {                 \
      SetBoolU(s, in.dst,                                           \
               (s.r->ref_val[in.a] OP s.r->ref_val[in.b]) ? 1 : 0); \
    } else {                                                        \
      const EntityId* pa = MatRef(s, in.a);                         \
      const EntityId* pb = MatRef(s, in.b);                         \
      uint8_t* d = s.r->bool_ptr[in.dst];                           \
      s.r->bool_uni[in.dst] = 0;                                    \
      SGL_VM_LANES(d[i] = (pa[i] OP pb[i]) ? 1 : 0);                \
    }                                                               \
  } while (0)

#define SGL_VM_BOOL_CMP(OP)                                           \
  do {                                                                \
    if (s.r->bool_uni[in.a] && s.r->bool_uni[in.b]) {                 \
      SetBoolU(s, in.dst,                                             \
               ((s.r->bool_val[in.a] != 0) OP(s.r->bool_val[in.b] !=  \
                                              0))                     \
                   ? 1                                                \
                   : 0);                                              \
    } else {                                                          \
      const uint8_t* pa = MatBool(s, in.a);                           \
      const uint8_t* pb = MatBool(s, in.b);                           \
      uint8_t* d = s.r->bool_ptr[in.dst];                             \
      s.r->bool_uni[in.dst] = 0;                                      \
      SGL_VM_LANES(d[i] = ((pa[i] != 0) OP(pb[i] != 0)) ? 1 : 0);     \
    }                                                                 \
  } while (0)

// Bitwise and/or over 0/1 bytes (operands are always 0 or 1, so this is
// the oracle's && / ||).
#define SGL_VM_BOOL_BIN(OP)                                          \
  do {                                                               \
    if (s.r->bool_uni[in.a] && s.r->bool_uni[in.b]) {                \
      SetBoolU(s, in.dst,                                            \
               static_cast<uint8_t>(s.r->bool_val[in.a] OP s.r      \
                                        ->bool_val[in.b]));          \
    } else {                                                         \
      const uint8_t* pa = MatBool(s, in.a);                          \
      const uint8_t* pb = MatBool(s, in.b);                          \
      uint8_t* d = s.r->bool_ptr[in.dst];                            \
      s.r->bool_uni[in.dst] = 0;                                     \
      SGL_VM_LANES(d[i] = static_cast<uint8_t>(pa[i] OP pb[i]));     \
    }                                                                \
  } while (0)

// Branchless select with a uniform-condition fast path that just forwards
// the chosen operand register.
#define SGL_VM_SELECT(PTR, UNI, VAL, MAT, TY)                      \
  do {                                                             \
    if (s.r->bool_uni[in.a]) {                                     \
      const uint16_t src = s.r->bool_val[in.a] != 0 ? in.b : in.c; \
      if (s.r->UNI[src]) {                                         \
        s.r->UNI[in.dst] = 1;                                      \
        s.r->VAL[in.dst] = s.r->VAL[src];                          \
      } else {                                                     \
        const TY* p = s.r->PTR[src];                               \
        TY* d = s.r->PTR[in.dst];                                  \
        s.r->UNI[in.dst] = 0;                                      \
        if (d != p) SGL_VM_LANES(d[i] = p[i]);                     \
      }                                                            \
    } else {                                                       \
      const uint8_t* cnd = MatBool(s, in.a);                       \
      const TY* tv = MAT(s, in.b);                                 \
      const TY* ev = MAT(s, in.c);                                 \
      TY* d = s.r->PTR[in.dst];                                    \
      s.r->UNI[in.dst] = 0;                                        \
      SGL_VM_LANES(d[i] = cnd[i] != 0 ? tv[i] : ev[i]);            \
    }                                                              \
  } while (0)

// Compacts the active selection to lanes where KEEP holds. The first
// compaction runs over the implicit contiguous iota (branchlessly); later
// ones compact sel in place — out_n <= k always, and lane index i is read
// before the slot is overwritten, so aliasing is safe.
#define SGL_VM_FILTER(KEEP)                    \
  do {                                         \
    RowIdx* fs = s.filter_sel->data();         \
    size_t out_n = 0;                          \
    if (s.sel == nullptr) {                    \
      for (size_t i = 0; i < s.n; ++i) {       \
        fs[out_n] = static_cast<RowIdx>(i);    \
        out_n += (KEEP) ? 1 : 0;               \
      }                                        \
    } else {                                   \
      for (size_t k = 0; k < s.cnt; ++k) {     \
        const size_t i = s.sel[k];             \
        fs[out_n] = static_cast<RowIdx>(i);    \
        out_n += (KEEP) ? 1 : 0;               \
      }                                        \
    }                                          \
    s.sel = fs;                                \
    s.cnt = out_n;                             \
  } while (0)

// Fused compare-and-compact through the kernel table, with scalar-vs-column
// specializations: when one side is uniform (the common "gathered column
// against a bound" shape) the kernel reads a single array. Sel-shaped
// kernels compact s.sel into filter_sel in place when they alias — the
// kernels' write cursor never passes their read cursor.
#define SGL_VM_FILTER_CMP(KID, OP)                              \
  do {                                                          \
    const bool ua = s.r->num_uni[in.a] != 0;                    \
    const bool ub = s.r->num_uni[in.b] != 0;                    \
    const double va = s.r->num_val[in.a];                       \
    const double vb = s.r->num_val[in.b];                       \
    const double* pa = s.r->num_ptr[in.a];                      \
    const double* pb = s.r->num_ptr[in.b];                      \
    RowIdx* fs = s.filter_sel->data();                          \
    if (ua && ub) {                                             \
      if (!(va OP vb)) {                                        \
        s.sel = fs;                                             \
        s.cnt = 0;                                              \
      }                                                         \
    } else if (s.sel == nullptr) {                              \
      size_t m;                                                 \
      if (ua) {                                                 \
        m = s.k->f_iota_sv[KID](va, pb, fs, s.n);               \
      } else if (ub) {                                          \
        m = s.k->f_iota_vs[KID](pa, vb, fs, s.n);               \
      } else {                                                  \
        m = s.k->f_iota_vv[KID](pa, pb, fs, s.n);               \
      }                                                         \
      s.sel = fs;                                               \
      s.cnt = m;                                                \
    } else {                                                    \
      size_t m;                                                 \
      if (ua) {                                                 \
        m = s.k->f_sel_sv[KID](va, pb, s.sel, s.cnt, fs);       \
      } else if (ub) {                                          \
        m = s.k->f_sel_vs[KID](pa, vb, s.sel, s.cnt, fs);       \
      } else {                                                  \
        m = s.k->f_sel_vv[KID](pa, pb, s.sel, s.cnt, fs);       \
      }                                                         \
      s.sel = fs;                                               \
      s.cnt = m;                                                \
    }                                                           \
  } while (0)

void RunProgram(ExecState& s) {
  const VecContext& ctx = *s.ctx;
  for (const VmInstr& in : s.p->code) {
    if (s.sel != nullptr && s.cnt == 0) return;  // selection ran dry
    switch (in.op) {
      // ----- Loads -----------------------------------------------------
      case VmOp::kConstNum:
        SetNumU(s, in.dst, s.p->const_pool[in.field]);
        break;
      case VmOp::kConstBool:
        SetBoolU(s, in.dst, in.field != 0 ? 1 : 0);
        break;
      case VmOp::kConstRef:
        SetRefU(s, in.dst, kNullEntity);
        break;
      case VmOp::kLoadStateNum: {
        const EntityTable* t = in.side == 0 ? ctx.outer : ctx.inner;
        const RowIdx* rows =
            (in.side == 0 ? ctx.outer_rows : ctx.inner_rows)->data();
        const ConstNumberColumn col =
            t->Num(static_cast<FieldIdx>(in.field));
        if (in.side == 0 && s.uniform_outer) {
          SetNumU(s, in.dst, col[rows[0]]);
        } else {
          double* d = s.r->num_ptr[in.dst];
          s.r->num_uni[in.dst] = 0;
          SGL_VM_LANES(d[i] = col[rows[i]]);
        }
        break;
      }
      case VmOp::kLoadStateBool: {
        const EntityTable* t = in.side == 0 ? ctx.outer : ctx.inner;
        const RowIdx* rows =
            (in.side == 0 ? ctx.outer_rows : ctx.inner_rows)->data();
        const uint8_t* col = t->BoolCol(static_cast<FieldIdx>(in.field));
        if (in.side == 0 && s.uniform_outer) {
          SetBoolU(s, in.dst, col[rows[0]]);
        } else {
          uint8_t* d = s.r->bool_ptr[in.dst];
          s.r->bool_uni[in.dst] = 0;
          SGL_VM_LANES(d[i] = col[rows[i]]);
        }
        break;
      }
      case VmOp::kLoadStateRef: {
        const EntityTable* t = in.side == 0 ? ctx.outer : ctx.inner;
        const RowIdx* rows =
            (in.side == 0 ? ctx.outer_rows : ctx.inner_rows)->data();
        const EntityId* col = t->RefCol(static_cast<FieldIdx>(in.field));
        if (in.side == 0 && s.uniform_outer) {
          SetRefU(s, in.dst, col[rows[0]]);
        } else {
          EntityId* d = s.r->ref_ptr[in.dst];
          s.r->ref_uni[in.dst] = 0;
          SGL_VM_LANES(d[i] = col[rows[i]]);
        }
        break;
      }
      case VmOp::kLoadLocalNum: {
        const double* col = ctx.locals->num[in.field].data();
        const RowIdx* rows = ctx.outer_rows->data();
        if (s.uniform_outer) {
          SetNumU(s, in.dst, col[rows[0]]);
        } else {
          double* d = s.r->num_ptr[in.dst];
          s.r->num_uni[in.dst] = 0;
          SGL_VM_LANES(d[i] = col[rows[i]]);
        }
        break;
      }
      case VmOp::kLoadLocalBool: {
        const uint8_t* col = ctx.locals->bools[in.field].data();
        const RowIdx* rows = ctx.outer_rows->data();
        if (s.uniform_outer) {
          SetBoolU(s, in.dst, col[rows[0]]);
        } else {
          uint8_t* d = s.r->bool_ptr[in.dst];
          s.r->bool_uni[in.dst] = 0;
          SGL_VM_LANES(d[i] = col[rows[i]]);
        }
        break;
      }
      case VmOp::kLoadLocalRef: {
        const EntityId* col = ctx.locals->refs[in.field].data();
        const RowIdx* rows = ctx.outer_rows->data();
        if (s.uniform_outer) {
          SetRefU(s, in.dst, col[rows[0]]);
        } else {
          EntityId* d = s.r->ref_ptr[in.dst];
          s.r->ref_uni[in.dst] = 0;
          SGL_VM_LANES(d[i] = col[rows[i]]);
        }
        break;
      }
      case VmOp::kLoadRowId: {
        const EntityTable* t = in.side == 0 ? ctx.outer : ctx.inner;
        const RowIdx* rows =
            (in.side == 0 ? ctx.outer_rows : ctx.inner_rows)->data();
        const EntityId* ids = t->ids().data();
        if (in.side == 0 && s.uniform_outer) {
          SetRefU(s, in.dst, ids[rows[0]]);
        } else {
          EntityId* d = s.r->ref_ptr[in.dst];
          s.r->ref_uni[in.dst] = 0;
          SGL_VM_LANES(d[i] = ids[rows[i]]);
        }
        break;
      }
      case VmOp::kGatherNum: {
        const FieldIdx f = static_cast<FieldIdx>(in.field);
        if (s.r->ref_uni[in.a]) {
          const World::Locator* loc = ctx.world->Find(s.r->ref_val[in.a]);
          SetNumU(s, in.dst,
                  loc == nullptr
                      ? 0.0
                      : ctx.world->table(loc->cls).Num(f)[loc->row]);
        } else {
          const EntityId* ids = s.r->ref_ptr[in.a];
          double* d = s.r->num_ptr[in.dst];
          s.r->num_uni[in.dst] = 0;
          SGL_VM_LANES(
              const World::Locator* loc = ctx.world->Find(ids[i]);
              d[i] = loc == nullptr
                         ? 0.0
                         : ctx.world->table(loc->cls).Num(f)[loc->row]);
        }
        break;
      }
      case VmOp::kGatherBool: {
        const FieldIdx f = static_cast<FieldIdx>(in.field);
        if (s.r->ref_uni[in.a]) {
          const World::Locator* loc = ctx.world->Find(s.r->ref_val[in.a]);
          SetBoolU(s, in.dst,
                   loc == nullptr
                       ? 0
                       : ctx.world->table(loc->cls).BoolCol(f)[loc->row]);
        } else {
          const EntityId* ids = s.r->ref_ptr[in.a];
          uint8_t* d = s.r->bool_ptr[in.dst];
          s.r->bool_uni[in.dst] = 0;
          SGL_VM_LANES(
              const World::Locator* loc = ctx.world->Find(ids[i]);
              d[i] = loc == nullptr
                         ? 0
                         : ctx.world->table(loc->cls).BoolCol(f)[loc->row]);
        }
        break;
      }
      case VmOp::kGatherRef: {
        const FieldIdx f = static_cast<FieldIdx>(in.field);
        if (s.r->ref_uni[in.a]) {
          const World::Locator* loc = ctx.world->Find(s.r->ref_val[in.a]);
          SetRefU(s, in.dst,
                  loc == nullptr
                      ? kNullEntity
                      : ctx.world->table(loc->cls).RefCol(f)[loc->row]);
        } else {
          const EntityId* ids = s.r->ref_ptr[in.a];
          EntityId* d = s.r->ref_ptr[in.dst];
          s.r->ref_uni[in.dst] = 0;
          SGL_VM_LANES(
              const World::Locator* loc = ctx.world->Find(ids[i]);
              d[i] = loc == nullptr
                         ? kNullEntity
                         : ctx.world->table(loc->cls).RefCol(f)[loc->row]);
        }
        break;
      }
      // Merged-effect reads exist only in update rules, which run over
      // plain outer spans: never under uniform_outer.
      case VmOp::kLoadEffectNum: {
        const EffectBuffer& fx = *ctx.effects;
        const FieldIdx f = static_cast<FieldIdx>(in.field);
        const RowIdx* rows = ctx.outer_rows->data();
        double* d = s.r->num_ptr[in.dst];
        s.r->num_uni[in.dst] = 0;
        SGL_VM_LANES(d[i] = fx.Assigned(f, rows[i])
                                ? fx.FinalNumber(f, rows[i])
                                : 0.0);
        break;
      }
      case VmOp::kLoadEffectBool: {
        const EffectBuffer& fx = *ctx.effects;
        const FieldIdx f = static_cast<FieldIdx>(in.field);
        const RowIdx* rows = ctx.outer_rows->data();
        uint8_t* d = s.r->bool_ptr[in.dst];
        s.r->bool_uni[in.dst] = 0;
        SGL_VM_LANES(
            d[i] = fx.Assigned(f, rows[i]) && fx.FinalBool(f, rows[i]) ? 1
                                                                       : 0);
        break;
      }
      case VmOp::kLoadEffectRef: {
        const EffectBuffer& fx = *ctx.effects;
        const FieldIdx f = static_cast<FieldIdx>(in.field);
        const RowIdx* rows = ctx.outer_rows->data();
        EntityId* d = s.r->ref_ptr[in.dst];
        s.r->ref_uni[in.dst] = 0;
        SGL_VM_LANES(d[i] = fx.Assigned(f, rows[i]) ? fx.FinalRef(f, rows[i])
                                                    : kNullEntity);
        break;
      }
      case VmOp::kLoadAssigned: {
        const EffectBuffer& fx = *ctx.effects;
        const FieldIdx f = static_cast<FieldIdx>(in.field);
        const RowIdx* rows = ctx.outer_rows->data();
        uint8_t* d = s.r->bool_ptr[in.dst];
        s.r->bool_uni[in.dst] = 0;
        SGL_VM_LANES(d[i] = fx.Assigned(f, rows[i]) ? 1 : 0);
        break;
      }

      // ----- Numeric kernels (semantics: src/ra/numeric.h) -------------
      case VmOp::kAdd: SGL_VM_NUM_BIN(kKerAdd, av + bv); break;
      case VmOp::kSub: SGL_VM_NUM_BIN(kKerSub, av - bv); break;
      case VmOp::kMul: SGL_VM_NUM_BIN(kKerMul, av * bv); break;
      case VmOp::kDiv: SGL_VM_NUM_BIN(kKerDiv, GuardedDiv(av, bv)); break;
      case VmOp::kMod: SGL_VM_NUM_BIN(kKerMod, GuardedMod(av, bv)); break;
      case VmOp::kMin: SGL_VM_NUM_BIN(kKerMin, av < bv ? av : bv); break;
      case VmOp::kMax: SGL_VM_NUM_BIN(kKerMax, av > bv ? av : bv); break;
      case VmOp::kPow: SGL_VM_NUM_BIN(kKerPow, std::pow(av, bv)); break;
      case VmOp::kNeg: SGL_VM_NUM_UN(kKerNeg, -av); break;
      case VmOp::kAbs: SGL_VM_NUM_UN(kKerAbs, std::fabs(av)); break;
      case VmOp::kSqrt: SGL_VM_NUM_UN(kKerSqrt, GuardedSqrt(av)); break;
      case VmOp::kFloor: SGL_VM_NUM_UN(kKerFloor, std::floor(av)); break;
      case VmOp::kCeil: SGL_VM_NUM_UN(kKerCeil, std::ceil(av)); break;
      case VmOp::kClampOp: {
        if (s.r->num_uni[in.a] && s.r->num_uni[in.b] &&
            s.r->num_uni[in.c]) {
          SetNumU(s, in.dst,
                  ApplyClamp(s.r->num_val[in.a], s.r->num_val[in.b],
                             s.r->num_val[in.c]));
        } else {
          const double* pv = MatNum(s, in.a);
          const double* pl = MatNum(s, in.b);
          const double* ph = MatNum(s, in.c);
          double* d = s.r->num_ptr[in.dst];
          s.r->num_uni[in.dst] = 0;
          if (s.sel == nullptr) {
            s.k->clamp(pv, pl, ph, d, s.n);
          } else {
            s.k->clamp_sel(pv, pl, ph, d, s.sel, s.cnt);
          }
        }
        break;
      }

      // ----- Comparisons / logic ---------------------------------------
      case VmOp::kCmpLt: SGL_VM_NUM_CMP(kKerLt, <); break;
      case VmOp::kCmpLe: SGL_VM_NUM_CMP(kKerLe, <=); break;
      case VmOp::kCmpGt: SGL_VM_NUM_CMP(kKerGt, >); break;
      case VmOp::kCmpGe: SGL_VM_NUM_CMP(kKerGe, >=); break;
      case VmOp::kCmpEq: SGL_VM_NUM_CMP(kKerEq, ==); break;
      case VmOp::kCmpNe: SGL_VM_NUM_CMP(kKerNe, !=); break;
      case VmOp::kCmpRefEq: SGL_VM_REF_CMP(==); break;
      case VmOp::kCmpRefNe: SGL_VM_REF_CMP(!=); break;
      case VmOp::kCmpBoolEq: SGL_VM_BOOL_CMP(==); break;
      case VmOp::kCmpBoolNe: SGL_VM_BOOL_CMP(!=); break;
      case VmOp::kAnd: SGL_VM_BOOL_BIN(&); break;
      case VmOp::kOr: SGL_VM_BOOL_BIN(|); break;
      case VmOp::kNot: {
        if (s.r->bool_uni[in.a]) {
          SetBoolU(s, in.dst, s.r->bool_val[in.a] != 0 ? 0 : 1);
        } else {
          const uint8_t* pa = s.r->bool_ptr[in.a];
          uint8_t* d = s.r->bool_ptr[in.dst];
          s.r->bool_uni[in.dst] = 0;
          SGL_VM_LANES(d[i] = pa[i] != 0 ? 0 : 1);
        }
        break;
      }

      // ----- Selects ----------------------------------------------------
      case VmOp::kSelectNum:
        SGL_VM_SELECT(num_ptr, num_uni, num_val, MatNum, double);
        break;
      case VmOp::kSelectBool:
        SGL_VM_SELECT(bool_ptr, bool_uni, bool_val, MatBool, uint8_t);
        break;
      case VmOp::kSelectRef:
        SGL_VM_SELECT(ref_ptr, ref_uni, ref_val, MatRef, EntityId);
        break;

      // ----- Set reads --------------------------------------------------
      case VmOp::kSetSizeState: {
        const EntityTable* t = in.side == 0 ? ctx.outer : ctx.inner;
        const RowIdx* rows =
            (in.side == 0 ? ctx.outer_rows : ctx.inner_rows)->data();
        const EntitySet* col = t->SetCol(static_cast<FieldIdx>(in.field));
        if (in.side == 0 && s.uniform_outer) {
          SetNumU(s, in.dst, static_cast<double>(col[rows[0]].size()));
        } else {
          double* d = s.r->num_ptr[in.dst];
          s.r->num_uni[in.dst] = 0;
          SGL_VM_LANES(d[i] = static_cast<double>(col[rows[i]].size()));
        }
        break;
      }
      case VmOp::kSetSizeRef: {
        const FieldIdx f = static_cast<FieldIdx>(in.field);
        if (s.r->ref_uni[in.a]) {
          const World::Locator* loc = ctx.world->Find(s.r->ref_val[in.a]);
          SetNumU(s, in.dst,
                  loc == nullptr
                      ? 0.0
                      : static_cast<double>(ctx.world->table(loc->cls)
                                                .SetCol(f)[loc->row]
                                                .size()));
        } else {
          const EntityId* ids = s.r->ref_ptr[in.a];
          double* d = s.r->num_ptr[in.dst];
          s.r->num_uni[in.dst] = 0;
          SGL_VM_LANES(
              const World::Locator* loc = ctx.world->Find(ids[i]);
              d[i] = loc == nullptr
                         ? 0.0
                         : static_cast<double>(ctx.world->table(loc->cls)
                                                   .SetCol(f)[loc->row]
                                                   .size()));
        }
        break;
      }
      case VmOp::kSetContainsState: {
        const EntityTable* t = in.side == 0 ? ctx.outer : ctx.inner;
        const RowIdx* rows =
            (in.side == 0 ? ctx.outer_rows : ctx.inner_rows)->data();
        const EntitySet* col = t->SetCol(static_cast<FieldIdx>(in.field));
        if (in.side == 0 && s.uniform_outer) {
          const EntitySet& set = col[rows[0]];
          if (s.r->ref_uni[in.a]) {
            SetBoolU(s, in.dst, set.Contains(s.r->ref_val[in.a]) ? 1 : 0);
          } else {
            const EntityId* probe = s.r->ref_ptr[in.a];
            uint8_t* d = s.r->bool_ptr[in.dst];
            s.r->bool_uni[in.dst] = 0;
            SGL_VM_LANES(d[i] = set.Contains(probe[i]) ? 1 : 0);
          }
        } else {
          const EntityId* probe = MatRef(s, in.a);
          uint8_t* d = s.r->bool_ptr[in.dst];
          s.r->bool_uni[in.dst] = 0;
          SGL_VM_LANES(d[i] = col[rows[i]].Contains(probe[i]) ? 1 : 0);
        }
        break;
      }
      case VmOp::kSetContainsRef: {
        const FieldIdx f = static_cast<FieldIdx>(in.field);
        if (s.r->ref_uni[in.b]) {
          // Uniform owner: resolve the set once (null reads as empty).
          const World::Locator* loc = ctx.world->Find(s.r->ref_val[in.b]);
          const EntitySet& set =
              loc == nullptr
                  ? kEmptySet
                  : ctx.world->table(loc->cls).SetCol(f)[loc->row];
          if (s.r->ref_uni[in.a]) {
            SetBoolU(s, in.dst, set.Contains(s.r->ref_val[in.a]) ? 1 : 0);
          } else {
            const EntityId* probe = s.r->ref_ptr[in.a];
            uint8_t* d = s.r->bool_ptr[in.dst];
            s.r->bool_uni[in.dst] = 0;
            SGL_VM_LANES(d[i] = set.Contains(probe[i]) ? 1 : 0);
          }
        } else {
          const EntityId* owner = s.r->ref_ptr[in.b];
          const EntityId* probe = MatRef(s, in.a);
          uint8_t* d = s.r->bool_ptr[in.dst];
          s.r->bool_uni[in.dst] = 0;
          SGL_VM_LANES(
              const World::Locator* loc = ctx.world->Find(owner[i]);
              d[i] = loc != nullptr && ctx.world->table(loc->cls)
                                           .SetCol(f)[loc->row]
                                           .Contains(probe[i])
                         ? 1
                         : 0);
        }
        break;
      }
      case VmOp::kSetSizeEffect: {
        const EffectBuffer& fx = *ctx.effects;
        const FieldIdx f = static_cast<FieldIdx>(in.field);
        const RowIdx* rows = ctx.outer_rows->data();
        double* d = s.r->num_ptr[in.dst];
        s.r->num_uni[in.dst] = 0;
        SGL_VM_LANES(
            d[i] = static_cast<double>(fx.FinalSet(f, rows[i]).size()));
        break;
      }
      case VmOp::kSetContainsEffect: {
        const EffectBuffer& fx = *ctx.effects;
        const FieldIdx f = static_cast<FieldIdx>(in.field);
        const RowIdx* rows = ctx.outer_rows->data();
        const EntityId* probe = MatRef(s, in.a);
        uint8_t* d = s.r->bool_ptr[in.dst];
        s.r->bool_uni[in.dst] = 0;
        SGL_VM_LANES(
            d[i] = fx.FinalSet(f, rows[i]).Contains(probe[i]) ? 1 : 0);
        break;
      }

      // ----- Filter mode ------------------------------------------------
      case VmOp::kFilterBool: {
        if (s.r->bool_uni[in.a]) {
          if (s.r->bool_val[in.a] == 0) {
            s.sel = s.filter_sel->data();
            s.cnt = 0;
          }
        } else {
          const uint8_t* c = s.r->bool_ptr[in.a];
          SGL_VM_FILTER(c[i] != 0);
        }
        break;
      }
      case VmOp::kFilterLt: SGL_VM_FILTER_CMP(kKerLt, <); break;
      case VmOp::kFilterLe: SGL_VM_FILTER_CMP(kKerLe, <=); break;
      case VmOp::kFilterGt: SGL_VM_FILTER_CMP(kKerGt, >); break;
      case VmOp::kFilterGe: SGL_VM_FILTER_CMP(kKerGe, >=); break;
      case VmOp::kFilterEq: SGL_VM_FILTER_CMP(kKerEq, ==); break;
      case VmOp::kFilterNe: SGL_VM_FILTER_CMP(kKerNe, !=); break;
    }
  }
}

}  // namespace

void VmEvalNum(const VmProgram& p, const VecContext& ctx, VmRegisters* regs,
               const RowIdx* sel, size_t cnt, std::vector<double>* out) {
  SGL_DCHECK(!p.filter_mode && p.result_kind == TypeKind::kNumber);
  const size_t n = ctx.count();
  ResizeAmortized(out, n);
  if (n == 0 || (sel != nullptr && cnt == 0)) return;
  SizeRegs(p, n, regs);
  regs->num_ptr[p.result] = out->data();  // result writes land in out
  ExecState s;
  s.p = &p;
  s.ctx = &ctx;
  s.r = regs;
  s.k = &GetVmKernels();
  s.sel = sel;
  s.cnt = cnt;
  s.n = n;
  RunProgram(s);
  MatNum(s, p.result);  // splat a uniform result over the active lanes
}

void VmEvalBool(const VmProgram& p, const VecContext& ctx, VmRegisters* regs,
                const RowIdx* sel, size_t cnt, std::vector<uint8_t>* out) {
  SGL_DCHECK(!p.filter_mode && p.result_kind == TypeKind::kBool);
  const size_t n = ctx.count();
  ResizeAmortized(out, n);
  if (n == 0 || (sel != nullptr && cnt == 0)) return;
  SizeRegs(p, n, regs);
  regs->bool_ptr[p.result] = out->data();
  ExecState s;
  s.p = &p;
  s.ctx = &ctx;
  s.r = regs;
  s.k = &GetVmKernels();
  s.sel = sel;
  s.cnt = cnt;
  s.n = n;
  RunProgram(s);
  MatBool(s, p.result);
}

void VmEvalRef(const VmProgram& p, const VecContext& ctx, VmRegisters* regs,
               const RowIdx* sel, size_t cnt, std::vector<EntityId>* out) {
  SGL_DCHECK(!p.filter_mode && p.result_kind == TypeKind::kRef);
  const size_t n = ctx.count();
  ResizeAmortized(out, n);
  if (n == 0 || (sel != nullptr && cnt == 0)) return;
  SizeRegs(p, n, regs);
  regs->ref_ptr[p.result] = out->data();
  ExecState s;
  s.p = &p;
  s.ctx = &ctx;
  s.r = regs;
  s.k = &GetVmKernels();
  s.sel = sel;
  s.cnt = cnt;
  s.n = n;
  RunProgram(s);
  MatRef(s, p.result);
}

size_t VmRunFilter(const VmProgram& p, const VecContext& ctx,
                   VmRegisters* regs, bool uniform_outer,
                   std::vector<RowIdx>* sel) {
  SGL_DCHECK(p.filter_mode);
  const size_t n = ctx.count();
  ResizeAmortized(sel, n);
  if (n == 0) return 0;
  SizeRegs(p, n, regs);
  ExecState s;
  s.p = &p;
  s.ctx = &ctx;
  s.r = regs;
  s.k = &GetVmKernels();
  s.n = n;
  s.uniform_outer = uniform_outer;
  s.filter_sel = sel;
  RunProgram(s);
  if (s.sel == nullptr) {
    // Every conjunct was a uniform keep-all: all lanes survive.
    RowIdx* fs = sel->data();
    for (size_t i = 0; i < n; ++i) fs[i] = static_cast<RowIdx>(i);
    return n;
  }
  return s.cnt;
}

}  // namespace sgl
