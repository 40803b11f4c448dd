#include "src/exec/op_exec.h"

#include <algorithm>
#include <limits>

#include "src/common/stopwatch.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/vm/compile.h"

namespace sgl {

namespace {

constexpr size_t kNlChunk = 4096;

// Deterministic ⊕ order key: canonical serial execution order is
// (statement, outer row, inner row) — identical for every join strategy,
// thread count, and for the object-at-a-time path.
inline uint64_t OrderKey(int assign_id, RowIdx outer, RowIdx inner) {
  return (static_cast<uint64_t>(assign_id) << 44) |
         (static_cast<uint64_t>(outer) << 22) | static_cast<uint64_t>(inner);
}

// --- Write application ------------------------------------------------

struct PairRows {
  const std::vector<RowIdx>* outer;
  const std::vector<RowIdx>* inner;  // null outside pair contexts
};

VecContext MakeCtx(const ExecEnv& env, const EntityTable* inner_table,
                   const PairRows& rows) {
  VecContext ctx;
  ctx.world = env.world;
  ctx.outer = env.outer;
  ctx.outer_rows = rows.outer;
  ctx.inner = inner_table;
  ctx.inner_rows = rows.inner;
  ctx.locals = env.locals;
  return ctx;
}

// --- Bytecode dispatch --------------------------------------------------
// Every expression of the vectorized path has a compiled program
// (VmProgramCache::CompileProgram refuses a program with one that does not
// lower), so a missing program is an executor bug, not a fallback.

const VmProgram& ValueProgram(const ExecEnv& env, const Expr& e) {
  const VmProgram* p = env.vm->Value(&e);
  SGL_CHECK(p != nullptr && "expression missing from the program cache");
  return *p;
}

void VmNum(const Expr& e, const VecContext& ctx, const ExecEnv& env,
           std::vector<double>* out) {
  VmEvalNum(ValueProgram(env, e), ctx, &env.scratch->vm, nullptr, 0, out);
}

void VmBool(const Expr& e, const VecContext& ctx, const ExecEnv& env,
            std::vector<uint8_t>* out) {
  VmEvalBool(ValueProgram(env, e), ctx, &env.scratch->vm, nullptr, 0, out);
}

void VmRef(const Expr& e, const VecContext& ctx, const ExecEnv& env,
           std::vector<EntityId>* out) {
  VmEvalRef(ValueProgram(env, e), ctx, &env.scratch->vm, nullptr, 0, out);
}

// Guard filter over a row span: fills `pos` with the surviving span
// positions (ascending) and returns the count, via the guard's fused
// compare-compact program.
size_t RunGuardFilter(const Expr& guard, const VecContext& ctx,
                      const ExecEnv& env, std::vector<RowIdx>* pos) {
  const VmProgram* p = env.vm->Filter(&guard);
  SGL_CHECK(p != nullptr && "guard missing from the program cache");
  return VmRunFilter(*p, ctx, &env.scratch->vm, false, pos);
}

// The per-statement part of a write's trace record; the writer fills the
// target, order key, source rows and contribution per write.
FrameRecord StatementRecord(const EffectWrite& w, int site) {
  FrameRecord r{};
  r.src_inner = kNullEntity;
  r.target_cls = w.target_cls;
  r.field = w.field;
  r.site = site;
  r.assign_id = w.assign_id;
  r.is_txn = false;
  return r;
}

// Hands one landed write to the user tracer as a boxed Value (the recorder
// takes the record itself, inline in the write loop).
void TraceToUser(const ExecEnv& env, const FrameRecord& r) {
  EffectProv prov;
  prov.site = r.site;
  prov.src_outer = r.src_outer;
  prov.src_inner = r.src_inner;
  Value v;
  switch (static_cast<ValueKind>(r.contrib_kind)) {
    case ValueKind::kNumber:
      v = Value::Number(r.contrib.num);
      break;
    case ValueKind::kBool:
      v = Value::Bool(r.contrib.i != 0);
      break;
    default:  // kRef; a set insert traces its element
      v = Value::Ref(r.contrib.i);
      break;
  }
  env.trace->OnEffectAssign(env.tick, r.target, r.target_cls, r.field, v,
                            r.assign_id, r.order_key, prov);
}

// Applies one batch of effect writes over a (possibly pair) row vector.
// Returns how many writes landed (post guard / target resolution) — the
// per-site `effects` attribution.
int64_t ApplyWrites(const std::vector<EffectWrite>& writes,
                    const EntityTable* inner_table, const PairRows& rows,
                    ExecEnv& env, int site) {
  const size_t n = rows.outer->size();
  if (n == 0) return 0;
  int64_t applied = 0;
  EvalScratch* sc = env.scratch;
  ScopedVec<RowIdx> sub_outer(sc), sub_inner(sc), pos(sc);
  ScopedVec<double> nums(sc);
  ScopedVec<uint8_t> bools(sc);
  ScopedVec<EntityId> refs(sc), target_ids(sc);

  for (const EffectWrite& w : writes) {
    // 1. Guard filter.
    const std::vector<RowIdx>* outer_rows = rows.outer;
    const std::vector<RowIdx>* inner_rows = rows.inner;
    if (w.guard != nullptr) {
      VecContext ctx = MakeCtx(env, inner_table, rows);
      const size_t m = RunGuardFilter(*w.guard, ctx, env, pos.get());
      sub_outer->clear();
      sub_inner->clear();
      // Reserve the full span, not the survivor count: the span is a
      // stable per-role high-water mark, a slowly-rising survivor count
      // would re-reserve (exactly) every tick it grows.
      sub_outer->reserve(n);
      if (rows.inner != nullptr) sub_inner->reserve(n);
      for (size_t k = 0; k < m; ++k) {
        const size_t i = (*pos)[k];
        sub_outer->push_back((*rows.outer)[i]);
        if (rows.inner != nullptr) sub_inner->push_back((*rows.inner)[i]);
      }
      outer_rows = sub_outer.get();
      inner_rows = rows.inner != nullptr ? sub_inner.get() : nullptr;
    }
    const size_t m = outer_rows->size();
    if (m == 0) continue;
    PairRows sub{outer_rows, inner_rows};
    VecContext ctx = MakeCtx(env, inner_table, sub);

    // 2. Resolve target rows.
    EffectBuffer* sink = env.effect_sinks[static_cast<size_t>(w.target_cls)];
    const EntityTable& target_table = env.world->table(w.target_cls);
    auto target_row = [&](size_t i) -> RowIdx {
      switch (w.target_kind) {
        case TargetKind::kSelf:
          return (*outer_rows)[i];
        case TargetKind::kIter:
          return (*inner_rows)[i];
        case TargetKind::kRef: {
          const World::Locator* loc = env.world->Find((*target_ids)[i]);
          if (loc == nullptr || loc->cls != w.target_cls) return kInvalidRow;
          return loc->row;
        }
      }
      return kInvalidRow;
    };
    if (w.target_kind == TargetKind::kRef) {
      VmRef(*w.target_ref, ctx, env, target_ids.get());
    }

    // 3. Evaluate values and scatter-accumulate.
    const FieldDef& field =
        env.world->catalog().Get(w.target_cls).effect_field(w.field);
    auto key_at = [&](size_t i) {
      RowIdx inner = inner_rows != nullptr ? (*inner_rows)[i] : 0;
      return OrderKey(w.assign_id, (*outer_rows)[i], inner);
    };
    // One recorder reservation for the statement's writes over this span;
    // `traced` is the one loop-invariant check on the disarmed path.
    const bool traced = env.trace != nullptr || env.recorder != nullptr;
    FlightRecorder::Batch batch(env.recorder, m);
    FrameRecord rec = StatementRecord(w, site);
    auto trace = [&](size_t i, RowIdx row, ValueKind kind,
                     FramePayload contrib) {
      ++applied;  // invoked exactly once per landed write, in all branches
      if (!traced) return;
      rec.target = target_table.id_at(row);
      rec.order_key = key_at(i);
      rec.src_outer = env.outer->id_at((*outer_rows)[i]);
      if (inner_rows != nullptr && inner_table != nullptr) {
        rec.src_inner = inner_table->id_at((*inner_rows)[i]);
      }
      rec.contrib = contrib;
      rec.contrib_kind = static_cast<uint32_t>(kind);
      if (env.recorder != nullptr) batch.Add(rec);
      if (env.trace != nullptr) TraceToUser(env, rec);
    };
    if (w.set_insert) {
      VmRef(*w.value, ctx, env, refs.get());
      for (size_t i = 0; i < m; ++i) {
        RowIdx row = target_row(i);
        if (row == kInvalidRow) continue;
        sink->AddSetInsert(w.field, row, (*refs)[i]);
        trace(i, row, ValueKind::kRef, FramePayload::Int((*refs)[i]));
      }
    } else if (field.type.is_number()) {
      VmNum(*w.value, ctx, env, nums.get());
      for (size_t i = 0; i < m; ++i) {
        RowIdx row = target_row(i);
        if (row == kInvalidRow) continue;
        sink->AddNumber(w.field, row, (*nums)[i], key_at(i));
        trace(i, row, ValueKind::kNumber, FramePayload::Num((*nums)[i]));
      }
    } else if (field.type.is_bool()) {
      VmBool(*w.value, ctx, env, bools.get());
      for (size_t i = 0; i < m; ++i) {
        RowIdx row = target_row(i);
        if (row == kInvalidRow) continue;
        sink->AddBool(w.field, row, (*bools)[i] != 0, key_at(i));
        trace(i, row, ValueKind::kBool,
              FramePayload::Int((*bools)[i] != 0 ? 1 : 0));
      }
    } else if (field.type.is_ref()) {
      VmRef(*w.value, ctx, env, refs.get());
      for (size_t i = 0; i < m; ++i) {
        RowIdx row = target_row(i);
        if (row == kInvalidRow) continue;
        sink->AddRef(w.field, row, (*refs)[i], key_at(i));
        trace(i, row, ValueKind::kRef, FramePayload::Int((*refs)[i]));
      }
    }
  }
  return applied;
}

// --- Accum fold --------------------------------------------------------

// Running ⊕ accumulator for one outer row's accum variable. The compiler
// admits only order-insensitive combinators over numbers and bools here:
// first/last are rejected, and refs allow nothing else.
struct Fold {
  double num = 0;
  double sum = 0;
  uint64_t cnt = 0;
  bool b = false;

  void Reset() { *this = Fold(); }

  void AddNum(Combinator comb, double v) {
    switch (comb) {
      case Combinator::kSum:
      case Combinator::kAvg:
        sum += v;
        break;
      case Combinator::kMin:
        num = cnt == 0 ? v : std::min(num, v);
        break;
      case Combinator::kMax:
        num = cnt == 0 ? v : std::max(num, v);
        break;
      default:  // kCount
        break;
    }
    ++cnt;
  }
  void AddBool(Combinator comb, bool v) {
    switch (comb) {
      case Combinator::kOr:
        b = cnt == 0 ? v : (b || v);
        break;
      case Combinator::kAnd:
        b = cnt == 0 ? v : (b && v);
        break;
      default:
        break;
    }
    ++cnt;
  }

  double FinalNum(Combinator comb) const {
    if (cnt == 0) return 0.0;
    switch (comb) {
      case Combinator::kSum:
      case Combinator::kAvg:
        return comb == Combinator::kAvg ? sum / static_cast<double>(cnt) : sum;
      case Combinator::kCount:
        return static_cast<double>(cnt);
      default:
        return num;
    }
  }
};

// Writes the folded value into the accum local slot for `row`.
void FlushFold(const AccumOp& op, const Fold& fold, RowIdx row,
               LocalColumns* locals) {
  const size_t slot = static_cast<size_t>(op.accum_slot);
  if (op.accum_type.is_number()) {
    locals->num[slot][row] = fold.FinalNum(op.accum_comb);
  } else {
    locals->bools[slot][row] = fold.cnt > 0 && fold.b ? 1 : 0;
  }
}

void PrefillSlot(const AccumOp& op, const std::vector<RowIdx>& rows,
                 LocalColumns* locals) {
  const size_t slot = static_cast<size_t>(op.accum_slot);
  if (op.accum_type.is_number()) {
    for (RowIdx r : rows) locals->num[slot][r] = 0.0;
  } else {
    for (RowIdx r : rows) locals->bools[slot][r] = 0;
  }
}

// RAII lease over one pool: counts acquisitions and releases them all at
// scope exit, so early returns or future edits cannot desync the pool's
// stack discipline.
template <typename T>
class PoolLease {
 public:
  explicit PoolLease(VecPool<T>* pool) : pool_(pool) {}
  ~PoolLease() {
    for (; count_ > 0; --count_) pool_->Release();
  }
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;
  std::vector<T>* Acquire() {
    ++count_;
    return pool_->Acquire();
  }

 private:
  VecPool<T>* pool_;
  size_t count_ = 0;
};

// RAII block of `n` pooled double vectors (per-dimension bound columns).
class PooledNumCols {
 public:
  PooledNumCols(EvalScratch* sc, size_t n) : sc_(sc), n_(n) {
    SGL_CHECK(n <= kMaxIndexDims);
    for (size_t i = 0; i < n_; ++i) cols_[i] = sc_->num.Acquire();
  }
  ~PooledNumCols() {
    for (size_t i = n_; i > 0; --i) sc_->num.Release();
  }
  PooledNumCols(const PooledNumCols&) = delete;
  PooledNumCols& operator=(const PooledNumCols&) = delete;
  std::vector<double>* operator[](size_t i) { return cols_[i]; }
  const std::vector<double>* operator[](size_t i) const { return cols_[i]; }

 private:
  EvalScratch* sc_;
  size_t n_;
  std::vector<double>* cols_[kMaxIndexDims];
};

// Enumerates the candidate inner rows for one outer row of a set-domain or
// hash site (nested-loop sites stream the inner extent in chunks, grid
// sites consume the morsel's batched probe). Candidates are ascending.
void Candidates(const AccumOp& op, const ExecEnv& env, RowIdx outer_row,
                const std::vector<EntityId>& id_keys, size_t outer_pos,
                std::vector<RowIdx>* out) {
  out->clear();

  if (op.inner_set_field != kInvalidField) {
    // Set-valued domain: members in id order (matches the scalar path).
    const EntitySet& set =
        env.outer->SetCol(op.inner_set_field)[outer_row];
    for (EntityId id : set) {
      const World::Locator* loc = env.world->Find(id);
      if (loc != nullptr && loc->cls == op.inner_cls) {
        out->push_back(loc->row);
      }
    }
    return;
  }

  // Hash site: the entity-id key is a directory lookup.
  const World::Locator* loc = env.world->Find(id_keys[outer_pos]);
  if (loc != nullptr && loc->cls == op.inner_cls) {
    out->push_back(loc->row);
  }
}

void RunAccumVectorized(const AccumOp& op,
                        const std::vector<RowIdx>& selection, ExecEnv& env) {
  Stopwatch timer;
  SGL_TRACE_SPAN(env.telemetry, kSpanSiteQuery, env.tick, 0,
                 static_cast<uint16_t>(op.site_id));
  const PreparedSite& site = (*env.prepared)[static_cast<size_t>(op.site_id)];
  const EntityTable& inner = env.world->table(op.inner_cls);
  ExecScratch* sc = env.scratch;

  // Outer guard. Guard-free units run straight off `selection` — no copy.
  ScopedVec<RowIdx> s_holder(sc);
  const std::vector<RowIdx>* S = &selection;
  if (op.outer_guard != nullptr) {
    PairRows rows{&selection, nullptr};
    VecContext ctx = MakeCtx(env, nullptr, rows);
    ScopedVec<RowIdx> pos(sc);
    const size_t m = RunGuardFilter(*op.outer_guard, ctx, env, pos.get());
    s_holder->reserve(selection.size());  // stable high-water; see ApplyWrites
    for (size_t k = 0; k < m; ++k) {
      s_holder->push_back(selection[(*pos)[k]]);
    }
    S = s_holder.get();
  }
  PrefillSlot(op, *S, env.locals);
  if (S->empty()) return;

  // Precompute per-outer bounds / keys. Bound columns exist only for the
  // grid strategy (other strategies never read them, and must not be
  // constrained by the kMaxIndexDims stack-array limit).
  PairRows s_rows{S, nullptr};
  VecContext s_ctx = MakeCtx(env, nullptr, s_rows);
  // Grid sites answer all of this morsel's boxes with one QueryBatch call
  // (contract: probe_batch.h). Set-domain sites always run nested-loop, so
  // the grid strategy implies a plain inner extent.
  const bool range_indexed = site.strategy == JoinStrategy::kGrid;
  SGL_DCHECK(!range_indexed || (site.index != nullptr &&
                                op.inner_set_field == kInvalidField));
  PooledNumCols lo_cols(sc, range_indexed ? op.range_dims.size() : 0);
  PooledNumCols hi_cols(sc, range_indexed ? op.range_dims.size() : 0);
  if (range_indexed) {
    // QueryBatch takes full bound columns; unconstrained dims become ±inf
    // columns.
    for (size_t k = 0; k < op.range_dims.size(); ++k) {
      if (op.range_dims[k].lo != nullptr) {
        VmNum(*op.range_dims[k].lo, s_ctx, env, lo_cols[k]);
      } else {
        ResizeAmortized(lo_cols[k], S->size());
        std::fill(lo_cols[k]->begin(), lo_cols[k]->end(),
                  -std::numeric_limits<double>::infinity());
      }
      if (op.range_dims[k].hi != nullptr) {
        VmNum(*op.range_dims[k].hi, s_ctx, env, hi_cols[k]);
      } else {
        ResizeAmortized(hi_cols[k], S->size());
        std::fill(hi_cols[k]->begin(), hi_cols[k]->end(),
                  std::numeric_limits<double>::infinity());
      }
    }
  }
  ScopedVec<EntityId> id_keys(sc);
  if (site.strategy == JoinStrategy::kHash) {
    VmRef(*op.hash_dims[0].key, s_ctx, env, id_keys.get());
  }
  // The grid is partitioned by the key conjunct's inner field; each probe
  // carries its outer key.
  ScopedVec<double> probe_keys(sc);
  if (range_indexed && op.key != nullptr) {
    VmNum(*op.key, s_ctx, env, probe_keys.get());
  }

  // One batch probe for the whole morsel.
  int64_t probe_micros = 0;
  if (range_indexed) {
    const double* blo[kMaxIndexDims];
    const double* bhi[kMaxIndexDims];
    for (size_t k = 0; k < op.range_dims.size(); ++k) {
      blo[k] = lo_cols[k]->data();
      bhi[k] = hi_cols[k]->data();
    }
    Stopwatch probe_timer;
    SGL_TRACE_SPAN(env.telemetry, kSpanSiteProbe, env.tick, 0,
                   static_cast<uint16_t>(op.site_id));
    site.index->QueryBatch(blo, bhi,
                           op.key != nullptr ? probe_keys->data() : nullptr,
                           S->size(), &sc->probe);
    probe_micros = probe_timer.ElapsedMicros();
  }

  const VmProgram* filter_vm = site.strategy == JoinStrategy::kNestedLoop
                                   ? site.nl_filter_vm
                                   : site.post_filter_vm;
  const bool same_table = op.inner_cls == env.outer_cls &&
                          op.inner_set_field == kInvalidField;

  // Build the (outer, inner) pair list, outer-major, inner ascending.
  ScopedVec<RowIdx> pair_outer(sc), pair_inner(sc);
  ScopedVec<RowIdx> cand(sc), chunk_outer(sc), chunk_inner(sc), fsel(sc);
  pair_outer->reserve(S->size());
  pair_inner->reserve(S->size());
  chunk_inner->reserve(kNlChunk);
  int64_t candidates = 0;

  auto filter_chunk = [&](RowIdx o) {
    // chunk_inner holds candidates for outer row o; applies the pair filter
    // and appends survivors to the pair list.
    if (chunk_inner->empty()) return;
    if (filter_vm == nullptr) {
      pair_outer->insert(pair_outer->end(), chunk_inner->size(), o);
      pair_inner->insert(pair_inner->end(), chunk_inner->begin(),
                         chunk_inner->end());
      return;
    }
    // Fused compare-compact bytecode. Every lane shares outer row o, so
    // only lane 0 of the outer-row vector need be real (uniform_outer) and
    // the O(chunk) outer-row fill is skipped entirely.
    ResizeAmortized(chunk_outer.get(), chunk_inner->size());
    (*chunk_outer)[0] = o;
    PairRows rows{chunk_outer.get(), chunk_inner.get()};
    VecContext ctx = MakeCtx(env, &inner, rows);
    const size_t m = VmRunFilter(*filter_vm, ctx, &sc->vm,
                                 /*uniform_outer=*/true, fsel.get());
    for (size_t k = 0; k < m; ++k) {
      pair_outer->push_back(o);
      pair_inner->push_back((*chunk_inner)[(*fsel)[k]]);
    }
  };

  for (size_t pos = 0; pos < S->size(); ++pos) {
    RowIdx o = (*S)[pos];
    if (site.strategy == JoinStrategy::kNestedLoop &&
        op.inner_set_field == kInvalidField) {
      // Stream the whole inner extent in chunks.
      const size_t m = inner.size();
      for (size_t base = 0; base < m; base += kNlChunk) {
        size_t end = std::min(m, base + kNlChunk);
        chunk_inner->clear();
        for (size_t j = base; j < end; ++j) {
          if (op.exclude_self && same_table && j == o) continue;
          chunk_inner->push_back(static_cast<RowIdx>(j));
        }
        candidates += static_cast<int64_t>(chunk_inner->size());
        filter_chunk(o);
      }
    } else if (range_indexed) {
      // Consume this probe's CSR slice; slices are already ascending, so
      // pairs come out in canonical (outer, inner) order.
      const ProbeBatch& pb = sc->probe;
      chunk_inner->clear();
      const uint32_t slice_end = pb.offsets[pos + 1];
      chunk_inner->reserve(slice_end - pb.offsets[pos]);
      for (uint32_t t = pb.offsets[pos]; t < slice_end; ++t) {
        const RowIdx j = pb.items[t];
        if (op.exclude_self && same_table && j == o) continue;
        chunk_inner->push_back(j);
      }
      candidates += static_cast<int64_t>(chunk_inner->size());
      filter_chunk(o);
    } else {
      Candidates(op, env, o, *id_keys, pos, cand.get());
      chunk_inner->clear();
      chunk_inner->reserve(cand->size());
      for (RowIdx j : *cand) {
        if (op.exclude_self && same_table && j == o) continue;
        chunk_inner->push_back(j);
      }
      candidates += static_cast<int64_t>(chunk_inner->size());
      filter_chunk(o);
    }
  }

  // Evaluate accum assignments over all pairs, then fold in pair order.
  const size_t npairs = pair_outer->size();
  int64_t effects_applied = 0;
  if (npairs > 0) {
    PairRows pairs{pair_outer.get(), pair_inner.get()};
    VecContext pctx = MakeCtx(env, &inner, pairs);
    auto& evaled = sc->assign_bufs;
    if (evaled.size() < op.accum_assigns.size()) {
      evaled.resize(op.accum_assigns.size());
    }
    PoolLease<uint8_t> bool_lease(&sc->bools);
    PoolLease<double> num_lease(&sc->num);
    for (size_t a = 0; a < op.accum_assigns.size(); ++a) {
      const AccumAssign& assign = op.accum_assigns[a];
      evaled[a] = ExecScratch::AssignBufs();
      if (assign.guard != nullptr) {
        // Value-mode (not fused-filter) bytecode: the fold consumes guards
        // as columns indexed by pair position, so no compaction here.
        evaled[a].guard = bool_lease.Acquire();
        VmBool(*assign.guard, pctx, env, evaled[a].guard);
      }
      if (op.accum_type.is_number()) {
        evaled[a].nums = num_lease.Acquire();
        VmNum(*assign.value, pctx, env, evaled[a].nums);
      } else {
        evaled[a].bools = bool_lease.Acquire();
        VmBool(*assign.value, pctx, env, evaled[a].bools);
      }
    }
    Fold fold;
    RowIdx cur = (*pair_outer)[0];
    for (size_t p = 0; p < npairs; ++p) {
      if ((*pair_outer)[p] != cur) {
        FlushFold(op, fold, cur, env.locals);
        fold.Reset();
        cur = (*pair_outer)[p];
      }
      for (size_t a = 0; a < op.accum_assigns.size(); ++a) {
        if (evaled[a].guard != nullptr && !(*evaled[a].guard)[p]) continue;
        if (op.accum_type.is_number()) {
          fold.AddNum(op.accum_comb, (*evaled[a].nums)[p]);
        } else {
          fold.AddBool(op.accum_comb, (*evaled[a].bools)[p] != 0);
        }
      }
    }
    FlushFold(op, fold, cur, env.locals);

    // Pair-level effect writes. The leases stay live through this call;
    // ApplyWrites' own acquisitions nest above them (LIFO holds).
    effects_applied =
        ApplyWrites(op.pair_writes, &inner, pairs, env, op.site_id);
  }

  if (env.feedback != nullptr) {
    SiteFeedback& fb = (*env.feedback)[static_cast<size_t>(op.site_id)];
    fb.site = op.site_id;
    fb.strategy = site.strategy;
    fb.outer_rows += static_cast<int64_t>(S->size());
    fb.candidates += candidates;
    fb.matches += static_cast<int64_t>(npairs);
    fb.micros += timer.ElapsedMicros();
    fb.probe_micros += probe_micros;
    fb.effects += effects_applied;
  }
}

void RunTxnEmitVectorized(const TxnEmitOp& op,
                          const std::vector<RowIdx>& selection,
                          ExecEnv& env) {
  ExecScratch* sc = env.scratch;
  ScopedVec<RowIdx> r_holder(sc);
  const std::vector<RowIdx>* R = &selection;
  if (op.guard != nullptr) {
    PairRows rows{&selection, nullptr};
    VecContext ctx = MakeCtx(env, nullptr, rows);
    ScopedVec<RowIdx> pos(sc);
    const size_t m = RunGuardFilter(*op.guard, ctx, env, pos.get());
    r_holder->reserve(selection.size());  // stable high-water; see ApplyWrites
    for (size_t k = 0; k < m; ++k) {
      r_holder->push_back(selection[(*pos)[k]]);
    }
    R = r_holder.get();
  }
  if (R->empty()) return;

  PairRows rows{R, nullptr};
  VecContext ctx = MakeCtx(env, nullptr, rows);
  auto& evaled = sc->assign_bufs;
  if (evaled.size() < op.writes.size()) evaled.resize(op.writes.size());
  PoolLease<double> num_lease(&sc->num);
  PoolLease<EntityId> ref_lease(&sc->refs);
  for (size_t wi = 0; wi < op.writes.size(); ++wi) {
    const TxnWrite& w = op.writes[wi];
    evaled[wi] = ExecScratch::AssignBufs();
    if (w.target_kind == TargetKind::kRef) {
      evaled[wi].targets = ref_lease.Acquire();
      VmRef(*w.target_ref, ctx, env, evaled[wi].targets);
    }
    if (w.op == TxnWriteOp::kAddDelta) {
      evaled[wi].nums = num_lease.Acquire();
      VmNum(*w.value, ctx, env, evaled[wi].nums);
    } else {
      evaled[wi].refs = ref_lease.Acquire();
      VmRef(*w.value, ctx, env, evaled[wi].refs);
    }
  }
  for (size_t i = 0; i < R->size(); ++i) {
    const EntityId issuer = env.outer->id_at((*R)[i]);
    env.txn_sink->StartIntent((static_cast<uint64_t>(op.site_id) << 32) |
                                  static_cast<uint64_t>((*R)[i]),
                              issuer, env.outer_cls, (*R)[i], &op);
    for (size_t wi = 0; wi < op.writes.size(); ++wi) {
      const TxnWrite& w = op.writes[wi];
      TxnResolvedWrite rw;
      rw.target = w.target_kind == TargetKind::kSelf
                      ? issuer
                      : (*evaled[wi].targets)[i];
      rw.cls = w.target_cls;
      rw.field = w.state_field;
      rw.op = w.op;
      if (w.op == TxnWriteOp::kAddDelta) {
        rw.num = (*evaled[wi].nums)[i];
      } else {
        rw.ref = (*evaled[wi].refs)[i];
      }
      env.txn_sink->AddWrite(rw);
    }
  }
}

}  // namespace

// --- Site preparation ---------------------------------------------------

void PrepareSite(const AccumOp& op, JoinStrategy strategy, const World& world,
                 IndexManager* indexes, Tick tick, VmRegisters* regs,
                 SiteCache* cache, PreparedSite* out) {
  out->strategy = strategy;
  out->index = nullptr;

  // Compose the pair filters from the op's predicate decomposition. The
  // compositions are pure functions of (op, strategy); they are cloned into
  // the cache once and only recomposed when the strategy switches.
  auto range_pred = [&](bool include) -> ExprPtr {
    if (!include) return nullptr;
    ExprPtr composed;
    const ClassDef& inner_def = world.catalog().Get(op.inner_cls);
    for (const RangeDim& d : op.range_dims) {
      const SglType& t = inner_def.state_field(d.inner_field).type;
      if (d.lo != nullptr) {
        ExprPtr c = CmpNum(CmpOp::kGe, StateRead(1, op.inner_cls,
                                                 d.inner_field, t),
                           d.lo->Clone());
        composed = composed == nullptr ? std::move(c)
                                       : AndB(std::move(composed),
                                              std::move(c));
      }
      if (d.hi != nullptr) {
        ExprPtr c = CmpNum(CmpOp::kLe, StateRead(1, op.inner_cls,
                                                 d.inner_field, t),
                           d.hi->Clone());
        composed = composed == nullptr ? std::move(c)
                                       : AndB(std::move(composed),
                                              std::move(c));
      }
    }
    return composed;
  };
  auto hash_pred = [&](size_t skip_dim) -> ExprPtr {
    ExprPtr composed;
    for (size_t k = 0; k < op.hash_dims.size(); ++k) {
      if (k == skip_dim) continue;
      auto c = std::make_unique<Expr>();
      c->kind = ExprKind::kCmpRef;
      c->type = SglType::Bool();
      c->cmp = CmpOp::kEq;
      c->kids.push_back(RowIdRead(1, op.inner_cls));
      c->kids.push_back(op.hash_dims[k].key->Clone());
      composed = composed == nullptr ? std::move(c)
                                     : AndB(std::move(composed),
                                            std::move(c));
    }
    return composed;
  };
  auto compose = [](ExprPtr a, ExprPtr b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    return AndB(std::move(a), std::move(b));
  };
  // The conjuncts the grid answers by its build (it.key != key, the inner
  // filter) followed by the residual.
  auto pushed_and_residual = [&](bool include_pushed) -> ExprPtr {
    ExprPtr composed;
    if (include_pushed && op.key != nullptr) {
      const SglType& t =
          world.catalog().Get(op.inner_cls).state_field(op.key_field).type;
      composed = CmpNum(CmpOp::kNe,
                        StateRead(1, op.inner_cls, op.key_field, t),
                        op.key->Clone());
    }
    if (include_pushed && op.inner_filter != nullptr) {
      composed = compose(std::move(composed), op.inner_filter->Clone());
    }
    if (op.residual != nullptr) {
      composed = compose(std::move(composed), op.residual->Clone());
    }
    return composed;
  };

  // The composed filters lower: their conjuncts are range bounds and keys
  // (compiled as values), the inner filter and the residual, which
  // VmProgramCache::CompileProgram checked.
  auto lower = [](const ExprPtr& filter, VmProgram* vm) {
    if (filter == nullptr) return;
    const Status st = CompileFilter(*filter, vm);
    SGL_CHECK(st.ok() && "composed pair filter failed to lower");
  };

  if (!cache->nl_built) {
    cache->nl_filter =
        compose(compose(range_pred(true), hash_pred(static_cast<size_t>(-1))),
                pushed_and_residual(true));
    lower(cache->nl_filter, &cache->nl_filter_vm);
    cache->nl_built = true;
  }
  out->nl_filter = cache->nl_filter.get();
  out->nl_filter_vm =
      cache->nl_filter != nullptr ? &cache->nl_filter_vm : nullptr;

  if (!cache->post_built || cache->post_strategy != strategy) {
    switch (strategy) {
      case JoinStrategy::kNestedLoop:
        cache->post_index_filter = nullptr;
        break;
      case JoinStrategy::kGrid:
        // The grid's build already left out every row failing the inner
        // filter, and its probes skip the key partitions equal to theirs.
        cache->post_index_filter =
            compose(hash_pred(static_cast<size_t>(-1)),
                    pushed_and_residual(false));
        break;
      case JoinStrategy::kHash:
        cache->post_index_filter =
            compose(compose(range_pred(true), hash_pred(0)),
                    pushed_and_residual(true));
        break;
    }
    lower(cache->post_index_filter, &cache->post_filter_vm);
    cache->post_strategy = strategy;
    cache->post_built = true;
  }
  out->post_index_filter = cache->post_index_filter.get();
  out->post_filter_vm =
      cache->post_index_filter != nullptr ? &cache->post_filter_vm : nullptr;

  // The hash strategy probes the entity directory, so only the grid needs
  // a structure built.
  if (strategy == JoinStrategy::kGrid) {
    if (!cache->spec_built) {
      cache->spec.cls = op.inner_cls;
      for (const RangeDim& d : op.range_dims) {
        cache->spec.fields.push_back(d.inner_field);
      }
      cache->spec.inner_filter = op.inner_filter.get();
      cache->spec.key_field = op.key_field;
      cache->spec_built = true;
    }
    out->index = indexes->GetOrBuild(world, cache->spec, tick, regs);
  }
}

// --- Vectorized driver ----------------------------------------------------

void RunOpsVectorized(const std::vector<std::unique_ptr<PlanOp>>& ops,
                      const std::vector<RowIdx>& selection, ExecEnv& env) {
  if (selection.empty()) return;
  SGL_CHECK(env.scratch != nullptr);
  for (const auto& op : ops) {
    switch (op->kind) {
      case PlanOp::Kind::kComputeLocals: {
        auto* o = static_cast<const ComputeLocalsOp*>(op.get());
        PairRows rows{&selection, nullptr};
        VecContext ctx = MakeCtx(env, nullptr, rows);
        for (const LocalDef& def : o->defs) {
          const size_t slot = static_cast<size_t>(def.slot);
          if (def.type.is_number()) {
            ScopedVec<double> vals(env.scratch);
            VmNum(*def.value, ctx, env, vals.get());
            for (size_t i = 0; i < selection.size(); ++i) {
              env.locals->num[slot][selection[i]] = (*vals)[i];
            }
          } else if (def.type.is_bool()) {
            ScopedVec<uint8_t> vals(env.scratch);
            VmBool(*def.value, ctx, env, vals.get());
            for (size_t i = 0; i < selection.size(); ++i) {
              env.locals->bools[slot][selection[i]] = (*vals)[i];
            }
          } else {
            ScopedVec<EntityId> vals(env.scratch);
            VmRef(*def.value, ctx, env, vals.get());
            for (size_t i = 0; i < selection.size(); ++i) {
              env.locals->refs[slot][selection[i]] = (*vals)[i];
            }
          }
        }
        break;
      }
      case PlanOp::Kind::kEffects: {
        auto* o = static_cast<const EffectsOp*>(op.get());
        PairRows rows{&selection, nullptr};
        ApplyWrites(o->writes, nullptr, rows, env, /*site=*/-1);
        break;
      }
      case PlanOp::Kind::kAccum:
        RunAccumVectorized(*static_cast<const AccumOp*>(op.get()), selection,
                           env);
        break;
      case PlanOp::Kind::kTxnEmit:
        RunTxnEmitVectorized(*static_cast<const TxnEmitOp*>(op.get()),
                             selection, env);
        break;
    }
  }
}

// --- Scalar (object-at-a-time) driver --------------------------------------

namespace {

ScalarContext MakeScalarCtx(const ExecEnv& env, RowIdx row) {
  ScalarContext ctx;
  ctx.world = env.world;
  ctx.outer_cls = env.outer_cls;
  ctx.outer_row = row;
  ctx.locals = env.locals;
  return ctx;
}

void ApplyWriteScalar(const EffectWrite& w, RowIdx row, ClassId inner_cls,
                      RowIdx inner_row, ExecEnv& env, int site) {
  ScalarContext ctx = MakeScalarCtx(env, row);
  ctx.inner_cls = inner_cls;
  ctx.inner_row = inner_row;
  if (w.guard != nullptr && !EvalScalarBool(*w.guard, ctx)) return;
  RowIdx target_row = kInvalidRow;
  switch (w.target_kind) {
    case TargetKind::kSelf:
      target_row = row;
      break;
    case TargetKind::kIter:
      target_row = inner_row;
      break;
    case TargetKind::kRef: {
      EntityId id = EvalScalarRef(*w.target_ref, ctx);
      const World::Locator* loc = env.world->Find(id);
      if (loc == nullptr || loc->cls != w.target_cls) return;
      target_row = loc->row;
      break;
    }
  }
  if (target_row == kInvalidRow) return;
  EffectBuffer* sink = env.effect_sinks[static_cast<size_t>(w.target_cls)];
  uint64_t key = OrderKey(w.assign_id, row,
                          inner_row == kInvalidRow ? 0 : inner_row);
  const FieldDef& field =
      env.world->catalog().Get(w.target_cls).effect_field(w.field);
  FrameRecord rec = StatementRecord(w, site);
  if (w.set_insert) {
    EntityId v = EvalScalarRef(*w.value, ctx);
    sink->AddSetInsert(w.field, target_row, v);
    rec.contrib = FramePayload::Int(v);
    rec.contrib_kind = static_cast<uint32_t>(ValueKind::kRef);
  } else if (field.type.is_number()) {
    double v = EvalScalarNum(*w.value, ctx);
    sink->AddNumber(w.field, target_row, v, key);
    rec.contrib = FramePayload::Num(v);
    rec.contrib_kind = static_cast<uint32_t>(ValueKind::kNumber);
  } else if (field.type.is_bool()) {
    bool v = EvalScalarBool(*w.value, ctx);
    sink->AddBool(w.field, target_row, v, key);
    rec.contrib = FramePayload::Int(v ? 1 : 0);
    rec.contrib_kind = static_cast<uint32_t>(ValueKind::kBool);
  } else {
    EntityId v = EvalScalarRef(*w.value, ctx);
    sink->AddRef(w.field, target_row, v, key);
    rec.contrib = FramePayload::Int(v);
    rec.contrib_kind = static_cast<uint32_t>(ValueKind::kRef);
  }
  if (env.trace != nullptr || env.recorder != nullptr) {
    rec.target = env.world->table(w.target_cls).id_at(target_row);
    rec.order_key = key;
    rec.src_outer = env.outer->id_at(row);
    if (inner_row != kInvalidRow && inner_cls != kInvalidClass) {
      rec.src_inner = env.world->table(inner_cls).id_at(inner_row);
    }
    if (env.recorder != nullptr) {
      FlightRecorder::Batch batch(env.recorder, 1);
      batch.Add(rec);
    }
    if (env.trace != nullptr) TraceToUser(env, rec);
  }
}

void RunAccumScalarBatch(const AccumOp& op,
                         const std::vector<RowIdx>& selection, ExecEnv& env) {
  const PreparedSite& site = (*env.prepared)[static_cast<size_t>(op.site_id)];
  const EntityTable& inner = env.world->table(op.inner_cls);
  const bool same_table = op.inner_cls == env.outer_cls &&
                          op.inner_set_field == kInvalidField;

  // Enumerate matches per entity (the object-at-a-time engine scans the
  // whole domain per entity — that is the point of the baseline) and fold
  // the accum variable as pairs are found. Pair-level effect writes are
  // collected and applied statement-major afterwards so that ⊕ fold order
  // over shared targets is the canonical (statement, outer, inner) order of
  // the compiled engine — semantically identical, FP-identical.
  std::vector<std::pair<RowIdx, RowIdx>> pairs;
  for (RowIdx row : selection) {
    ScalarContext octx = MakeScalarCtx(env, row);
    Fold fold;
    FlushFold(op, fold, row, env.locals);  // default the slot
    if (op.outer_guard != nullptr &&
        !EvalScalarBool(*op.outer_guard, octx)) {
      continue;
    }
    std::vector<RowIdx> domain;
    if (op.inner_set_field != kInvalidField) {
      const EntitySet& set = env.outer->SetCol(op.inner_set_field)[row];
      for (EntityId id : set) {
        const World::Locator* loc = env.world->Find(id);
        if (loc != nullptr && loc->cls == op.inner_cls) {
          domain.push_back(loc->row);
        }
      }
    } else {
      domain.resize(inner.size());
      for (size_t j = 0; j < inner.size(); ++j) {
        domain[j] = static_cast<RowIdx>(j);
      }
    }
    for (RowIdx j : domain) {
      if (op.exclude_self && same_table && j == row) continue;
      ScalarContext pctx = MakeScalarCtx(env, row);
      pctx.inner_cls = op.inner_cls;
      pctx.inner_row = j;
      if (site.nl_filter != nullptr &&
          !EvalScalarBool(*site.nl_filter, pctx)) {
        continue;
      }
      for (const AccumAssign& assign : op.accum_assigns) {
        if (assign.guard != nullptr &&
            !EvalScalarBool(*assign.guard, pctx)) {
          continue;
        }
        if (op.accum_type.is_number()) {
          fold.AddNum(op.accum_comb, EvalScalarNum(*assign.value, pctx));
        } else {
          fold.AddBool(op.accum_comb, EvalScalarBool(*assign.value, pctx));
        }
      }
      if (!op.pair_writes.empty()) pairs.emplace_back(row, j);
    }
    FlushFold(op, fold, row, env.locals);
  }
  for (const EffectWrite& w : op.pair_writes) {
    for (const auto& [row, j] : pairs) {
      ApplyWriteScalar(w, row, op.inner_cls, j, env, op.site_id);
    }
  }
}

void RunTxnEmitScalar(const TxnEmitOp& op, RowIdx row, ExecEnv& env) {
  ScalarContext ctx = MakeScalarCtx(env, row);
  if (op.guard != nullptr && !EvalScalarBool(*op.guard, ctx)) return;
  const EntityId issuer = env.outer->id_at(row);
  env.txn_sink->StartIntent((static_cast<uint64_t>(op.site_id) << 32) |
                                static_cast<uint64_t>(row),
                            issuer, env.outer_cls, row, &op);
  for (const TxnWrite& w : op.writes) {
    TxnResolvedWrite rw;
    rw.target = w.target_kind == TargetKind::kSelf
                    ? issuer
                    : EvalScalarRef(*w.target_ref, ctx);
    rw.cls = w.target_cls;
    rw.field = w.state_field;
    rw.op = w.op;
    if (w.op == TxnWriteOp::kAddDelta) {
      rw.num = EvalScalarNum(*w.value, ctx);
    } else {
      rw.ref = EvalScalarRef(*w.value, ctx);
    }
    env.txn_sink->AddWrite(rw);
  }
}

}  // namespace

void RunOpsScalar(const std::vector<std::unique_ptr<PlanOp>>& ops,
                  const std::vector<RowIdx>& selection, ExecEnv& env) {
  // Statement-major iteration: for each op (and each write within it), all
  // rows are processed with per-row scalar evaluation. This keeps the
  // object-at-a-time cost profile (scalar predicates, full accum scans)
  // while making ⊕ accumulation order identical to the compiled engine.
  for (const auto& op : ops) {
    switch (op->kind) {
      case PlanOp::Kind::kComputeLocals: {
        auto* o = static_cast<const ComputeLocalsOp*>(op.get());
        for (const LocalDef& def : o->defs) {
          const size_t slot = static_cast<size_t>(def.slot);
          for (RowIdx row : selection) {
            ScalarContext ctx = MakeScalarCtx(env, row);
            if (def.type.is_number()) {
              env.locals->num[slot][row] = EvalScalarNum(*def.value, ctx);
            } else if (def.type.is_bool()) {
              env.locals->bools[slot][row] =
                  EvalScalarBool(*def.value, ctx) ? 1 : 0;
            } else {
              env.locals->refs[slot][row] = EvalScalarRef(*def.value, ctx);
            }
          }
        }
        break;
      }
      case PlanOp::Kind::kEffects: {
        auto* o = static_cast<const EffectsOp*>(op.get());
        for (const EffectWrite& w : o->writes) {
          for (RowIdx row : selection) {
            ApplyWriteScalar(w, row, kInvalidClass, kInvalidRow, env,
                             /*site=*/-1);
          }
        }
        break;
      }
      case PlanOp::Kind::kAccum:
        RunAccumScalarBatch(*static_cast<const AccumOp*>(op.get()),
                            selection, env);
        break;
      case PlanOp::Kind::kTxnEmit:
        for (RowIdx row : selection) {
          RunTxnEmitScalar(*static_cast<const TxnEmitOp*>(op.get()), row,
                           env);
        }
        break;
    }
  }
}

}  // namespace sgl
