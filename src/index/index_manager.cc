#include "src/index/index_manager.h"

#include "src/common/stopwatch.h"
#include "src/common/vec_util.h"
#include "src/vm/compile.h"

namespace sgl {

namespace {

// Copies numeric column `field` of `table` into `out`, reusing its buffer.
void CopyColumn(const EntityTable& table, FieldIdx field,
                std::vector<double>* out) {
  ConstNumberColumn col = table.Num(field);
  out->resize(table.size());
  for (size_t i = 0; i < out->size(); ++i) (*out)[i] = col[i];
}

}  // namespace

bool IndexSpec::operator==(const IndexSpec& o) const {
  if (cls != o.cls || fields != o.fields || key_field != o.key_field) {
    return false;
  }
  if (inner_filter == nullptr || o.inner_filter == nullptr) {
    return inner_filter == o.inner_filter;
  }
  return inner_filter->Equals(*o.inner_filter);
}

const GridIndex* IndexManager::GetOrBuild(const World& world,
                                          const IndexSpec& spec, Tick tick,
                                          VmRegisters* regs) {
  Entry* e = nullptr;
  for (Entry& entry : entries_) {
    if (entry.spec == spec) e = &entry;
  }
  if (e == nullptr) {
    e = &entries_.emplace_back();
    e->spec = spec;
    e->index =
        std::make_unique<GridIndex>(static_cast<int>(spec.fields.size()));
    if (spec.inner_filter != nullptr) {
      // VmProgramCache::CompileProgram checked that every inner filter
      // lowers.
      const Status st = CompileFilter(*spec.inner_filter, &e->filter_vm);
      SGL_CHECK(st.ok() && "inner filter failed to lower");
    }
  }
  if (e->built_at == tick) return e->index.get();
  Stopwatch timer;
  // Build swaps e->coords (and e->keys) with the index's previous copies,
  // so each rebuild performs exactly one O(dims*n) copy and both buffers
  // keep their high-water capacity.
  const EntityTable& table = world.table(spec.cls);
  const size_t n = table.size();
  e->coords.resize(spec.fields.size());
  for (size_t k = 0; k < spec.fields.size(); ++k) {
    CopyColumn(table, spec.fields[k], &e->coords[k]);
  }
  if (spec.key_field != kInvalidField) {
    CopyColumn(table, spec.key_field, &e->keys);
  }
  const std::vector<RowIdx>* rows = nullptr;
  if (spec.inner_filter != nullptr) {
    // Nothing writes state during the query phase, so one pass over the
    // class's rows per build settles the filter for every probe. Survivor
    // positions over the span 0..n-1 are the surviving rows themselves.
    FillRange(n, &e->all_rows);
    VecContext ctx;
    ctx.world = &world;
    ctx.outer = &table;
    ctx.outer_rows = &e->all_rows;
    ctx.inner = &table;
    ctx.inner_rows = &e->all_rows;
    const size_t m = VmRunFilter(e->filter_vm, ctx, regs,
                                 /*uniform_outer=*/false, &e->kept);
    e->kept.resize(m);
    rows = &e->kept;
  }
  e->index->Build(std::move(e->coords), std::move(e->keys), rows);
  e->built_at = tick;
  ++builds_;
  build_micros_ += timer.ElapsedMicros();
  return e->index.get();
}

size_t IndexManager::MemoryBytes() const {
  size_t bytes = 0;
  for (const Entry& entry : entries_) bytes += entry.index->MemoryBytes();
  return bytes;
}

}  // namespace sgl
