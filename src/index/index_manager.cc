#include "src/index/index_manager.h"

#include "src/common/stopwatch.h"

namespace sgl {

namespace {

class RangeTreeIndex : public SpatialIndex {
 public:
  explicit RangeTreeIndex(int dims) : tree_(dims) {}
  void Build(std::vector<std::vector<double>>&& coords) {
    tree_.Build(std::move(coords));
  }
  int dims() const override { return tree_.dims(); }
  void Query(const double* lo, const double* hi,
             std::vector<RowIdx>* out) const override {
    tree_.Query(lo, hi, out);
  }
  void QueryBatch(const double* const* lo, const double* const* hi,
                  size_t num_probes, ProbeBatch* out) const override {
    tree_.QueryBatch(lo, hi, num_probes, out);
  }
  size_t MemoryBytes() const override { return tree_.MemoryBytes(); }

 private:
  RangeTree tree_;
};

class GridIndexAdapter : public SpatialIndex {
 public:
  explicit GridIndexAdapter(int dims) : grid_(dims) {}
  void Build(std::vector<std::vector<double>>&& coords) {
    grid_.Build(std::move(coords));
  }
  int dims() const override { return grid_.dims(); }
  void Query(const double* lo, const double* hi,
             std::vector<RowIdx>* out) const override {
    grid_.Query(lo, hi, out);
  }
  void QueryBatch(const double* const* lo, const double* const* hi,
                  size_t num_probes, ProbeBatch* out) const override {
    grid_.QueryBatch(lo, hi, num_probes, out);
  }
  size_t MemoryBytes() const override { return grid_.MemoryBytes(); }

 private:
  GridIndex grid_;
};

// Copies the indexed columns into `coords`, reusing its buffers.
void ExtractCoords(const World& world, const IndexSpec& spec,
                   std::vector<std::vector<double>>* coords) {
  const EntityTable& table = world.table(spec.cls);
  const size_t n = table.size();
  coords->resize(spec.fields.size());
  for (size_t k = 0; k < spec.fields.size(); ++k) {
    ConstNumberColumn col = table.Num(spec.fields[k]);
    (*coords)[k].resize(n);
    for (size_t i = 0; i < n; ++i) (*coords)[k][i] = col[i];
  }
}

}  // namespace

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kRangeTree: return "range-tree";
    case IndexKind::kGrid: return "grid";
  }
  return "?";
}

const SpatialIndex* IndexManager::GetOrBuild(const World& world,
                                             const IndexSpec& spec,
                                             Tick tick) {
  Entry& e = entries_[spec];
  if (e.built_at == tick && e.index != nullptr) return e.index.get();
  Stopwatch timer;
  const int dims = static_cast<int>(spec.fields.size());
  // Build swaps e.coords with the index's previous column copy, so each
  // rebuild performs exactly one O(dims*n) copy and both buffers keep
  // their high-water capacity.
  ExtractCoords(world, spec, &e.coords);
  switch (spec.kind) {
    case IndexKind::kRangeTree: {
      if (e.index == nullptr) {
        e.index = std::make_unique<RangeTreeIndex>(dims);
      }
      static_cast<RangeTreeIndex*>(e.index.get())->Build(std::move(e.coords));
      break;
    }
    case IndexKind::kGrid: {
      if (e.index == nullptr) {
        e.index = std::make_unique<GridIndexAdapter>(dims);
      }
      static_cast<GridIndexAdapter*>(e.index.get())->Build(std::move(e.coords));
      break;
    }
  }
  e.built_at = tick;
  ++builds_;
  build_micros_ += timer.ElapsedMicros();
  return e.index.get();
}

void IndexManager::InvalidateAll() {
  for (auto& [spec, entry] : entries_) entry.built_at = -1;
}

size_t IndexManager::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [spec, entry] : entries_) {
    if (entry.index != nullptr) bytes += entry.index->MemoryBytes();
  }
  return bytes;
}

}  // namespace sgl
