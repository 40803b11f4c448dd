#include "src/index/index_manager.h"

#include "src/common/stopwatch.h"

namespace sgl {

namespace {

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

const GridIndex* IndexManager::GetOrBuild(const World& world,
                                          const IndexSpec& spec, Tick tick) {
  Entry& e = entries_[spec];
  if (e.built_at == tick && e.index != nullptr) return e.index.get();
  Stopwatch timer;
  // Build swaps e.coords with the index's previous column copy, so each
  // rebuild performs exactly one O(dims*n) copy and both buffers keep
  // their high-water capacity.
  ExtractCoords(world, spec, &e.coords);
  if (e.index == nullptr) {
    const int dims = static_cast<int>(spec.fields.size());
    e.index = std::make_unique<GridIndex>(dims);
  }
  e.index->Build(std::move(e.coords));
  e.built_at = tick;
  ++builds_;
  build_micros_ += timer.ElapsedMicros();
  return e.index.get();
}

size_t IndexManager::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [spec, entry] : entries_) {
    if (entry.index != nullptr) bytes += entry.index->MemoryBytes();
  }
  return bytes;
}

}  // namespace sgl
