// Pooled CSR output of one batched index probe (SpatialIndex::QueryBatch).
//
// Contract — identical results to per-box SpatialIndex::Query calls:
//   * probe p's candidates are items[offsets[p] .. offsets[p+1]);
//   * every slice is sorted ascending by row index, exactly like
//     `Query(...)` + `std::sort` for box p, so downstream pair order (and
//     therefore world checksums) is the canonical one;
//   * an inverted box (lo > hi on any dim) yields an empty slice, and NaN
//     coordinates are kept, both matching the per-index Query semantics.
//
// All vectors grow amortized to their high-water mark and are pooled in
// ExecScratch, so steady-state batched probing performs zero allocations.
// The tmp_* / visit_keys members are implementation scratch for index
// backends that emit candidates in visit order (GridIndex groups probes by
// primary cell) before scattering them back into probe order.

#ifndef SGL_INDEX_PROBE_BATCH_H_
#define SGL_INDEX_PROBE_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace sgl {

/// Grows `v` to `n` elements, reserving twice the demanded size on any
/// growth. Candidate volume in a live world creeps a few percent per tick
/// (entities cluster), so an exact-fit high-water buffer reallocates again
/// shortly after warmup; the 2x headroom means a realloc can only recur
/// once demand doubles, which steady-state creep cannot do between ticks.
template <typename T>
inline void GrowWithHeadroom(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) v->reserve(std::max(n * 2, v->capacity() * 2));
  v->resize(n);
}

struct ProbeBatch {
  std::vector<uint32_t> offsets;  ///< num_probes + 1 CSR offsets into items
  std::vector<RowIdx> items;      ///< candidates, slice-sorted ascending

  // Backend scratch (see file comment). Not part of the result.
  std::vector<uint64_t> visit_keys;
  std::vector<uint32_t> tmp_start;
  std::vector<RowIdx> tmp_items;

  size_t num_probes() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  const RowIdx* begin_of(size_t p) const { return items.data() + offsets[p]; }
  const RowIdx* end_of(size_t p) const {
    return items.data() + offsets[p + 1];
  }
};

}  // namespace sgl

#endif  // SGL_INDEX_PROBE_BATCH_H_
