// Pooled CSR output of one batched index probe (GridIndex::QueryBatch).
//
// Contract — identical results to per-box GridIndex::Query calls:
//   * probe p's candidates are items[offsets[p] .. offsets[p+1]);
//   * every slice is sorted ascending by row index, exactly like
//     `Query(...)` + `std::sort` for box p, so downstream pair order (and
//     therefore world checksums) is the canonical one;
//   * a box with an inverted (lo > hi) or NaN edge on any dim yields an
//     empty slice, and rows with a NaN coordinate are never returned (the
//     build does not index them), both matching the Query semantics.
//
// The index produces that order with EmitAscending below: a bitmap scan over
// the slice's row range when the range is dense, a comparison sort only
// when it is sparse and wide.
//
// All vectors grow amortized to their high-water mark and are pooled in
// ExecScratch, so steady-state batched probing performs zero allocations.
// The tmp_* / visit_keys members are GridIndex's scratch: it emits
// candidates in visit order (probes grouped by primary cell) before
// scattering them back into probe order; `bits` is EmitAscending's row
// bitmap.

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

  // Index scratch (see file comment). Not part of the result.
  std::vector<uint64_t> visit_keys;
  std::vector<uint32_t> tmp_start;
  std::vector<RowIdx> tmp_items;
  /// EmitAscending's row bitmap: all-zero between calls, grown zero-filled
  /// to the largest row seen (one per-worker batch serves every site).
  std::vector<uint64_t> bits;

  size_t num_probes() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  const RowIdx* begin_of(size_t p) const { return items.data() + offsets[p]; }
  const RowIdx* end_of(size_t p) const {
    return items.data() + offsets[p + 1];
  }
};

/// Writes the duplicate-free row ids src[0, len) to dst[0, len) in
/// ascending order; `dst` may equal `src`. `bits` must be all-zero on entry
/// and is all-zero again on return.
///
/// When the slice's rows span W = (max>>6) - (min>>6) + 1 bitmap words and
/// W <= len, each row sets one bit and the W words are scanned with ctz,
/// each cleared as it is read: ~len bit sets plus W <= len word reads, so
/// linear in len and well under the len*log2(len) compares of a sort.
/// When W > len (a few rows far apart, e.g. two rows at opposite ends of a
/// 100k-row table), the scan would read mostly empty words, so std::sort
/// orders the slice instead. Battle's ~22-match slices over a 2048-row
/// table (32 words) take either branch.
inline void EmitAscending(const RowIdx* src, size_t len, RowIdx* dst,
                          std::vector<uint64_t>* bits) {
  if (len == 0) return;
  RowIdx lo = src[0], hi = src[0];
  for (size_t i = 1; i < len; ++i) {
    lo = std::min(lo, src[i]);
    hi = std::max(hi, src[i]);
  }
  const size_t wlo = lo >> 6, whi = hi >> 6;
  if (whi - wlo + 1 > len) {
    if (dst != src) std::copy(src, src + len, dst);
    std::sort(dst, dst + len);
    SGL_DCHECK(std::adjacent_find(dst, dst + len) == dst + len);
    return;
  }
  if (whi >= bits->size()) bits->resize(whi + 1);
  uint64_t* words = bits->data();
  for (size_t i = 0; i < len; ++i) {
    words[src[i] >> 6] |= uint64_t{1} << (src[i] & 63);
  }
  size_t n = 0;
  for (size_t w = wlo; w <= whi; ++w) {
    uint64_t word = words[w];
    words[w] = 0;
    while (word != 0) {
      dst[n++] = static_cast<RowIdx>((w << 6) + __builtin_ctzll(word));
      word &= word - 1;
    }
  }
  // A duplicate row would set one bit twice and silently vanish.
  SGL_DCHECK(n == len);
}

}  // namespace sgl

#endif  // SGL_INDEX_PROBE_BATCH_H_
