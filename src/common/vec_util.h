// Small vector utilities shared by the pooled-buffer code paths.

#ifndef SGL_COMMON_VEC_UTIL_H_
#define SGL_COMMON_VEC_UTIL_H_

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/common/types.h"

namespace sgl {

/// resize(n) with geometric capacity growth. A cleared (size-0) vector
/// resized to a slowly-rising n re-allocates on every call (libstdc++ grows
/// it to exactly n); reserving max(n, 2*capacity) first restores amortized
/// growth so pooled buffers stop allocating once past the workload's
/// high-water mark.
template <typename T>
inline void ResizeAmortized(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) v->reserve(std::max(n, v->capacity() * 2));
  v->resize(n);
}

/// Makes `rows` the iota [0, n). A pure function of the size, so it is
/// refilled only when the size changed.
inline void FillRange(size_t n, std::vector<RowIdx>* rows) {
  if (rows->size() == n) return;
  rows->resize(n);
  std::iota(rows->begin(), rows->end(), RowIdx{0});
}

}  // namespace sgl

#endif  // SGL_COMMON_VEC_UTIL_H_
