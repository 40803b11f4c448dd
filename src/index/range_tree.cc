#include "src/index/range_tree.h"

#include <algorithm>
#include <cmath>

#include "src/common/vec_util.h"

namespace sgl {

RangeTree::RangeTree(int dims, int leaf_size)
    : dims_(dims), leaf_size_(leaf_size) {
  SGL_CHECK(dims >= 1);
  SGL_CHECK(leaf_size >= 1);
  // Sized up front so the first move-in Build already hands the caller a
  // dims()-column vector (the documented buffer-return contract).
  coords_.resize(static_cast<size_t>(dims));
}

void RangeTree::Build(const std::vector<std::vector<double>>& coords) {
  SGL_CHECK(static_cast<int>(coords.size()) == dims_);
  n_ = coords.empty() ? 0 : coords[0].size();
  SGL_CHECK(n_ < kNone);
  for (size_t k = 0; k < coords.size(); ++k) {
    SGL_CHECK(coords[k].size() == n_);
    // assign() reuses the existing buffer's capacity.
    coords_[k].assign(coords[k].begin(), coords[k].end());
  }
  BuildLayers();
}

void RangeTree::Build(std::vector<std::vector<double>>&& coords) {
  SGL_CHECK(static_cast<int>(coords.size()) == dims_);
  n_ = coords.empty() ? 0 : coords[0].size();
  SGL_CHECK(n_ < kNone);
  for (const auto& c : coords) SGL_CHECK(c.size() == n_);
  coords_.swap(coords);  // the caller now holds the previous build's columns
  BuildLayers();
}

void RangeTree::BuildLayers() {
  layers_.clear();
  nodes_.clear();
  keys_.clear();
  items_.clear();
  tasks_.clear();
  if (n_ == 0) return;

  // Root layer: all points sorted by dimension 0. Ties break on the point
  // id, giving a deterministic total order without the scratch buffer a
  // stable sort would allocate.
  const uint32_t n = static_cast<uint32_t>(n_);
  ResizeAmortized(&items_, n_);
  for (uint32_t i = 0; i < n; ++i) items_[i] = i;
  const std::vector<double>& k0 = coords_[0];
  std::sort(items_.begin(), items_.end(), [&k0](RowIdx a, RowIdx b) {
    return k0[a] != k0[b] ? k0[a] < k0[b] : a < b;
  });
  ResizeAmortized(&keys_, n_);
  for (uint32_t i = 0; i < n; ++i) keys_[i] = k0[items_[i]];
  Layer root;
  root.count = n;
  layers_.push_back(root);
  tasks_.push_back(0);

  // Layers are built to completion one at a time (sub-layers spawned by a
  // hierarchy wait in tasks_), so all scratch below is reused serially.
  for (size_t head = 0; head < tasks_.size(); ++head) {
    BuildHierarchy(tasks_[head]);
  }
}

uint32_t RangeTree::NewLayer(int dim, const RowIdx* src, uint32_t m) {
  // The concatenated arena is Θ(n·log^(d−1) n) entries — it can overflow
  // 32-bit offsets long before n itself does.
  SGL_CHECK(items_.size() + m < static_cast<size_t>(kNone));
  const uint32_t off = static_cast<uint32_t>(items_.size());
  ResizeAmortized(&items_, items_.size() + m);
  std::copy(src, src + m, items_.begin() + off);
  ResizeAmortized(&keys_, keys_.size() + m);
  const std::vector<double>& kd = coords_[static_cast<size_t>(dim)];
  for (uint32_t i = 0; i < m; ++i) keys_[off + i] = kd[src[i]];
  Layer layer;
  layer.off = off;
  layer.count = m;
  layer.dim = static_cast<uint32_t>(dim);
  layers_.push_back(layer);
  const uint32_t idx = static_cast<uint32_t>(layers_.size() - 1);
  tasks_.push_back(idx);
  return idx;
}

void RangeTree::BuildHierarchy(uint32_t li) {
  const Layer layer = layers_[li];  // by value: layers_ grows below
  const int dim = static_cast<int>(layer.dim);
  const uint32_t m = layer.count;
  if (dim + 1 >= dims_ || m <= static_cast<uint32_t>(leaf_size_)) {
    return;  // sorted-array layer: queries bisect and scan it directly
  }

  // This layer's points sorted by the next dimension; each hierarchy level
  // distributes the order down the node slices with stable partitions, so
  // no further sorting happens (O(m log m) per dimension transition).
  ResizeAmortized(&level_, m);
  std::copy(items_.begin() + layer.off, items_.begin() + layer.off + m,
            level_.begin());
  const std::vector<double>& nk = coords_[static_cast<size_t>(dim) + 1];
  std::sort(level_.begin(), level_.end(), [&nk](RowIdx a, RowIdx b) {
    return nk[a] != nk[b] ? nk[a] < nk[b] : a < b;
  });

  // pos_of_: position of each point in this layer's dim-sorted order.
  // Indexed by RowIdx (global); only this layer's points are written and
  // read, so the buffer carries stale values across layers harmlessly.
  ResizeAmortized(&pos_of_, n_);
  for (uint32_t i = 0; i < m; ++i) pos_of_[items_[layer.off + i]] = i;

  SegNode root;
  root.end = m;
  layers_[li].root = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(root);
  pend_.clear();
  pend_.push_back(Pending{layers_[li].root, 0});

  // Level-order expansion with ping-pong slice buffers: pend_ holds the
  // internal nodes of the current level plus where their dim+1-sorted slice
  // starts in *cur; expanding a node appends its associated layer, creates
  // its children, and partitions its slice into *nxt for any internal child.
  std::vector<RowIdx>* cur = &level_;
  std::vector<RowIdx>* nxt = &next_level_;
  while (!pend_.empty()) {
    nxt->clear();
    pend_next_.clear();
    for (const Pending& p : pend_) {
      const SegNode nd = nodes_[p.node];  // by value: nodes_ grows below
      const uint32_t span = nd.end - nd.begin;
      nodes_[p.node].sub = NewLayer(dim + 1, cur->data() + p.slice_off, span);
      const uint32_t mid = nd.begin + span / 2;
      const uint32_t first_child = static_cast<uint32_t>(nodes_.size());
      nodes_[p.node].first_child = first_child;
      SegNode left, right;
      left.begin = nd.begin;
      left.end = mid;
      right.begin = mid;
      right.end = nd.end;
      nodes_.push_back(left);
      nodes_.push_back(right);
      // Partition the slice, writing only the halves an internal child will
      // consume (a leaf child's slice is never read again).
      const bool left_internal = mid - nd.begin > static_cast<uint32_t>(leaf_size_);
      const bool right_internal = nd.end - mid > static_cast<uint32_t>(leaf_size_);
      if (!left_internal && !right_internal) continue;
      uint32_t lw = kNone, rw = kNone;
      if (left_internal) {
        lw = static_cast<uint32_t>(nxt->size());
        ResizeAmortized(nxt, nxt->size() + (mid - nd.begin));
        pend_next_.push_back(Pending{first_child, lw});
      }
      if (right_internal) {
        rw = static_cast<uint32_t>(nxt->size());
        ResizeAmortized(nxt, nxt->size() + (nd.end - mid));
        pend_next_.push_back(Pending{first_child + 1, rw});
      }
      for (uint32_t i = 0; i < span; ++i) {
        const RowIdx pt = (*cur)[p.slice_off + i];
        if (pos_of_[pt] < mid) {
          if (lw != kNone) (*nxt)[lw++] = pt;
        } else {
          if (rw != kNone) (*nxt)[rw++] = pt;
        }
      }
    }
    pend_.swap(pend_next_);
    std::swap(cur, nxt);
  }
}

void RangeTree::KeyRange(const Layer& layer, double lo, double hi,
                         uint32_t* a, uint32_t* b) const {
  const double* first = keys_.data() + layer.off;
  const double* last = first + layer.count;
  *a = static_cast<uint32_t>(std::lower_bound(first, last, lo) - first);
  *b = static_cast<uint32_t>(std::upper_bound(first, last, hi) - first);
}

void RangeTree::Query(const double* lo, const double* hi,
                      std::vector<RowIdx>* out) const {
  if (layers_.empty()) return;
  QueryLayer(0, lo, hi, out);
}

void RangeTree::QueryBatch(const double* const* lo, const double* const* hi,
                           size_t num_probes, ProbeBatch* out) const {
  SGL_CHECK(dims_ <= kMaxIndexDims);
  GrowWithHeadroom(&out->offsets, num_probes + 1);
  out->items.clear();
  out->offsets[0] = 0;
  double plo[kMaxIndexDims], phi[kMaxIndexDims];
  for (size_t p = 0; p < num_probes; ++p) {
    for (int k = 0; k < dims_; ++k) {
      plo[k] = lo[k][p];
      phi[k] = hi[k][p];
    }
    const size_t before = out->items.size();
    Query(plo, phi, &out->items);
    // Canonical-node outputs are disjoint: the slice is duplicate-free.
    RowIdx* slice = out->items.data() + before;
    EmitAscending(slice, out->items.size() - before, slice, &out->bits);
    out->offsets[p + 1] = static_cast<uint32_t>(out->items.size());
  }
}

size_t RangeTree::Count(const double* lo, const double* hi) const {
  if (layers_.empty()) return 0;
  return CountLayer(0, lo, hi);
}

void RangeTree::QueryLayer(uint32_t li, const double* lo, const double* hi,
                           std::vector<RowIdx>* out) const {
  const Layer& layer = layers_[li];
  const int dim = static_cast<int>(layer.dim);
  uint32_t a, b;
  KeyRange(layer, lo[dim], hi[dim], &a, &b);
  if (a >= b) return;
  if (dim + 1 == dims_) {
    // Last dimension: the [a, b) slice is exactly the answer.
    out->insert(out->end(), items_.begin() + layer.off + a,
                items_.begin() + layer.off + b);
    return;
  }
  if (layer.root == kNone) {
    // Small layer stored without hierarchy: filter remaining dims.
    ScanFilter(layer, a, b, dim + 1, lo, hi, out);
    return;
  }
  QuerySeg(layer, layer.root, a, b, lo, hi, out);
}

void RangeTree::QuerySeg(const Layer& layer, uint32_t ni, uint32_t a,
                         uint32_t b, const double* lo, const double* hi,
                         std::vector<RowIdx>* out) const {
  const SegNode& nd = nodes_[ni];
  if (nd.end <= a || nd.begin >= b) return;
  if (a <= nd.begin && nd.end <= b && nd.sub != kNone) {
    // Canonical node: dim-k constraint satisfied; descend to dim+1.
    QueryLayer(nd.sub, lo, hi, out);
    return;
  }
  if (nd.first_child == kNone) {
    // Leaf interval (possibly partial overlap): the dim-k constraint holds
    // exactly for positions in [max(a,begin), min(b,end)); filter the rest.
    ScanFilter(layer, std::max(a, nd.begin), std::min(b, nd.end),
               static_cast<int>(layer.dim) + 1, lo, hi, out);
    return;
  }
  QuerySeg(layer, nd.first_child, a, b, lo, hi, out);
  QuerySeg(layer, nd.first_child + 1, a, b, lo, hi, out);
}

size_t RangeTree::CountLayer(uint32_t li, const double* lo,
                             const double* hi) const {
  const Layer& layer = layers_[li];
  const int dim = static_cast<int>(layer.dim);
  uint32_t a, b;
  KeyRange(layer, lo[dim], hi[dim], &a, &b);
  if (a >= b) return 0;
  if (dim + 1 == dims_) return b - a;
  if (layer.root == kNone) {
    return ScanFilter(layer, a, b, dim + 1, lo, hi, nullptr);
  }
  return CountSeg(layer, layer.root, a, b, lo, hi);
}

size_t RangeTree::CountSeg(const Layer& layer, uint32_t ni, uint32_t a,
                           uint32_t b, const double* lo,
                           const double* hi) const {
  const SegNode& nd = nodes_[ni];
  if (nd.end <= a || nd.begin >= b) return 0;
  if (a <= nd.begin && nd.end <= b && nd.sub != kNone) {
    return CountLayer(nd.sub, lo, hi);
  }
  if (nd.first_child == kNone) {
    return ScanFilter(layer, std::max(a, nd.begin), std::min(b, nd.end),
                      static_cast<int>(layer.dim) + 1, lo, hi, nullptr);
  }
  return CountSeg(layer, nd.first_child, a, b, lo, hi) +
         CountSeg(layer, nd.first_child + 1, a, b, lo, hi);
}

size_t RangeTree::ScanFilter(const Layer& layer, uint32_t begin, uint32_t end,
                             int from_dim, const double* lo, const double* hi,
                             std::vector<RowIdx>* out) const {
  size_t hits = 0;
  for (uint32_t i = begin; i < end; ++i) {
    const RowIdx p = items_[layer.off + i];
    bool inside = true;
    for (int k = from_dim; k < dims_; ++k) {
      const double c = coords_[static_cast<size_t>(k)][p];
      if (c < lo[k] || c > hi[k]) {
        inside = false;
        break;
      }
    }
    if (inside) {
      ++hits;
      if (out != nullptr) out->push_back(p);
    }
  }
  return hits;
}

size_t RangeTree::MemoryBytes() const {
  size_t bytes = keys_.capacity() * sizeof(double) +
                 items_.capacity() * sizeof(RowIdx) +
                 layers_.capacity() * sizeof(Layer) +
                 nodes_.capacity() * sizeof(SegNode) +
                 pos_of_.capacity() * sizeof(uint32_t) +
                 level_.capacity() * sizeof(RowIdx) +
                 next_level_.capacity() * sizeof(RowIdx) +
                 pend_.capacity() * sizeof(Pending) +
                 pend_next_.capacity() * sizeof(Pending) +
                 tasks_.capacity() * sizeof(uint32_t);
  for (const auto& c : coords_) bytes += c.capacity() * sizeof(double);
  return bytes;
}

size_t RangeTree::TheoreticalBytes(size_t n, int d, size_t entry_bytes) {
  if (n == 0) return 0;
  double logn = std::max(1.0, std::ceil(std::log2(static_cast<double>(n))));
  double factor = 1.0;
  for (int k = 1; k < d; ++k) factor *= logn;
  return static_cast<size_t>(static_cast<double>(n) * factor *
                             static_cast<double>(entry_bytes));
}

}  // namespace sgl
