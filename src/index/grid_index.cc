#include "src/index/grid_index.h"

#include <algorithm>
#include <cmath>

#include "src/common/vec_util.h"
#include "src/vm/kernels.h"

namespace sgl {

GridIndex::GridIndex(int dims, double target_per_cell)
    : dims_(dims), target_per_cell_(target_per_cell) {
  SGL_CHECK(dims >= 1 && dims <= kMaxIndexDims);
  SGL_CHECK(target_per_cell > 0);
  coords_.resize(static_cast<size_t>(dims));
  min_.assign(static_cast<size_t>(dims_), 0);
  max_.assign(static_cast<size_t>(dims_), 0);
  cell_size_.assign(static_cast<size_t>(dims_), 1);
  cells_per_dim_.assign(static_cast<size_t>(dims_), 1);
}

void GridIndex::Build(const std::vector<std::vector<double>>& coords) {
  SGL_CHECK(static_cast<int>(coords.size()) == dims_);
  n_ = coords.empty() ? 0 : coords[0].size();
  for (int k = 0; k < dims_; ++k) {
    SGL_CHECK(coords[static_cast<size_t>(k)].size() == n_);
    // assign() reuses the existing buffer's capacity.
    coords_[static_cast<size_t>(k)].assign(
        coords[static_cast<size_t>(k)].begin(),
        coords[static_cast<size_t>(k)].end());
  }
  keys_.clear();
  BuildCells(nullptr);
}

void GridIndex::Build(std::vector<std::vector<double>>&& coords,
                      std::vector<double>&& keys,
                      const std::vector<RowIdx>* rows) {
  SGL_CHECK(static_cast<int>(coords.size()) == dims_);
  n_ = coords.empty() ? 0 : coords[0].size();
  for (const auto& c : coords) SGL_CHECK(c.size() == n_);
  SGL_CHECK(keys.empty() || keys.size() == n_);
  coords_.swap(coords);
  keys_.swap(keys);
  BuildCells(rows);
}

void GridIndex::BuildCells(const std::vector<RowIdx>* rows) {
  const size_t m = rows != nullptr ? rows->size() : n_;
  auto row_at = [rows](size_t i) {
    return rows != nullptr ? (*rows)[i] : static_cast<RowIdx>(i);
  };
  cell_items_.clear();
  num_parts_ = 1;
  key_check_ = false;
  // A row with a NaN coordinate is in no box (`v >= lo && v <= hi` is
  // false for NaN), so it is not indexed: cell_of_ marks it kNoCell.
  cell_of_.assign(m, 0);
  size_t indexed = 0;
  for (size_t i = 0; i < m; ++i) {
    for (int k = 0; k < dims_; ++k) {
      if (std::isnan(coords_[static_cast<size_t>(k)][row_at(i)])) {
        cell_of_[i] = kNoCell;
        break;
      }
    }
    indexed += cell_of_[i] != kNoCell ? 1 : 0;
  }
  if (indexed == 0) {
    spatial_cells_ = 1;
    cell_start_.assign(2, 0);
    std::fill(min_.begin(), min_.end(), 0.0);
    std::fill(max_.begin(), max_.end(), 0.0);
    std::fill(cell_size_.begin(), cell_size_.end(), 1.0);
    std::fill(cells_per_dim_.begin(), cells_per_dim_.end(), 1);
    return;
  }

  for (int k = 0; k < dims_; ++k) {
    const std::vector<double>& col = coords_[static_cast<size_t>(k)];
    double lo = HUGE_VAL, hi = -HUGE_VAL;
    for (size_t i = 0; i < m; ++i) {
      if (cell_of_[i] == kNoCell) continue;
      const double v = col[row_at(i)];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    min_[static_cast<size_t>(k)] = lo;
    max_[static_cast<size_t>(k)] = hi;
  }
  // Aim for indexed / target_per_cell spatial cells, spread evenly across
  // dims.
  double total_cells =
      std::max(1.0, static_cast<double>(indexed) / target_per_cell_);
  int64_t per_dim = std::max<int64_t>(
      1, static_cast<int64_t>(std::floor(
             std::pow(total_cells, 1.0 / static_cast<double>(dims_)))));
  spatial_cells_ = 1;
  for (int k = 0; k < dims_; ++k) {
    cells_per_dim_[static_cast<size_t>(k)] = per_dim;
    double extent =
        max_[static_cast<size_t>(k)] - min_[static_cast<size_t>(k)];
    cell_size_[static_cast<size_t>(k)] =
        extent > 0 ? extent / static_cast<double>(per_dim) : 1.0;
    spatial_cells_ *= static_cast<size_t>(per_dim);
  }

  // Key partitions: cell_of_[i] first holds indexed row i's partition.
  // Keys group by IEEE equality, so -0.0 joins 0.0; NaN != NaN, so NaN
  // keys are matched by isnan and share one partition (keyed NaN, which
  // every probe walks since NaN != q).
  auto same_key = [](double a, double b) {
    return a == b || (std::isnan(a) && std::isnan(b));
  };
  if (!keys_.empty()) {
    num_parts_ = 0;
    for (size_t i = 0; i < m; ++i) {
      if (cell_of_[i] == kNoCell) continue;
      const double key = keys_[row_at(i)];
      int p = 0;
      while (p < num_parts_ && !same_key(part_key_[p], key)) ++p;
      if (p == kMaxKeyPartitions) {
        key_check_ = true;
        break;
      }
      if (p == num_parts_) part_key_[num_parts_++] = key;
      cell_of_[i] = static_cast<uint32_t>(p);
    }
    if (key_check_) {
      num_parts_ = 1;
      for (uint32_t& c : cell_of_) {
        if (c != kNoCell) c = 0;
      }
    }
  }
  const size_t num_cells = static_cast<size_t>(num_parts_) * spatial_cells_;

  // Counting sort points into cells (CSR), partition-major. All scratch is
  // member-owned and keeps its high-water capacity across rebuilds.
  int64_t cc[kMaxIndexDims];
  cell_start_.assign(num_cells + 1, 0);
  for (size_t i = 0; i < m; ++i) {
    if (cell_of_[i] == kNoCell) continue;
    const RowIdx r = row_at(i);
    for (int k = 0; k < dims_; ++k) {
      cc[k] = CellCoord(k, coords_[static_cast<size_t>(k)][r]);
    }
    const uint32_t cell =
        static_cast<uint32_t>(cell_of_[i] * spatial_cells_ + CellIndex(cc));
    cell_of_[i] = cell;
    ++cell_start_[cell + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_items_.resize(indexed);
  cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
  for (size_t i = 0; i < m; ++i) {
    if (cell_of_[i] == kNoCell) continue;
    cell_items_[cursor_[cell_of_[i]]++] = row_at(i);
  }
}

int64_t GridIndex::CellCoord(int dim, double v) const {
  size_t k = static_cast<size_t>(dim);
  const double rel = (v - min_[k]) / cell_size_[k];
  // Clamp before the cast, which is undefined for ±inf, NaN and doubles
  // beyond int64's range. NaN lands in cell 0 (a NaN box edge never gets
  // here: Query and QueryBatch treat it as an empty box).
  const double last = static_cast<double>(cells_per_dim_[k] - 1);
  if (!(rel > 0)) return 0;
  if (rel >= last) return cells_per_dim_[k] - 1;
  return static_cast<int64_t>(rel);
}

size_t GridIndex::CellIndex(const int64_t* cc) const {
  size_t idx = 0;
  for (int k = 0; k < dims_; ++k) {
    idx = idx * static_cast<size_t>(cells_per_dim_[static_cast<size_t>(k)]) +
          static_cast<size_t>(cc[k]);
  }
  return idx;
}

void GridIndex::Query(const double* lo, const double* hi,
                      std::vector<RowIdx>* out) const {
  if (cell_items_.empty()) return;
  int64_t c_lo[kMaxIndexDims];
  int64_t c_hi[kMaxIndexDims];
  for (int k = 0; k < dims_; ++k) {
    if (!(lo[k] <= hi[k])) return;  // inverted or NaN edge: empty box
    c_lo[k] = CellCoord(k, lo[k]);
    c_hi[k] = CellCoord(k, hi[k]);
  }
  // Iterate the (hyper)rectangle of cells in every partition.
  for (int part = 0; part < num_parts_; ++part) {
    const size_t base = static_cast<size_t>(part) * spatial_cells_;
    int64_t cc[kMaxIndexDims];
    std::copy(c_lo, c_lo + dims_, cc);
    for (;;) {
      size_t cell = base + CellIndex(cc);
      for (uint32_t i = cell_start_[cell]; i < cell_start_[cell + 1]; ++i) {
        RowIdx p = cell_items_[i];
        bool inside = true;
        for (int k = 0; k < dims_; ++k) {
          double v = coords_[static_cast<size_t>(k)][p];
          if (!(v >= lo[k] && v <= hi[k])) {
            inside = false;
            break;
          }
        }
        if (inside) out->push_back(p);
      }
      // Odometer increment over [c_lo, c_hi].
      int k = dims_ - 1;
      for (; k >= 0; --k) {
        if (++cc[k] <= c_hi[k]) break;
        cc[k] = c_lo[k];
      }
      if (k < 0) break;
    }
  }
}

void GridIndex::QueryBatch(const double* const* lo, const double* const* hi,
                           const double* keys, size_t num_probes,
                           ProbeBatch* out) const {
  GrowWithHeadroom(&out->offsets, num_probes + 1);
  out->items.clear();
  out->offsets[0] = 0;
  if (cell_items_.empty() || num_probes == 0) {
    std::fill(out->offsets.begin(), out->offsets.end(), 0u);
    return;
  }
  SGL_DCHECK(keys == nullptr || !keys_.empty());
  if (keys_.empty()) keys = nullptr;

  // Visit probes grouped by their box's first walked cell so consecutive
  // probes walk overlapping CSR runs; ties keep probe order (stable by key
  // since the probe id is the low half). Inverted boxes, and probes whose
  // key equals every partition's, sort as cell 0 and emit nothing; so do
  // boxes with a NaN edge, which hold no row.
  GrowWithHeadroom(&out->visit_keys, num_probes);
  for (size_t p = 0; p < num_probes; ++p) {
    uint64_t cell = 0;
    bool empty = false;
    for (int k = 0; k < dims_; ++k) {
      if (!(lo[k][p] <= hi[k][p])) {
        empty = true;
        break;
      }
    }
    int part = 0;
    while (part < num_parts_ &&
           !Walks(part, keys != nullptr ? keys + p : nullptr)) {
      ++part;
    }
    if (!empty && part < num_parts_) {
      int64_t cc[kMaxIndexDims];
      for (int k = 0; k < dims_; ++k) cc[k] = CellCoord(k, lo[k][p]);
      cell = static_cast<uint64_t>(static_cast<size_t>(part) * spatial_cells_ +
                                   CellIndex(cc));
    }
    out->visit_keys[p] = (cell << 32) | static_cast<uint64_t>(p);
  }
  std::sort(out->visit_keys.begin(), out->visit_keys.end());

  const VmKernels& kern = GetVmKernels();
  const double* cols[kMaxIndexDims];
  for (int k = 0; k < dims_; ++k) cols[k] = coords_[static_cast<size_t>(k)].data();

  // Emit candidates in visit order into tmp_items; tmp_start[v] marks each
  // visit's slice so the scatter below can rebuild probe order.
  GrowWithHeadroom(&out->tmp_start, num_probes + 1);
  size_t tmp_n = 0;
  for (size_t v = 0; v < num_probes; ++v) {
    const size_t p = static_cast<size_t>(out->visit_keys[v] & 0xffffffffu);
    out->tmp_start[v] = static_cast<uint32_t>(tmp_n);
    if (v + 1 < num_probes) {
      // Pull the next probe's first CSR span toward the cache while this
      // probe filters its candidates.
      const size_t nc = static_cast<size_t>(out->visit_keys[v + 1] >> 32);
      __builtin_prefetch(cell_items_.data() + cell_start_[nc]);
    }
    double plo[kMaxIndexDims], phi[kMaxIndexDims];
    bool empty = false;
    for (int k = 0; k < dims_; ++k) {
      plo[k] = lo[k][p];
      phi[k] = hi[k][p];
      if (!(plo[k] <= phi[k])) empty = true;
    }
    if (empty) continue;
    int64_t c_lo[kMaxIndexDims], c_hi[kMaxIndexDims];
    for (int k = 0; k < dims_; ++k) {
      c_lo[k] = CellCoord(k, plo[k]);
      c_hi[k] = CellCoord(k, phi[k]);
    }
    const double* q = keys != nullptr ? keys + p : nullptr;
    const size_t probe_start = tmp_n;
    // Per walked partition: odometer over every dim but the last; the last
    // dim's cell run [c_lo, c_hi] is one contiguous CSR span.
    const int last = dims_ - 1;
    const size_t span_cells = static_cast<size_t>(c_hi[last] - c_lo[last]);
    for (int part = 0; part < num_parts_; ++part) {
      if (!Walks(part, q)) continue;
      const size_t base = static_cast<size_t>(part) * spatial_cells_;
      int64_t cc[kMaxIndexDims];
      std::copy(c_lo, c_lo + dims_, cc);
      for (;;) {
        cc[last] = c_lo[last];
        const size_t first_cell = base + CellIndex(cc);
        const uint32_t a = cell_start_[first_cell];
        const uint32_t b = cell_start_[first_cell + span_cells + 1];
        if (b > a) {
          const size_t len = b - a;
          GrowWithHeadroom(&out->tmp_items, tmp_n + len);
          tmp_n += kern.range_filter(cell_items_.data() + a, len, cols, dims_,
                                     plo, phi, out->tmp_items.data() + tmp_n);
        }
        int k = last - 1;
        for (; k >= 0; --k) {
          if (++cc[k] <= c_hi[k]) break;
          cc[k] = c_lo[k];
        }
        if (k < 0) break;
      }
    }
    if (q != nullptr && key_check_) {
      // Over the partition cap: drop the in-box rows whose key is not
      // `!=` the probe's.
      RowIdx* items = out->tmp_items.data();
      size_t kept = probe_start;
      for (size_t t = probe_start; t < tmp_n; ++t) {
        items[kept] = items[t];
        kept += keys_[items[t]] != *q ? 1 : 0;
      }
      tmp_n = kept;
    }
  }
  out->tmp_start[num_probes] = static_cast<uint32_t>(tmp_n);

  // Scatter visit-order slices back into probe-order CSR, each emitted in
  // ascending row order to match the per-box Query contract. A probe's
  // cells are disjoint, across partitions too, so its slice is
  // duplicate-free.
  for (size_t p = 0; p <= num_probes; ++p) out->offsets[p] = 0;
  for (size_t v = 0; v < num_probes; ++v) {
    const size_t p = static_cast<size_t>(out->visit_keys[v] & 0xffffffffu);
    out->offsets[p + 1] = out->tmp_start[v + 1] - out->tmp_start[v];
  }
  for (size_t p = 0; p < num_probes; ++p) out->offsets[p + 1] += out->offsets[p];
  GrowWithHeadroom(&out->items, tmp_n);
  for (size_t v = 0; v < num_probes; ++v) {
    const size_t p = static_cast<size_t>(out->visit_keys[v] & 0xffffffffu);
    const uint32_t a = out->tmp_start[v];
    const uint32_t b = out->tmp_start[v + 1];
    EmitAscending(out->tmp_items.data() + a, b - a,
                  out->items.data() + out->offsets[p], &out->bits);
  }
}

size_t GridIndex::MemoryBytes() const {
  size_t bytes = cell_start_.capacity() * sizeof(uint32_t) +
                 cell_items_.capacity() * sizeof(RowIdx) +
                 keys_.capacity() * sizeof(double) +
                 cell_of_.capacity() * sizeof(uint32_t) +
                 cursor_.capacity() * sizeof(uint32_t);
  for (const auto& c : coords_) bytes += c.capacity() * sizeof(double);
  return bytes;
}

}  // namespace sgl
