// Grid pathfinding (§2.2: "AI planning, such as pathfinding" is an update
// component like the physics engine).
//
// GridMap is the walled grid the pathfinder plans over. GoalField is its
// search, set-at-a-time: one reverse Dijkstra from a goal cell gives every
// map cell its next step toward that goal, so all the entities heading
// there, wherever they stand, read their steps from one search (Treuille,
// Cooper & Popović, "Continuum Crowds", SIGGRAPH 2006). The asynchronous
// pathfinder (src/async/async_pathfind.h) runs it on job workers, one job
// per goal.

#ifndef SGL_UPDATE_PATHFIND_H_
#define SGL_UPDATE_PATHFIND_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace sgl {

/// Occupancy grid over the world rectangle.
class GridMap {
 public:
  GridMap(int width, int height, double cell_size)
      : width_(width), height_(height), cell_(cell_size),
        blocked_(static_cast<size_t>(width * height), 0) {}

  int width() const { return width_; }
  int height() const { return height_; }
  double cell_size() const { return cell_; }

  void SetBlocked(int cx, int cy, bool blocked) {
    blocked_[Index(cx, cy)] = blocked ? 1 : 0;
  }
  bool Blocked(int cx, int cy) const {
    if (cx < 0 || cy < 0 || cx >= width_ || cy >= height_) return true;
    return blocked_[Index(cx, cy)] != 0;
  }

  /// Flooring, not truncation: a coordinate just left of / below the map
  /// must land in cell -1 (out of bounds, Blocked), not be folded into
  /// cell 0.
  int CellX(double x) const {
    return static_cast<int>(std::floor(x / cell_));
  }
  int CellY(double y) const {
    return static_cast<int>(std::floor(y / cell_));
  }
  double CenterX(int cx) const { return (cx + 0.5) * cell_; }
  double CenterY(int cy) const { return (cy + 0.5) * cell_; }

 private:
  size_t Index(int cx, int cy) const {
    return static_cast<size_t>(cy) * static_cast<size_t>(width_) +
           static_cast<size_t>(cx);
  }
  int width_;
  int height_;
  double cell_;
  std::vector<uint8_t> blocked_;
};

/// Fixed-point cost of one 4-neighbour step; crowd occupancy only ever
/// adds on top.
constexpr uint32_t kStepCost = 16;

/// GoalField's search state: distances and a bucket queue (Dial's
/// algorithm: step costs are small integers, so cells queue by distance
/// modulo the largest step cost plus one). Keeps its capacity, so once Fit
/// has sized it, searches allocate nothing.
struct FieldScratch {
  std::vector<uint32_t> dist;
  std::vector<int32_t> head;    ///< per bucket: last queued entry, or -1
  std::vector<uint64_t> queue;  ///< (previous entry in bucket << 32) | cell

  /// Sizes the arrays for an `n`-cell map searched with `penalty_units`;
  /// call before the first search.
  void Fit(size_t n, int penalty_units);
};

/// The goal field of cell `goal` (y * width + x): a reverse Dijkstra from
/// the goal over the open cells, 4-connected, where a step into cell c
/// costs kStepCost + penalty_units * occ[c] (`occ` may be null). Writes
/// next[c] for every map cell c: the open neighbour d with the least step
/// cost into d plus d's distance, ties to the lower cell index. The goal,
/// and every cell with no path to it, gets itself. Following next from
/// any other cell walks a least-cost path to the goal. Deterministic: the
/// distances are unique, and every neighbour that attains a cell's
/// distance offers itself to that cell once, whatever the queue order.
void GoalField(const GridMap& map, const uint8_t* occ, int penalty_units,
               uint32_t goal, FieldScratch* s, uint64_t* next);

}  // namespace sgl

#endif  // SGL_UPDATE_PATHFIND_H_
