// A* grid pathfinding update component (§2.2: "AI planning, such as
// pathfinding" is an update component like the physics engine).
//
// Scripts express *intent* by assigning goal coordinates to two effect
// fields; the pathfinder owns two waypoint state fields and writes the next
// step toward each goal along a shortest obstacle-avoiding path. Per-tick
// (start-cell, goal-cell) memoization exploits the set-at-a-time batch: many
// NPCs heading to the same place share one search. The search itself,
// CrowdAStar, is also the one the asynchronous pathfinder
// (src/async/async_pathfind.h) runs on job workers.

#ifndef SGL_UPDATE_PATHFIND_H_
#define SGL_UPDATE_PATHFIND_H_

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/update/update_component.h"

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

/// Fixed-point step cost of CrowdAStar: the admissible manhattan heuristic
/// scales by the base step, crowd occupancy only ever adds on top.
constexpr int32_t kStepCost = 16;

/// A* search state: epoch-stamped g/parent arrays (no per-search memset)
/// and a manual binary heap over pooled storage. Everything keeps its
/// high-water capacity, so steady-state searches allocate nothing.
struct PathfindScratch {
  std::vector<int32_t> g;
  std::vector<int32_t> parent;
  std::vector<uint32_t> stamp;
  std::vector<uint64_t> heap;  ///< (f << 32) | cell, min-heap
  uint32_t epoch = 0;

  /// Sizes the arrays for an `n`-cell map; call before the first search.
  void Fit(size_t n);
};

/// 4-connected A* with an optional per-cell additive occupancy cost: a step
/// into cell c costs kStepCost + penalty_units * occ[c] (`occ` may be
/// null). Deterministic: the heap orders by the full (f, cell) word and
/// stale entries are skipped, so expansion order is a pure function of the
/// inputs. Appends the path's cell indices (y * width + x, start through
/// goal inclusive) to `path`; returns false (path untouched) if
/// unreachable.
bool CrowdAStar(const GridMap& map, const uint8_t* occ, int penalty_units,
                int sx, int sy, int gx, int gy, PathfindScratch* s,
                std::vector<uint64_t>* path);

/// CrowdAStar with no occupancy cost, as (x, y) cells including start and
/// goal; empty if unreachable. Allocates a scratch per call: for tests and
/// one-off queries.
std::vector<std::pair<int, int>> AStar(const GridMap& map, int sx, int sy,
                                       int gx, int gy);

struct PathfinderConfig {
  std::string cls;
  std::string x = "x", y = "y";          ///< read-only position state
  std::string goal_x = "goal_x";         ///< effect: intended destination
  std::string goal_y = "goal_y";
  std::string waypoint_x = "waypoint_x"; ///< owned: next step to take
  std::string waypoint_y = "waypoint_y";
};

struct PathfinderStats {
  int64_t searches = 0;       ///< A* invocations
  int64_t cache_hits = 0;     ///< per-tick memo hits
  int64_t unreachable = 0;    ///< goals with no path
};

class PathfinderComponent : public UpdateComponent {
 public:
  static StatusOr<std::unique_ptr<PathfinderComponent>> Create(
      const Catalog& catalog, const PathfinderConfig& config, GridMap map);

  const std::string& name() const override { return name_; }
  std::vector<std::pair<ClassId, FieldIdx>> OwnedFields() const override;
  void Update(World* world, Tick tick) override;

  const GridMap& map() const { return map_; }
  const PathfinderStats& total() const { return total_; }

 private:
  PathfinderComponent() : map_(1, 1, 1.0) {}

  std::string name_ = "pathfinder";
  PathfinderConfig config_;
  GridMap map_;
  ClassId cls_ = kInvalidClass;
  FieldIdx x_ = kInvalidField, y_ = kInvalidField;
  FieldIdx goal_x_ = kInvalidField, goal_y_ = kInvalidField;
  FieldIdx wx_ = kInvalidField, wy_ = kInvalidField;
  PathfindScratch scratch_;     ///< sized to the map at Create
  std::vector<uint64_t> path_;  ///< reused search output
  PathfinderStats total_;
};

}  // namespace sgl

#endif  // SGL_UPDATE_PATHFIND_H_
