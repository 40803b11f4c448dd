#include "src/update/pathfind.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

namespace sgl {

void PathfindScratch::Fit(size_t n) {
  g.resize(n);
  parent.resize(n);
  stamp.assign(n, 0);
  epoch = 0;
  // Pre-size the open list so per-search frontiers never ratchet its
  // capacity (a cell re-enters at most once per improving neighbor).
  heap.reserve(std::min<size_t>(4 * n, size_t{1} << 16));
}

bool CrowdAStar(const GridMap& map, const uint8_t* occ, int penalty_units,
                int sx, int sy, int gx, int gy, PathfindScratch* s,
                std::vector<uint64_t>* path) {
  if (map.Blocked(sx, sy) || map.Blocked(gx, gy)) return false;
  const int w = map.width();
  const int h = map.height();
  const size_t n = static_cast<size_t>(w) * static_cast<size_t>(h);
  SGL_CHECK(s->g.size() >= n && "scratch made for a smaller map");
  ++s->epoch;
  if (s->epoch == 0) {  // stamp wrap: one full clear per 2^32 searches
    std::fill(s->stamp.begin(), s->stamp.end(), 0);
    s->epoch = 1;
  }
  const uint32_t ep = s->epoch;
  auto idx = [w](int x, int y) { return y * w + x; };
  auto heuristic = [&](int x, int y) {
    return kStepCost * (std::abs(x - gx) + std::abs(y - gy));
  };
  s->heap.clear();
  const int start = idx(sx, sy);
  s->g[static_cast<size_t>(start)] = 0;
  s->parent[static_cast<size_t>(start)] = -1;
  s->stamp[static_cast<size_t>(start)] = ep;
  s->heap.push_back((static_cast<uint64_t>(heuristic(sx, sy)) << 32) |
                    static_cast<uint32_t>(start));
  const int dx[4] = {1, -1, 0, 0};
  const int dy[4] = {0, 0, 1, -1};
  while (!s->heap.empty()) {
    std::pop_heap(s->heap.begin(), s->heap.end(), std::greater<>());
    const uint64_t top = s->heap.back();
    s->heap.pop_back();
    const int cell = static_cast<int>(top & 0xffffffffu);
    const int32_t f = static_cast<int32_t>(top >> 32);
    const int cx = cell % w;
    const int cy = cell / w;
    const int32_t gc = s->g[static_cast<size_t>(cell)];
    if (f > gc + heuristic(cx, cy)) continue;  // stale entry
    if (cx == gx && cy == gy) {
      const size_t first = path->size();
      for (int step = cell; step != -1;
           step = s->parent[static_cast<size_t>(step)]) {
        path->push_back(static_cast<uint64_t>(step));
      }
      std::reverse(path->begin() + static_cast<ptrdiff_t>(first),
                   path->end());
      return true;
    }
    for (int k = 0; k < 4; ++k) {
      const int nx = cx + dx[k];
      const int ny = cy + dy[k];
      if (map.Blocked(nx, ny)) continue;
      const int ncell = idx(nx, ny);
      int32_t step_cost = kStepCost;
      if (occ != nullptr) {
        step_cost += penalty_units * occ[static_cast<size_t>(ncell)];
      }
      const int32_t ng = gc + step_cost;
      const size_t nc = static_cast<size_t>(ncell);
      if (s->stamp[nc] != ep || ng < s->g[nc]) {
        s->stamp[nc] = ep;
        s->g[nc] = ng;
        s->parent[nc] = cell;
        s->heap.push_back(
            (static_cast<uint64_t>(ng + heuristic(nx, ny)) << 32) |
            static_cast<uint32_t>(ncell));
        std::push_heap(s->heap.begin(), s->heap.end(), std::greater<>());
      }
    }
  }
  return false;
}

std::vector<std::pair<int, int>> AStar(const GridMap& map, int sx, int sy,
                                       int gx, int gy) {
  PathfindScratch scratch;
  scratch.Fit(static_cast<size_t>(map.width()) *
              static_cast<size_t>(map.height()));
  std::vector<uint64_t> cells;
  std::vector<std::pair<int, int>> path;
  if (!CrowdAStar(map, nullptr, 0, sx, sy, gx, gy, &scratch, &cells)) {
    return path;
  }
  const int w = map.width();
  for (uint64_t c : cells) {
    path.emplace_back(static_cast<int>(c) % w, static_cast<int>(c) / w);
  }
  return path;
}

StatusOr<std::unique_ptr<PathfinderComponent>> PathfinderComponent::Create(
    const Catalog& catalog, const PathfinderConfig& config, GridMap map) {
  auto comp = std::unique_ptr<PathfinderComponent>(new PathfinderComponent());
  comp->config_ = config;
  comp->map_ = std::move(map);
  comp->cls_ = catalog.Find(config.cls);
  if (comp->cls_ == kInvalidClass) {
    return Status::NotFound("pathfinder: class '" + config.cls +
                            "' not found");
  }
  const ClassDef& def = catalog.Get(comp->cls_);
  auto state_num = [&](const std::string& field, FieldIdx* out) -> Status {
    *out = def.FindState(field);
    if (*out == kInvalidField || !def.state_field(*out).type.is_number()) {
      return Status::NotFound("pathfinder: numeric state field '" +
                              config.cls + "." + field + "' not found");
    }
    return Status::OK();
  };
  auto effect_num = [&](const std::string& field, FieldIdx* out) -> Status {
    *out = def.FindEffect(field);
    if (*out == kInvalidField || !def.effect_field(*out).type.is_number()) {
      return Status::NotFound("pathfinder: numeric effect field '" +
                              config.cls + "." + field + "' not found");
    }
    return Status::OK();
  };
  SGL_RETURN_IF_ERROR(state_num(config.x, &comp->x_));
  SGL_RETURN_IF_ERROR(state_num(config.y, &comp->y_));
  SGL_RETURN_IF_ERROR(effect_num(config.goal_x, &comp->goal_x_));
  SGL_RETURN_IF_ERROR(effect_num(config.goal_y, &comp->goal_y_));
  SGL_RETURN_IF_ERROR(state_num(config.waypoint_x, &comp->wx_));
  SGL_RETURN_IF_ERROR(state_num(config.waypoint_y, &comp->wy_));
  comp->scratch_.Fit(static_cast<size_t>(comp->map_.width()) *
                     static_cast<size_t>(comp->map_.height()));
  return comp;
}

std::vector<std::pair<ClassId, FieldIdx>> PathfinderComponent::OwnedFields()
    const {
  return {{cls_, wx_}, {cls_, wy_}};
}

void PathfinderComponent::Update(World* world, Tick tick) {
  (void)tick;
  EntityTable& table = world->table(cls_);
  const EffectBuffer& effects = world->effects(cls_);
  const size_t n = table.size();
  if (n == 0) return;
  ConstNumberColumn x = table.Num(x_);
  ConstNumberColumn y = table.Num(y_);
  NumberColumn wx = table.Num(wx_);
  NumberColumn wy = table.Num(wy_);

  // Per-tick memo: (start cell, goal cell) -> next waypoint cell.
  std::map<std::tuple<int, int, int, int>, std::pair<int, int>> memo;

  for (size_t i = 0; i < n; ++i) {
    RowIdx r = static_cast<RowIdx>(i);
    if (!effects.Assigned(goal_x_, r) || !effects.Assigned(goal_y_, r)) {
      continue;  // no intent: waypoint untouched
    }
    double gx_pos = effects.FinalNumber(goal_x_, r);
    double gy_pos = effects.FinalNumber(goal_y_, r);
    int sx = map_.CellX(x[i]);
    int sy = map_.CellY(y[i]);
    int gx = map_.CellX(gx_pos);
    int gy = map_.CellY(gy_pos);
    auto key = std::make_tuple(sx, sy, gx, gy);
    auto it = memo.find(key);
    std::pair<int, int> next;
    if (it != memo.end()) {
      next = it->second;
      ++total_.cache_hits;
    } else {
      path_.clear();
      ++total_.searches;
      if (!CrowdAStar(map_, nullptr, 0, sx, sy, gx, gy, &scratch_, &path_)) {
        ++total_.unreachable;
        next = {sx, sy};  // stay put
      } else {
        const int cell = static_cast<int>(path_[path_.size() > 1 ? 1 : 0]);
        next = {cell % map_.width(), cell / map_.width()};
      }
      memo[key] = next;
    }
    if (next.first == gx && next.second == gy) {
      // Final cell: head to the exact goal position, not the cell center.
      wx.at(i) = gx_pos;
      wy.at(i) = gy_pos;
    } else {
      wx.at(i) = map_.CenterX(next.first);
      wy.at(i) = map_.CenterY(next.second);
    }
  }
}

}  // namespace sgl
