#include "src/async/async_pathfind.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/bin_io.h"

namespace sgl {

namespace {

/// A worker's (or the barrier's drain's) goal-field search state.
struct FieldJobScratch : JobScratch {
  FieldScratch search;
};

}  // namespace

StatusOr<std::unique_ptr<AsyncPathfindComponent>>
AsyncPathfindComponent::Create(const Catalog& catalog,
                               const AsyncPathfinderConfig& config,
                               GridMap map, JobService* service) {
  SGL_CHECK(service != nullptr);
  auto comp =
      std::unique_ptr<AsyncPathfindComponent>(new AsyncPathfindComponent());
  comp->config_ = config;
  comp->map_ = std::move(map);
  comp->service_ = service;
  // Any positive penalty must survive fixed-point quantization, or
  // sub-1/16 values would silently disable the crowd-aware path.
  comp->penalty_units_ =
      config.crowd_penalty > 0
          ? std::max(1, static_cast<int>(
                            std::lround(config.crowd_penalty * kStepCost)))
          : 0;
  comp->cls_ = catalog.Find(config.cls);
  if (comp->cls_ == kInvalidClass) {
    return Status::NotFound("async_pathfind: class '" + config.cls +
                            "' not found");
  }
  const ClassDef& def = catalog.Get(comp->cls_);
  auto state_num = [&](const std::string& field, FieldIdx* out) -> Status {
    *out = def.FindState(field);
    if (*out == kInvalidField || !def.state_field(*out).type.is_number()) {
      return Status::NotFound("async_pathfind: numeric state field '" +
                              config.cls + "." + field + "' not found");
    }
    return Status::OK();
  };
  auto effect_num = [&](const std::string& field, FieldIdx* out) -> Status {
    *out = def.FindEffect(field);
    if (*out == kInvalidField || !def.effect_field(*out).type.is_number()) {
      return Status::NotFound("async_pathfind: numeric effect field '" +
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

  comp->goal_slot_.assign(comp->cells(), -1);
  comp->client_id_ = service->RegisterClient(comp.get());
  return comp;
}

std::vector<std::pair<ClassId, FieldIdx>>
AsyncPathfindComponent::OwnedFields() const {
  return {{cls_, wx_}, {cls_, wy_}};
}

int32_t AsyncPathfindComponent::AddGoal(uint32_t cell) {
  size_t slot = 0;
  while (slot < goals_.size() && goals_[slot].flags != 0) ++slot;
  if (slot == goals_.size()) {
    goals_.emplace_back();
    goals_.back().next.resize(cells());
  }
  Goal& goal = goals_[slot];
  goal.cell = cell;
  goal.flags = 0;
  goal.last_used = 0;
  goal.installed = 0;
  goal_slot_[cell] = static_cast<int32_t>(slot);
  return static_cast<int32_t>(slot);
}

void AsyncPathfindComponent::Submit(World* world, Goal* goal, Tick tick,
                                    SnapshotView** snap) {
  if (penalty_units_ > 0 && *snap == nullptr) {
    // One capture shared by every job submitted this tick.
    *snap = service_->AcquireSnapshot();
    const FieldIdx fields[2] = {x_, y_};
    (*snap)->Capture(*world, cls_, fields, 2,
                     static_cast<uint64_t>(tick));
  }
  const uint64_t args[4] = {goal->cell, 0, 0, 0};
  service_->Submit(client_id_, goal->cell, args, *snap, config_.latency_ticks,
                   tick);
  goal->flags |= kInFlight;
  ++total_.submitted;
}

void AsyncPathfindComponent::Update(World* world, Tick tick) {
  EntityTable& table = world->table(cls_);
  const EffectBuffer& effects = world->effects(cls_);
  const size_t n = table.size();
  ConstNumberColumn x = table.Num(x_);
  ConstNumberColumn y = table.Num(y_);
  NumberColumn wx = table.Num(wx_);
  NumberColumn wy = table.Num(wy_);
  const int w = map_.width();
  const int h = map_.height();
  SnapshotView* snap = nullptr;
  auto hold = [&](size_t i) {  // waypoint = current position
    wx.at(i) = x[i];
    wy.at(i) = y[i];
  };

  for (size_t i = 0; i < n; ++i) {
    const RowIdx r = static_cast<RowIdx>(i);
    if (!effects.Assigned(goal_x_, r) || !effects.Assigned(goal_y_, r)) {
      continue;  // no intent: waypoint untouched
    }
    const double gx_pos = effects.FinalNumber(goal_x_, r);
    const double gy_pos = effects.FinalNumber(goal_y_, r);
    const int sx = map_.CellX(x[i]);
    const int sy = map_.CellY(y[i]);
    const int gx = map_.CellX(gx_pos);
    const int gy = map_.CellY(gy_pos);
    if (sx < 0 || sy < 0 || sx >= w || sy >= h || gx < 0 || gy < 0 ||
        gx >= w || gy >= h) {
      ++total_.unreachable;  // off-map request
      hold(i);
      continue;
    }
    if (sx == gx && sy == gy) {
      // Final cell: head to the exact goal position, no field needed.
      wx.at(i) = gx_pos;
      wy.at(i) = gy_pos;
      continue;
    }
    const uint32_t goal_cell = static_cast<uint32_t>(gy * w + gx);
    int32_t slot = goal_slot_[goal_cell];
    if (slot < 0) {
      slot = AddGoal(goal_cell);
      Submit(world, &goals_[static_cast<size_t>(slot)], tick, &snap);
    }
    Goal& goal = goals_[static_cast<size_t>(slot)];
    goal.last_used = tick;
    if ((goal.flags & kReady) == 0) {
      ++total_.stalls;  // the goal's first field is still out
      hold(i);
      continue;
    }
    const uint32_t next = goal.next[static_cast<size_t>(sy * w + sx)];
    const int nx = static_cast<int>(next % static_cast<uint32_t>(w));
    const int ny = static_cast<int>(next / static_cast<uint32_t>(w));
    if (nx == sx && ny == sy) {
      // No path from here (the map or a blocked start cell): hold. A
      // later field may find one if the map opens up.
      ++total_.unreachable;
      hold(i);
      continue;
    }
    if (map_.Blocked(nx, ny)) {
      // The map changed under the installed field: hold, and get a fresh
      // field unless one is already on its way.
      ++total_.dropped_stale;
      if ((goal.flags & kInFlight) == 0) Submit(world, &goal, tick, &snap);
      hold(i);
      continue;
    }
    ++total_.cache_hits;
    if (nx == gx && ny == gy) {
      wx.at(i) = gx_pos;  // final step: exact goal position
      wy.at(i) = gy_pos;
    } else {
      wx.at(i) = map_.CenterX(nx);
      wy.at(i) = map_.CenterY(ny);
    }
  }

  // Evict the goals unused for the TTL (one with a job out survives: its
  // job will install) and find the installed field to refresh.
  Goal* oldest = nullptr;
  for (Goal& goal : goals_) {
    if (goal.flags == 0) continue;
    if ((goal.flags & kInFlight) == 0 && config_.result_ttl_ticks > 0 &&
        tick - goal.last_used > config_.result_ttl_ticks) {
      goal_slot_[goal.cell] = -1;
      goal.flags = 0;
      ++total_.evicted;
      continue;
    }
    if (goal.flags == kReady &&
        (oldest == nullptr || goal.installed < oldest->installed ||
         (goal.installed == oldest->installed && goal.cell < oldest->cell))) {
      oldest = &goal;
    }
  }
  if (penalty_units_ > 0 && oldest != nullptr) {
    // The crowd moved since this field's snapshot: plan on a fresh one.
    Submit(world, oldest, tick, &snap);
    ++total_.refreshes;
  }
  service_->ReleaseUnused(snap);
}

void AsyncPathfindComponent::Run(const SnapshotView* snap, JobSlot* job,
                                 JobScratch* scratch) {
  const uint8_t* occ = nullptr;
  if (snap != nullptr && penalty_units_ > 0) {
    const int w = map_.width();
    const int h = map_.height();
    // Built once per snapshot by whichever worker gets here first; a pure
    // function of the captured columns, so the content is deterministic.
    const std::vector<uint8_t>& grid =
        const_cast<SnapshotView*>(snap)->Derived(
            [&](std::vector<uint8_t>* out) {
              out->assign(cells(), 0);
              const std::vector<double>& xs = snap->num(0);
              const std::vector<double>& ys = snap->num(1);
              for (size_t i = 0; i < snap->rows(); ++i) {
                const int cx = map_.CellX(xs[i]);
                const int cy = map_.CellY(ys[i]);
                if (cx < 0 || cy < 0 || cx >= w || cy >= h) continue;
                uint8_t& cell =
                    (*out)[static_cast<size_t>(cy) * w + cx];
                if (cell != 0xff) ++cell;
              }
            });
    occ = grid.data();
  }
  job->blob.resize(cells());
  GoalField(map_, occ, penalty_units_, static_cast<uint32_t>(job->args[0]),
            &static_cast<FieldJobScratch*>(scratch)->search,
            job->blob.data());
}

std::unique_ptr<JobScratch> AsyncPathfindComponent::MakeScratch() {
  auto scratch = std::make_unique<FieldJobScratch>();
  scratch->search.Fit(cells(), penalty_units_);
  return scratch;
}

void AsyncPathfindComponent::Install(const JobSlot& job) {
  ++total_.installed;
  // A goal dropped by a restore since submission has no slot. The key
  // of a job restored from a checkpoint is outside input: bound it.
  const int32_t slot =
      job.user_key < goal_slot_.size() ? goal_slot_[job.user_key] : -1;
  if (slot < 0) return;
  Goal& goal = goals_[static_cast<size_t>(slot)];
  std::copy(job.blob.begin(), job.blob.end(), goal.next.begin());
  goal.flags = kReady;
  goal.installed = job.install_tick;
}

void AsyncPathfindComponent::OnRestore() {
  for (Goal& goal : goals_) goal.flags = 0;
  std::fill(goal_slot_.begin(), goal_slot_.end(), -1);
}

namespace {
constexpr uint32_t kPathCacheMagic = 0x50464348u;  // "HCFP"
constexpr uint32_t kPathCacheVersion = 2;
}  // namespace

void AsyncPathfindComponent::SaveState(std::string* out) const {
  // Always emits at least the header: no goals is real state too
  // (restoring it must not fall back to the OnRestore drop).
  binio::Append<uint32_t>(out, kPathCacheMagic);
  binio::Append<uint32_t>(out, kPathCacheVersion);
  uint64_t count = 0;
  for (const Goal& goal : goals_) count += goal.flags != 0 ? 1 : 0;
  binio::Append<uint64_t>(out, count);
  for (const Goal& goal : goals_) {
    if (goal.flags == 0) continue;
    binio::Append<uint32_t>(out, goal.cell);
    binio::Append<uint32_t>(out, goal.flags);
    binio::Append<int64_t>(out, static_cast<int64_t>(goal.last_used));
    binio::Append<int64_t>(out, static_cast<int64_t>(goal.installed));
    binio::AppendBytes(out, goal.next.data(),
                       goal.next.size() * sizeof(uint32_t));
  }
}

Status AsyncPathfindComponent::LoadState(const char* data, size_t size) {
  const char* cur = data;
  const char* end = data + size;
  uint32_t magic = 0, version = 0;
  uint64_t count = 0;
  if (!binio::Read(&cur, end, &magic) || magic != kPathCacheMagic ||
      !binio::Read(&cur, end, &version)) {
    return Status::InvalidArgument("pathfind cache: bad header");
  }
  if (version != kPathCacheVersion) {
    return Status::InvalidArgument(
        "pathfind cache: version " + std::to_string(version) +
        " (this build reads version 2: one field per goal)");
  }
  if (!binio::Read(&cur, end, &count)) {
    return Status::InvalidArgument("pathfind cache: bad header");
  }
  // Per goal: cell, flags, last used, installed, then the field.
  const uint64_t goal_bytes = 4 + 4 + 8 + 8 + 4 * uint64_t{cells()};
  const uint64_t body = static_cast<uint64_t>(end - cur);
  if (count > body / goal_bytes || count * goal_bytes != body) {
    return Status::InvalidArgument(
        "pathfind cache: " + std::to_string(body) + " bytes for " +
        std::to_string(count) + " goals of " + std::to_string(goal_bytes));
  }
  auto cell_of = [&](uint64_t i) {
    uint32_t cell = 0;
    std::memcpy(&cell, cur + i * goal_bytes, sizeof(cell));
    return cell;
  };
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t cell = cell_of(i);
    uint32_t flags = 0;
    std::memcpy(&flags, cur + i * goal_bytes + 4, sizeof(flags));
    if (cell >= cells()) {
      return Status::InvalidArgument("pathfind cache: goal cell " +
                                     std::to_string(cell) + " off the map");
    }
    for (uint64_t j = 0; j < i; ++j) {
      if (cell_of(j) == cell) {
        return Status::InvalidArgument("pathfind cache: goal cell " +
                                       std::to_string(cell) + " twice");
      }
    }
    if (flags == 0 || (flags & ~(kInFlight | kReady)) != 0) {
      return Status::InvalidArgument("pathfind cache: bad goal flags");
    }
    if ((flags & kReady) == 0) continue;  // `next` unread until it installs
    // A ready field steps each cell to itself or to a 4-neighbour.
    const char* field = cur + i * goal_bytes + 24;
    const uint32_t w = static_cast<uint32_t>(map_.width());
    for (uint32_t c = 0; c < cells(); ++c) {
      uint32_t next = 0;
      std::memcpy(&next, field + 4 * uint64_t{c}, sizeof(next));
      const bool step_ok =
          next == c || (next < cells() && (next + w == c || c + w == next ||
                                           ((next + 1 == c || c + 1 == next) &&
                                            next / w == c / w)));
      if (!step_ok) {
        return Status::InvalidArgument(
            "pathfind cache: goal cell " + std::to_string(cell) +
            " steps cell " + std::to_string(c) + " to " +
            std::to_string(next));
      }
    }
  }
  // Valid: only now replace the current goals.
  OnRestore();
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t cell = 0;
    int64_t last_used = 0, installed = 0;
    binio::Read(&cur, end, &cell);
    Goal& goal = goals_[static_cast<size_t>(AddGoal(cell))];
    binio::Read(&cur, end, &goal.flags);
    binio::Read(&cur, end, &last_used);
    binio::Read(&cur, end, &installed);
    binio::ReadBytes(&cur, end, goal.next.data(),
                     goal.next.size() * sizeof(uint32_t));
    goal.last_used = static_cast<Tick>(last_used);
    goal.installed = static_cast<Tick>(installed);
  }
  return Status::OK();
}

}  // namespace sgl
