#include "src/async/async_pathfind.h"

#include <algorithm>
#include <cmath>

#include "src/common/bin_io.h"
#include "src/common/rng.h"

namespace sgl {

namespace {

inline uint64_t PackKey(int sx, int sy, int gx, int gy) {
  return (static_cast<uint64_t>(sx + 1) << 48) |
         (static_cast<uint64_t>(sy + 1) << 32) |
         (static_cast<uint64_t>(gx + 1) << 16) |
         static_cast<uint64_t>(gy + 1);
}

inline void UnpackKey(uint64_t key, int* sx, int* sy, int* gx, int* gy) {
  *sx = static_cast<int>((key >> 48) & 0xffff) - 1;
  *sy = static_cast<int>((key >> 32) & 0xffff) - 1;
  *gx = static_cast<int>((key >> 16) & 0xffff) - 1;
  *gy = static_cast<int>(key & 0xffff) - 1;
}

inline uint32_t PackCell(int x, int y) {
  return (static_cast<uint32_t>(y) << 16) | static_cast<uint32_t>(x);
}

/// The request cache's starting capacity: the configured reserve rounded up
/// to a power of two, at least 16.
size_t ReserveCapacity(size_t reserve) {
  size_t cap = 16;
  while (cap < reserve) cap <<= 1;
  return cap;
}

/// A worker's (or drain share's) A* state.
struct PathfindJobScratch : JobScratch {
  PathfindScratch search;
};

}  // namespace

StatusOr<std::unique_ptr<AsyncPathfindComponent>>
AsyncPathfindComponent::Create(const Catalog& catalog,
                               const AsyncPathfinderConfig& config,
                               GridMap map, JobService* service) {
  SGL_CHECK(service != nullptr);
  if (map.width() >= 0xfffe || map.height() >= 0xfffe) {
    return Status::InvalidArgument(
        "async_pathfind: grid maps are limited to 65533 cells per axis "
        "(request keys pack cells into 16 bits)");
  }
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
  comp->blob_quantum_ = std::min<size_t>(
      static_cast<size_t>(comp->map_.width()) *
              static_cast<size_t>(comp->map_.height()) +
          1,
      4096);
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

  const size_t cap = ReserveCapacity(config.cache_reserve);
  comp->cache_.assign(cap, Entry());
  comp->alt_cache_.assign(cap, Entry());
  comp->client_id_ = service->RegisterClient(comp.get());
  return comp;
}

std::vector<std::pair<ClassId, FieldIdx>>
AsyncPathfindComponent::OwnedFields() const {
  return {{cls_, wx_}, {cls_, wy_}};
}

AsyncPathfindComponent::Entry* AsyncPathfindComponent::Find(uint64_t key) {
  const size_t mask = cache_.size() - 1;
  size_t i = static_cast<size_t>(Mix64(key)) & mask;
  while (cache_[i].key != 0) {
    if (cache_[i].key == key) return &cache_[i];
    i = (i + 1) & mask;
  }
  return nullptr;
}

void AsyncPathfindComponent::InsertRehash(std::vector<Entry>* table,
                                          const Entry& e) const {
  const size_t mask = table->size() - 1;
  size_t i = static_cast<size_t>(Mix64(e.key)) & mask;
  while ((*table)[i].key != 0) i = (i + 1) & mask;
  (*table)[i] = e;
}

size_t AsyncPathfindComponent::MaxCapacity() const {
  // Keys are (start cell, goal cell) pairs with start != goal. Create caps
  // each axis below 2^16 cells, so the product fits in 64 bits.
  const uint64_t cells = static_cast<uint64_t>(map_.width()) *
                         static_cast<uint64_t>(map_.height());
  const uint64_t keys = cells * (cells - 1);
  // FindOrInsert grows a table of capacity c only when more than 3c/4 - 1
  // keys are live, so once 3c/4 exceeds the key space it never grows.
  uint64_t cap = ReserveCapacity(config_.cache_reserve);
  while (cap / 4 * 3 <= keys && cap < (uint64_t{1} << 62)) cap <<= 1;
  return static_cast<size_t>(cap);
}

void AsyncPathfindComponent::Grow() {
  const size_t cap = cache_.size() * 2;
  alt_cache_.assign(cap, Entry());
  for (const Entry& e : cache_) {
    if (e.key != 0) InsertRehash(&alt_cache_, e);
  }
  cache_.swap(alt_cache_);
  alt_cache_.assign(cap, Entry());
}

AsyncPathfindComponent::Entry* AsyncPathfindComponent::FindOrInsert(
    uint64_t key, bool* inserted) {
  if ((cache_size_ + 1) * 4 > cache_.size() * 3) Grow();
  const size_t mask = cache_.size() - 1;
  size_t i = static_cast<size_t>(Mix64(key)) & mask;
  while (cache_[i].key != 0) {
    if (cache_[i].key == key) {
      *inserted = false;
      return &cache_[i];
    }
    i = (i + 1) & mask;
  }
  cache_[i] = Entry();
  cache_[i].key = key;
  ++cache_size_;
  *inserted = true;
  return &cache_[i];
}

void AsyncPathfindComponent::MaybeSweep(Tick tick) {
  if (config_.result_ttl_ticks <= 0) return;
  const Tick period = std::max(1, config_.result_ttl_ticks / 2);
  if (tick - last_sweep_ < period) return;
  last_sweep_ = tick;
  // Ping-pong rebuild: in-flight keys must survive (their job will try to
  // install), ready keys survive while recently used.
  for (Entry& e : alt_cache_) e = Entry();
  size_t kept = 0;
  for (const Entry& e : cache_) {
    if (e.key == 0) continue;
    if ((e.flags & kInFlight) != 0 ||
        tick - e.last_used <= config_.result_ttl_ticks) {
      InsertRehash(&alt_cache_, e);
      ++kept;
    } else {
      ++total_.evicted;
    }
  }
  cache_.swap(alt_cache_);
  cache_size_ = kept;
}

void AsyncPathfindComponent::SubmitSearch(World* world, uint64_t key,
                                          Tick tick, SnapshotView** snap) {
  if (penalty_units_ > 0 && *snap == nullptr) {
    // One capture shared by every job submitted this tick.
    *snap = service_->AcquireSnapshot();
    const FieldIdx fields[2] = {x_, y_};
    (*snap)->Capture(*world, cls_, fields, 2,
                     static_cast<uint64_t>(tick));
  }
  const uint64_t args[4] = {key, 0, 0, 0};
  service_->Submit(client_id_, key, args, *snap, config_.latency_ticks, tick);
  ++total_.submitted;
}

void AsyncPathfindComponent::Update(World* world, Tick tick) {
  EntityTable& table = world->table(cls_);
  const EffectBuffer& effects = world->effects(cls_);
  const size_t n = table.size();
  if (n == 0) {
    MaybeSweep(tick);
    return;
  }
  ConstNumberColumn x = table.Num(x_);
  ConstNumberColumn y = table.Num(y_);
  NumberColumn wx = table.Num(wx_);
  NumberColumn wy = table.Num(wy_);
  const int w = map_.width();
  const int h = map_.height();
  SnapshotView* snap = nullptr;

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
      // Off-map request: hold position (the sync component's Blocked()
      // lookup treats out-of-range as unreachable too).
      ++total_.unreachable;
      wx.at(i) = x[i];
      wy.at(i) = y[i];
      continue;
    }
    if (sx == gx && sy == gy) {
      // Final cell: head to the exact goal position, no search needed.
      wx.at(i) = gx_pos;
      wy.at(i) = gy_pos;
      continue;
    }
    const uint64_t key = PackKey(sx, sy, gx, gy);
    bool inserted = false;
    Entry* e = FindOrInsert(key, &inserted);
    e->last_used = tick;
    if (inserted) {
      e->flags = kInFlight;
      SubmitSearch(world, key, tick, &snap);
      ++total_.stalls;
      wx.at(i) = x[i];  // hold position while the search is out
      wy.at(i) = y[i];
      continue;
    }
    if ((e->flags & kReady) == 0) {
      ++total_.stalls;
      wx.at(i) = x[i];
      wy.at(i) = y[i];
      continue;
    }
    const int nx = static_cast<int>(e->next_cell & 0xffff);
    const int ny = static_cast<int>(e->next_cell >> 16);
    if (config_.refresh_after_ticks > 0 && (e->flags & kInFlight) == 0 &&
        tick - e->installed >= config_.refresh_after_ticks) {
      // Background revalidation: keep following the old answer, but get a
      // fresh search (new crowd snapshot) in flight.
      e->flags |= kInFlight;
      SubmitSearch(world, key, tick, &snap);
      ++total_.refreshes;
    }
    if (nx == sx && ny == sy) {
      // Installed as unreachable (or degenerate): hold position. A later
      // refresh may find a path if the map opened up.
      ++total_.cache_hits;
      wx.at(i) = x[i];
      wy.at(i) = y[i];
      continue;
    }
    if (map_.Blocked(nx, ny)) {
      // Stale result: the map changed under the cached answer. Drop it
      // and re-search; the requester holds position meanwhile.
      ++total_.dropped_stale;
      if ((e->flags & kInFlight) == 0) {
        SubmitSearch(world, key, tick, &snap);
      }
      e->flags = kInFlight;
      ++total_.stalls;
      wx.at(i) = x[i];
      wy.at(i) = y[i];
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
  service_->ReleaseUnused(snap);
  MaybeSweep(tick);
}

void AsyncPathfindComponent::Run(const SnapshotView* snap, JobSlot* job,
                                 JobScratch* scratch) {
  auto* s = &static_cast<PathfindJobScratch*>(scratch)->search;
  int sx, sy, gx, gy;
  UnpackKey(job->args[0], &sx, &sy, &gx, &gy);
  const uint8_t* occ = nullptr;
  if (snap != nullptr && penalty_units_ > 0) {
    const int w = map_.width();
    const int h = map_.height();
    // Built once per snapshot by whichever worker gets here first; a pure
    // function of the captured columns, so the content is deterministic.
    const std::vector<uint8_t>& grid =
        const_cast<SnapshotView*>(snap)->Derived(
            [&](std::vector<uint8_t>* out) {
              out->assign(static_cast<size_t>(w) * static_cast<size_t>(h),
                          0);
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
  job->blob.clear();
  if (job->blob.capacity() < blob_quantum_) job->blob.reserve(blob_quantum_);
  const bool reached =
      CrowdAStar(map_, occ, penalty_units_, sx, sy, gx, gy, s, &job->blob);
  // Cell indices -> the packed cells the request cache stores.
  for (uint64_t& cell : job->blob) {
    const int i = static_cast<int>(cell);
    cell = PackCell(i % map_.width(), i / map_.width());
  }
  job->result[0] = job->blob.size() >= 2 ? static_cast<uint64_t>(job->blob[1])
                                         : PackCell(sx, sy);
  job->result[1] = reached ? 1 : 0;
  job->result[2] = job->blob.empty()
                       ? 0
                       : static_cast<uint64_t>(job->blob.size() - 1);
}

std::unique_ptr<JobScratch> AsyncPathfindComponent::MakeScratch() {
  auto scratch = std::make_unique<PathfindJobScratch>();
  scratch->search.Fit(static_cast<size_t>(map_.width()) *
                      static_cast<size_t>(map_.height()));
  return scratch;
}

void AsyncPathfindComponent::Install(const JobSlot& job) {
  ++total_.installed;
  total_.path_cells += static_cast<int64_t>(job.result[2]);
  if (job.result[1] == 0 || job.blob.size() < 2) {
    // Unreachable (or degenerate): record "hold position" for the
    // requested key so its entities stop stalling.
    ++total_.unreachable;
    Entry* e = Find(job.user_key);
    if (e == nullptr) return;  // cache cleared since submission (restore)
    e->next_cell = static_cast<uint32_t>(job.result[0]);
    e->flags = kReady;
    e->installed = job.install_tick;
    return;
  }
  // Seed the cache along the whole computed route: every cell on the path
  // maps to its successor (toward the same goal), so entities marching the
  // route find a ready answer at every subsequent step instead of
  // re-requesting after each move — one search serves the march. A
  // pending in-flight bit on a seeded key survives (its own job still
  // installs later, overwriting with an equivalent, fresher answer).
  int sx, sy, gx, gy;
  UnpackKey(job.user_key, &sx, &sy, &gx, &gy);
  for (size_t i = 0; i + 1 < job.blob.size(); ++i) {
    const uint32_t cell = static_cast<uint32_t>(job.blob[i]);
    const int cx = static_cast<int>(cell & 0xffff);
    const int cy = static_cast<int>(cell >> 16);
    bool inserted = false;
    Entry* e = FindOrInsert(PackKey(cx, cy, gx, gy), &inserted);
    if (inserted) e->last_used = job.install_tick;
    e->next_cell = static_cast<uint32_t>(job.blob[i + 1]);
    e->flags = (e->flags & kInFlight) | kReady;
    e->installed = job.install_tick;
    total_.seeded += inserted ? 1 : 0;
  }
  // The submitted key itself: clear its in-flight bit (this was its job).
  Entry* e = Find(job.user_key);
  if (e != nullptr) e->flags = kReady;
}

void AsyncPathfindComponent::OnRestore() {
  for (Entry& e : cache_) e = Entry();
  cache_size_ = 0;
  // Re-phase the TTL sweep as a fresh component would run it, so an
  // in-place restore evicts on the same ticks as a fresh-engine restore.
  last_sweep_ = 0;
}

namespace {
constexpr uint32_t kPathCacheMagic = 0x50464348u;  // "HCFP"
constexpr uint32_t kPathCacheVersion = 1;
}  // namespace

void AsyncPathfindComponent::SaveState(std::string* out) const {
  // Always emits at least the header: an empty cache is real state too
  // (restoring it must not fall back to the OnRestore cache drop).
  binio::Append<uint32_t>(out, kPathCacheMagic);
  binio::Append<uint32_t>(out, kPathCacheVersion);
  binio::Append<int64_t>(out, static_cast<int64_t>(last_sweep_));
  // Capacity is saved so post-restore Grow() triggers on the same tick as
  // the uninterrupted run's.
  binio::Append<uint64_t>(out, static_cast<uint64_t>(cache_.size()));
  binio::Append<uint64_t>(out, static_cast<uint64_t>(cache_size_));
  for (const Entry& e : cache_) {
    if (e.key == 0) continue;
    binio::Append<uint64_t>(out, e.key);
    binio::Append<uint32_t>(out, e.next_cell);
    binio::Append<uint32_t>(out, e.flags);
    binio::Append<int64_t>(out, static_cast<int64_t>(e.last_used));
    binio::Append<int64_t>(out, static_cast<int64_t>(e.installed));
  }
}

Status AsyncPathfindComponent::LoadState(const char* data, size_t size) {
  const char* cur = data;
  const char* end = data + size;
  uint32_t magic = 0, version = 0;
  int64_t sweep = 0;
  uint64_t cap = 0, count = 0;
  if (!binio::Read(&cur, end, &magic) || magic != kPathCacheMagic ||
      !binio::Read(&cur, end, &version) || version != kPathCacheVersion ||
      !binio::Read(&cur, end, &sweep) || !binio::Read(&cur, end, &cap) ||
      !binio::Read(&cur, end, &count)) {
    return Status::InvalidArgument("pathfind cache: bad header");
  }
  constexpr size_t kEntryBytes = 8 + 4 + 4 + 8 + 8;
  if (cap < 16 || (cap & (cap - 1)) != 0 || count * 4 > cap * 3 ||
      count * kEntryBytes != static_cast<uint64_t>(end - cur)) {
    return Status::InvalidArgument("pathfind cache: bad shape");
  }
  // Refuse a capacity no run of this component can reach before allocating
  // it. Sweeps keep capacity, so the saved count does not bound it; the
  // key space does. Legitimate runs sit far below: the largest capacities
  // measured after sweeps were 1024 (16x16 map, 16-entry reserve; bound
  // 131072) and 131072 (128x128 map, 16k units; bound 2^29).
  if (cap > MaxCapacity()) {
    return Status::InvalidArgument(
        "pathfind cache: capacity " + std::to_string(cap) +
        " exceeds what this map's key space can grow to");
  }
  alt_cache_.assign(static_cast<size_t>(cap), Entry());
  for (uint64_t i = 0; i < count; ++i) {
    Entry e;
    int64_t last_used = 0, installed = 0;
    binio::Read(&cur, end, &e.key);
    binio::Read(&cur, end, &e.next_cell);
    binio::Read(&cur, end, &e.flags);
    binio::Read(&cur, end, &last_used);
    binio::Read(&cur, end, &installed);
    e.last_used = static_cast<Tick>(last_used);
    e.installed = static_cast<Tick>(installed);
    if (e.key == 0) {
      return Status::InvalidArgument("pathfind cache: empty key");
    }
    InsertRehash(&alt_cache_, e);
  }
  cache_.swap(alt_cache_);
  alt_cache_.assign(static_cast<size_t>(cap), Entry());
  cache_size_ = static_cast<size_t>(count);
  last_sweep_ = static_cast<Tick>(sweep);
  return Status::OK();
}

}  // namespace sgl
