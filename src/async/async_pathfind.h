// AsyncPathfindComponent: tick-spanning goal-field pathfinding over the
// JobService.
//
// Pathfinding is set-at-a-time work here (§2.2): the component plans per
// goal cell, not per entity. Each goal some entity heads for gets one
// goal field (src/update/pathfind.h): a reverse Dijkstra from the goal
// that gives every map cell its next step there. An entity reads
// `next[its goal][its cell]`, so every entity bound for one goal, wherever
// it stands, shares one search.
//
//   * A field is computed by a job on JobService workers against an
//     epoch-stamped SnapshotView of the declared position columns (used to
//     rasterize a crowd-occupancy cost layer when `crowd_penalty > 0`);
//     it installs at the deterministic tick `submit + latency_ticks`, in
//     seeded job order.
//   * While a goal's first field is in flight its entities hold position
//     (waypoint = current position); once it installs, every entity on one
//     cell with one goal steps identically. World state is therefore
//     bit-identical for any worker count and thread count.
//
// Staleness, decided per goal: a next cell the (mutable) GridMap has
// since blocked holds its entity and re-submits the field. With
// `crowd_penalty > 0`, each tick also re-submits the one installed field
// with no job out that was installed longest ago, so the fields follow the
// crowd; entities keep following the old field until the fresh one
// installs. A goal no entity has asked for in `result_ttl_ticks` is
// evicted. Each goal's field storage is kept when its slot is reused, so
// steady-state ticks allocate nothing.
//
// Cost grows with the number of distinct goal cells, not with entities:
// each live goal holds 4·W·H bytes of field, and each new goal or refresh
// is a full-map search. Fields pay off when goals are few next to the
// entities heading for them (armies: 12 goals, 16k soldiers, the only
// pathfinding benchmark). With one goal per entity the storage is
// entities × 4·W·H bytes (1 GB for 16k goals on a 128×128 map), each
// search covers the whole map where a per-(start, goal) A* would stop at
// the goal, and with a crowd penalty each field is refreshed once every
// (live goals) ticks.

#ifndef SGL_ASYNC_ASYNC_PATHFIND_H_
#define SGL_ASYNC_ASYNC_PATHFIND_H_

#include <memory>
#include <string>
#include <vector>

#include "src/async/job_service.h"
#include "src/update/pathfind.h"
#include "src/update/update_component.h"

namespace sgl {

struct AsyncPathfinderConfig {
  std::string cls;
  std::string x = "x", y = "y";          ///< read-only position state
  std::string goal_x = "goal_x";         ///< effect: intended destination
  std::string goal_y = "goal_y";
  std::string waypoint_x = "waypoint_x"; ///< owned: next step to take
  std::string waypoint_y = "waypoint_y";
  /// Result installation happens exactly this many ticks after submission
  /// (the declared deterministic completion latency). >= 1.
  int latency_ticks = 2;
  /// Evict a goal's field after this many ticks in which no entity headed
  /// for the goal (<= 0: never evict).
  int result_ttl_ticks = 16;
  /// > 0: each entity occupying a cell (in the submit-time snapshot) adds
  /// this much to the cost of stepping into the cell: congestion-aware
  /// paths. This is what makes jobs read the SnapshotView, and what makes
  /// the component re-submit one installed field per tick.
  double crowd_penalty = 0.0;
  /// Ignored: goal fields need no reserve. Kept because
  /// perfbench/tick_anatomy.cc sets it.
  size_t cache_reserve = 0;
};

struct AsyncPathfinderStats {
  int64_t submitted = 0;      ///< field jobs handed to the service
  int64_t installed = 0;      ///< fields installed at barriers
  int64_t refreshes = 0;      ///< of `submitted`: crowd re-submissions
  int64_t cache_hits = 0;     ///< entity steps read from an installed field
  int64_t stalls = 0;         ///< entity steps held: goal's field not in yet
  int64_t unreachable = 0;    ///< entity steps held: off map or no path
  int64_t dropped_stale = 0;  ///< entity steps held: next cell now blocked
  int64_t evicted = 0;        ///< goals evicted by the TTL
};

class AsyncPathfindComponent : public UpdateComponent, public JobClient {
 public:
  /// `service` must outlive the component.
  static StatusOr<std::unique_ptr<AsyncPathfindComponent>> Create(
      const Catalog& catalog, const AsyncPathfinderConfig& config,
      GridMap map, JobService* service);

  // --- UpdateComponent --------------------------------------------------
  const std::string& name() const override { return name_; }
  std::vector<std::pair<ClassId, FieldIdx>> OwnedFields() const override;
  void Update(World* world, Tick tick) override;
  /// Drops every goal: in-flight goals refer to jobs the engine just
  /// cancelled, and installed fields belong to the pre-restore trajectory.
  void OnRestore() override;
  /// Every live goal with its field (format v2, src/debug/
  /// CHECKPOINT_FORMAT.md). With the in-flight job section of the same
  /// checkpoint restored alongside it, every in-flight goal's job is
  /// re-created too, so post-restore ticks replay bit-identically to the
  /// uninterrupted run instead of re-searching from nothing.
  void SaveState(std::string* out) const override;
  /// InvalidArgument, with nothing allocated or changed, for any blob
  /// other than a well-formed v2 one for this map (a ready field must
  /// step every cell to itself or a 4-neighbour).
  Status LoadState(const char* data, size_t size) override;

  // --- JobClient --------------------------------------------------------
  const char* client_name() const override { return "async_pathfind"; }
  void Run(const SnapshotView* snap, JobSlot* job,
           JobScratch* scratch) override;
  std::unique_ptr<JobScratch> MakeScratch() override;
  void Install(const JobSlot& job) override;

  const GridMap& map() const { return map_; }
  /// Workers read the map concurrently while jobs are in flight: mutate
  /// (SetBlocked) only at a tick boundary with no jobs outstanding
  /// (service in_flight() == 0, e.g. after CancelAll).
  GridMap& mutable_map() { return map_; }
  const AsyncPathfinderStats& total() const { return total_; }

 private:
  /// One goal cell and its field. A slot with flags == 0 is free.
  struct Goal {
    uint32_t cell = 0;  ///< y * width + x
    uint32_t flags = 0;
    Tick last_used = 0;
    Tick installed = 0;          ///< install tick of `next`, when kReady
    std::vector<uint32_t> next;  ///< per map cell, valid when kReady
  };
  static constexpr uint32_t kInFlight = 1;  ///< a job is out for the goal
  static constexpr uint32_t kReady = 2;     ///< `next` is usable

  AsyncPathfindComponent() : map_(1, 1, 1.0) {}

  size_t cells() const {
    return static_cast<size_t>(map_.width()) *
           static_cast<size_t>(map_.height());
  }
  /// A slot for `cell`, reusing a free one first; returns its index.
  int32_t AddGoal(uint32_t cell);
  void Submit(World* world, Goal* goal, Tick tick, SnapshotView** snap);

  std::string name_ = "async_pathfind";
  AsyncPathfinderConfig config_;
  GridMap map_;
  JobService* service_ = nullptr;
  int client_id_ = -1;
  int penalty_units_ = 0;  ///< fixed-point crowd penalty per occupant

  ClassId cls_ = kInvalidClass;
  FieldIdx x_ = kInvalidField, y_ = kInvalidField;
  FieldIdx goal_x_ = kInvalidField, goal_y_ = kInvalidField;
  FieldIdx wx_ = kInvalidField, wy_ = kInvalidField;

  std::vector<Goal> goals_;
  std::vector<int32_t> goal_slot_;  ///< per map cell: index in goals_, or -1

  AsyncPathfinderStats total_;
};

}  // namespace sgl

#endif  // SGL_ASYNC_ASYNC_PATHFIND_H_
