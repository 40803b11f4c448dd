// AsyncPathfindComponent: tick-spanning A* pathfinding over the JobService.
//
// The synchronous PathfinderComponent (src/update/pathfind.h) runs every A*
// search inside the update phase — one long search over a large map stalls
// the whole tick. This component replaces the blocking search with
// submit/poll:
//
//   * Each requested (start cell, goal cell) pair becomes at most one job,
//     deduplicated across entities *and* across ticks by a flat
//     open-addressing request cache (the cross-tick generalization of the
//     sync component's per-tick memo).
//   * Jobs execute on JobService workers against an epoch-stamped
//     SnapshotView of the declared position columns (used to rasterize a
//     crowd-occupancy cost layer when `crowd_penalty > 0`); results
//     install at the deterministic tick `submit + latency_ticks`, in
//     seeded job-order. Installation seeds the cache along the *whole*
//     computed path — every on-route cell maps to its successor — so one
//     search serves an army's entire march down that route; entities only
//     wait on genuinely novel (start, goal) requests.
//   * While a request is in flight its entities hold position (waypoint =
//     current position); once the result installs, every entity at that
//     (start, goal) pair steps identically. World state is therefore
//     bit-identical for any worker count, shard count, and thread count.
//
// Staleness: cached results are revalidated on use — a next cell that the
// (mutable) GridMap has since blocked is dropped and re-searched, and
// entries older than `refresh_after_ticks` re-submit in the background
// while entities keep following the old answer until the fresh one
// installs. Entries unused for `result_ttl_ticks` are evicted by a
// ping-pong sweep (capacity kept; steady-state ticks allocate nothing).

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
  /// Evict cached results unused for this many ticks (<= 0: never evict).
  int result_ttl_ticks = 16;
  /// Re-search results older than this in the background (0: never; for
  /// static maps with no crowd penalty the first answer stays correct).
  int refresh_after_ticks = 0;
  /// > 0: each entity occupying a cell (in the submit-time snapshot) adds
  /// this much to the cell's step cost — congestion-aware paths. This is
  /// what makes jobs read the SnapshotView.
  double crowd_penalty = 0.0;
  /// Initial request-cache capacity (rounded up to a power of two).
  /// Size for the steady-state working set to keep growth out of ticks.
  size_t cache_reserve = 1u << 12;
};

struct AsyncPathfinderStats {
  int64_t submitted = 0;      ///< jobs handed to the service
  int64_t installed = 0;      ///< results installed at barriers
  int64_t cache_hits = 0;     ///< entity-requests served from the cache
  int64_t stalls = 0;         ///< entity-requests held while in flight
  int64_t unreachable = 0;    ///< installed results with no path
  int64_t refreshes = 0;      ///< background re-searches
  int64_t dropped_stale = 0;  ///< cached next cells invalidated by the map
  int64_t evicted = 0;        ///< TTL sweep evictions
  int64_t seeded = 0;         ///< path-seeded cache entries (new keys)
  int64_t path_cells = 0;     ///< total installed path length (cells)
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
  /// Drops the request cache: in-flight keys refer to jobs the engine just
  /// cancelled, and ready results belong to the pre-restore trajectory.
  void OnRestore() override;
  /// Full request-cache image (keys, ready next-cells, in-flight bits,
  /// sweep phase). With the in-flight job section of the same checkpoint
  /// restored alongside it, every kInFlight key's job is re-created too —
  /// post-restore ticks replay bit-identically to the uninterrupted run
  /// instead of re-searching from a cold cache.
  void SaveState(std::string* out) const override;
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
  /// One (start cell, goal cell) request. key 0 = empty slot.
  struct Entry {
    uint64_t key = 0;
    uint32_t next_cell = 0;  ///< (ny << 16) | nx, valid when kReady
    uint32_t flags = 0;
    Tick last_used = 0;
    Tick installed = 0;
  };
  static constexpr uint32_t kInFlight = 1;  ///< a job is out for this key
  static constexpr uint32_t kReady = 2;     ///< next_cell is usable

  AsyncPathfindComponent() : map_(1, 1, 1.0) {}

  Entry* Find(uint64_t key);
  Entry* FindOrInsert(uint64_t key, bool* inserted);
  void InsertRehash(std::vector<Entry>* table, const Entry& e) const;
  void Grow();
  /// The largest capacity the cache can legitimately reach: the reserve,
  /// doubled until the map's whole (start, goal) key space fits below the
  /// grow threshold. LoadState rejects anything larger.
  size_t MaxCapacity() const;
  void MaybeSweep(Tick tick);
  void SubmitSearch(World* world, uint64_t key, Tick tick, SnapshotView** snap);

  std::string name_ = "async_pathfind";
  AsyncPathfinderConfig config_;
  GridMap map_;
  JobService* service_ = nullptr;
  int client_id_ = -1;
  int penalty_units_ = 0;  ///< fixed-point crowd penalty per occupant
  /// Fixed capacity every result blob is reserved to (min(w*h+1, 4096)):
  /// identical capacities mean a recycled slot never re-allocates for a
  /// longer-than-before path, keeping steady-state ticks allocation-free.
  /// Paths beyond the quantum (pathological mazes) still work — the blob
  /// just grows.
  size_t blob_quantum_ = 0;

  ClassId cls_ = kInvalidClass;
  FieldIdx x_ = kInvalidField, y_ = kInvalidField;
  FieldIdx goal_x_ = kInvalidField, goal_y_ = kInvalidField;
  FieldIdx wx_ = kInvalidField, wy_ = kInvalidField;

  /// Open-addressing request cache + ping-pong sweep partner (same
  /// capacity; swap on sweep, so steady-state eviction allocates nothing).
  std::vector<Entry> cache_;
  std::vector<Entry> alt_cache_;
  size_t cache_size_ = 0;
  Tick last_sweep_ = 0;

  AsyncPathfinderStats total_;
};

}  // namespace sgl

#endif  // SGL_ASYNC_ASYNC_PATHFIND_H_
