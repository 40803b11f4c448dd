// JobService: asynchronous, out-of-band jobs with deterministic result
// installation (src/async/).
//
// The paper treats expensive AI — pathfinding above all — as an update
// component (§2.2), but a long search run synchronously stalls the whole
// QUERY→MERGE→UPDATE tick. Declarative processing is exactly the license to
// move that work off the critical path: a component *submits* a read-only
// job against an epoch-stamped SnapshotView of the columns it declares,
// background workers execute it across tick boundaries, and the result is
// installed only at a tick barrier.
//
// Determinism contract (the whole point):
//
//   * A job submitted at tick T with declared latency L installs at tick
//     T + L — never earlier (even if a worker finishes in microseconds) and
//     never later (the barrier runs every job no worker has claimed yet
//     and blocks only on jobs a worker is still running). Completion time
//     is a declared property of the submission, not an accident of OS
//     scheduling.
//   * Within one install tick, jobs install in ascending seeded ordering
//     key (splitmix64 of the service seed, submit tick, and submission
//     sequence) with (submit tick, sequence) as the final tiebreak — a
//     total order fixed at submit time.
//   * Job execution must be a pure function of (SnapshotView, args,
//     immutable client config). Under that contract, world state is
//     bit-identical for any worker count and tick-thread count — including
//     0 workers, the inline reference mode where every job runs at its
//     install tick in the barrier's drain.
//
// Mechanics: job slots live in a flat pooled arena (stable addresses,
// free-list recycling), a finished job is published by its slot's `done`
// flag, and per-worker scratch (client-defined, e.g. search heaps)
// reaches a high-water mark — after warmup, steady-state ticks with jobs
// in flight allocate nothing on any thread.
//
// Threading shape: Submit / InstallDue / CancelAll / SampleTick run on the
// barrier thread only (the update phase is single-threaded). Workers touch
// a slot only between claiming it from the pending queue and releasing its
// `done` flag; the slot arena, snapshot pool, and client registry are
// barrier-owned, and everything a worker dereferences is address-stable.
// JobClient::Run may execute on a worker, on the barrier thread, or on a
// thread of the executor's ThreadPool: InstallDue's drain fans the due jobs
// no worker has claimed out over that pool (the pool threads plus the
// barrier thread, less one per worker). JobClient::Install always runs on
// the barrier thread, after the drain has joined. Clients must register
// before the first Submit.

#ifndef SGL_ASYNC_JOB_SERVICE_H_
#define SGL_ASYNC_JOB_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/async/snapshot_view.h"
#include "src/common/status.h"

namespace sgl {

class FaultInjector;
class Telemetry;
class ThreadPool;

/// Upper bound (exclusive) on a submission's declared latency; sizes the
/// per-latency due queues.
constexpr int kJobMaxLatency = 64;

/// Deliveries a job gets when its worker dies before claiming it (the
/// fault-injected "worker death"). A dropped job re-enters the pending
/// queue until this budget is spent; after that it simply stays unclaimed
/// and the barrier's drain runs it at its contracted install tick — so
/// results never change, only where the work happened.
constexpr int kJobMaxAttempts = 3;

struct JobServiceOptions {
  /// Background workers. 0 = inline reference mode: no job is ever
  /// claimed early, so every job runs in the barrier's drain at its install
  /// tick — on the drain pool if the service has one (bit-identical to any
  /// worker count by the purity contract).
  int num_workers = 0;
  /// Seed for the deterministic job-ordering keys.
  uint64_t seed = 0x0b5eeded5eedULL;
  /// Armed fault plan (worker stall / worker death sites); null = off.
  /// Must outlive the service.
  FaultInjector* fault = nullptr;
  /// Telemetry sink for async.worker.run spans; null = disarmed. Same
  /// borrowed-pointer lifetime contract as `fault`.
  Telemetry* telemetry = nullptr;
};

/// Client-opaque per-worker scratch (search arrays, heaps). One instance
/// per (worker, client) plus one per (drain share, client), all created
/// when the client registers and reused for every job. A drain share's
/// first job can come at any tick, so MakeScratch should return the
/// scratch at its working size: then per-job execution allocates nothing.
class JobScratch {
 public:
  virtual ~JobScratch() = default;
};

/// One pooled job record. Everything before `result` is written at Submit
/// and immutable afterwards; `result` is written by exactly one worker
/// (or a drain share) before `done` is released.
struct JobSlot {
  uint64_t order_key = 0;  ///< seeded deterministic install ordering
  uint64_t user_key = 0;   ///< client dedup key, echoed at install
  uint64_t args[4] = {0, 0, 0, 0};
  Tick submit_tick = 0;
  Tick install_tick = 0;
  uint32_t seq = 0;            ///< submission sequence within its tick
  int client = 0;
  SnapshotView* snap = nullptr;
  uint64_t result[4] = {0, 0, 0, 0};
  /// Variable-length result payload (e.g. a goal field). Cleared by the
  /// runner, capacity kept across slot reuses.
  std::vector<uint64_t> blob;
  std::atomic<uint32_t> done{0};
  /// Execution claim: 0 = unclaimed, 1 = claimed. Exactly one executor —
  /// a worker (after its pre-claim delays) or a share of the barrier's
  /// drain — wins the CAS and runs the job; every loser drops it. Reset
  /// by Submit after the slot's fields are filled, so a stale worker still
  /// holding a recycled slot's pointer can never claim a half-written job.
  std::atomic<uint32_t> claim{0};
};

/// The component side of a job. Run() executes on a background worker or
/// in the barrier's drain (possibly on a pool thread); Install() is called
/// on the barrier thread in deterministic order.
class JobClient {
 public:
  virtual ~JobClient() = default;
  /// Not `name()`: clients are often also UpdateComponents, whose name()
  /// returns a different type.
  virtual const char* client_name() const = 0;
  /// Must read only `snap` (null if the submission carried no snapshot),
  /// `job->args`, and immutable client state; must write results only into
  /// `job->result`. Purity is what makes worker count invisible.
  virtual void Run(const SnapshotView* snap, JobSlot* job,
                   JobScratch* scratch) = 0;
  virtual std::unique_ptr<JobScratch> MakeScratch() = 0;
  /// Deterministic-order result installation (barrier thread).
  virtual void Install(const JobSlot& job) = 0;
};

/// Per-tick job counters (sampled into TickStats by the executors).
struct JobTickStats {
  int64_t submitted = 0;   ///< since the previous sample
  int64_t installed = 0;   ///< at the last barrier
  int64_t in_flight = 0;   ///< submitted, not yet installed
  int64_t wait_micros = 0; ///< barrier time blocked on unfinished jobs
};

class JobService {
 public:
  /// `pool` (borrowed, may be null; must outlive the service) runs the
  /// barrier's drain: the executor's tick pool, idle at the barrier. Null
  /// = the drain runs on the barrier thread alone.
  explicit JobService(const JobServiceOptions& options,
                      ThreadPool* pool = nullptr);
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  const JobServiceOptions& options() const { return options_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Registers a client (must outlive the service). Returns its id.
  int RegisterClient(JobClient* client);

  /// A pooled snapshot slot for this tick's submissions. The caller
  /// captures into it and passes it to Submit (shared by any number of
  /// jobs); it returns to the pool when the last referencing job installs.
  /// A snapshot acquired but never submitted with must be handed back via
  /// ReleaseUnused.
  SnapshotView* AcquireSnapshot();
  void ReleaseUnused(SnapshotView* snap);

  /// Submits a job: install at `now + latency` (latency clamped to
  /// [1, kJobMaxLatency - 1]). Barrier thread only. `snap` may be null for
  /// jobs that read nothing but their args.
  void Submit(int client, uint64_t user_key, const uint64_t args[4],
              SnapshotView* snap, int latency, Tick now);

  /// Installs every job due at `tick` in deterministic order. First the
  /// drain runs every due job no worker has claimed, across the pool;
  /// then the installs block only on jobs a worker is still running. The
  /// executor calls this at the tick barrier, before update components
  /// run. Must run every tick.
  void InstallDue(Tick tick);

  /// Drops every pending and in-flight job without installing (checkpoint
  /// restore). Blocks until running workers finish their current job.
  void CancelAll();

  /// Serializes every in-flight submission — args, contracted install
  /// tick, seeded order key, and the distinct SnapshotViews they read —
  /// into a checkpoint section (barrier thread; workers may still be
  /// executing, only submit-immutable fields are read). Empty output when
  /// nothing is in flight.
  void SerializeInFlight(std::string* out) const;

  /// Re-creates serialized submissions so each installs at its original
  /// contracted tick, in its original seeded order, with its original
  /// snapshot — checkpoint restore without cancel + re-request. Requires
  /// an empty service (CancelAll first); `now` is the restored tick
  /// counter. InvalidArgument (service left empty) when the blob does not
  /// match this service's configuration or clients.
  Status RestoreInFlight(const std::string& data, Tick now);

  /// Zeroes the per-tick stats windows (submitted / installed / wait) so
  /// the first SampleTick after a checkpoint restore reports a clean
  /// slate instead of the pre-restore tick's counters.
  void ResetStatsWindow();

  /// Copies the per-tick counters and resets the `submitted` window.
  void SampleTick(JobTickStats* out);

  size_t in_flight() const { return in_flight_; }
  int64_t total_installed() const { return total_installed_; }
  /// Jobs the barrier's drain ran because no worker had claimed them by
  /// their contracted install tick (deadline-miss fallback; in inline mode,
  /// every job).
  int64_t total_fallback_runs() const { return total_fallback_; }

 private:
  void WorkerLoop(int worker_index);
  void RunJob(JobSlot* slot, int scratch_index);
  /// Claims and runs every unclaimed job in `due_sorted_`: serially when
  /// there is one share or fewer than 2 such jobs, else `num_shares_`
  /// DrainShares across the pool.
  void Drain();
  void DrainShare(int share);
  void RecycleJob(JobSlot* slot);
  JobSlot* AcquireJobSlot();

  JobServiceOptions options_;
  std::vector<JobClient*> clients_;

  /// Flat pooled job arena: stable addresses, free-list recycling.
  std::vector<std::unique_ptr<JobSlot>> jobs_;
  std::vector<JobSlot*> free_jobs_;

  /// Pooled snapshots (refcounted by referencing jobs; barrier-owned).
  std::vector<std::unique_ptr<SnapshotView>> snapshots_;
  std::vector<SnapshotView*> free_snaps_;

  /// Per-latency FIFO of submitted slots. Submissions with one latency
  /// have monotone install ticks, so the slots due at tick T are exactly
  /// each queue's front run with install_tick == T — and each queue's
  /// high-water capacity tracks the largest burst at that latency (a
  /// tick-indexed ring would keep warming fresh buckets forever).
  struct DueQueue {
    std::vector<JobSlot*> items;
    size_t head = 0;
  };
  std::vector<DueQueue> due_;        ///< indexed by clamped latency
  std::vector<JobSlot*> due_sorted_;  ///< per-barrier scratch

  /// Drain fan-out: borrowed pool, shares per drain (pool threads + the
  /// barrier thread - workers, at least 1), the shared cursor over
  /// `due_sorted_`, and the jobs the shares ran.
  ThreadPool* pool_ = nullptr;
  int num_shares_ = 1;
  std::atomic<size_t> drain_next_{0};
  std::atomic<int64_t> drain_runs_{0};

  /// Per (scratch slot, client) scratch: one slot per worker, then one
  /// per drain share.
  std::vector<std::vector<std::unique_ptr<JobScratch>>> scratch_;

  // --- worker plumbing --------------------------------------------------
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< wakes workers (pending / stop)
  std::condition_variable done_cv_;  ///< wakes the barrier (job finished)
  /// One queued delivery. Carries its own copies of the submit-time fields
  /// the worker needs *before* claiming the slot (fault rolls): a stolen
  /// slot may be recycled and refilled while its stale delivery is still
  /// queued, so pre-claim reads must never touch the slot itself — only
  /// the claim CAS decides whether the pointed-to job is still this one.
  struct PendingEntry {
    JobSlot* slot;
    Tick submit_tick;
    uint64_t order_key;
    uint32_t attempt;  ///< deliveries already consumed by injected deaths
  };
  std::vector<PendingEntry> pending_;  ///< FIFO of deliveries
  size_t pending_head_ = 0;
  int running_ = 0;                  ///< jobs currently executing
  bool stop_ = false;

  // --- bookkeeping (barrier thread only) --------------------------------
  uint32_t seq_in_tick_ = 0;
  Tick seq_tick_ = -1;
  size_t in_flight_ = 0;
  int64_t total_installed_ = 0;
  int64_t total_fallback_ = 0;
  int64_t submitted_window_ = 0;
  int64_t last_installed_ = 0;
  int64_t last_wait_micros_ = 0;
};

}  // namespace sgl

#endif  // SGL_ASYNC_JOB_SERVICE_H_
