#include "src/async/job_service.h"

#include <algorithm>

#include "src/common/bin_io.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/fault/fault_injector.h"
#include "src/telemetry/telemetry.h"

namespace sgl {

namespace {

constexpr uint32_t kJobsBlobMagic = 0x534a4f42u;  // "BOJS"
constexpr uint32_t kJobsBlobVersion = 1;

void BusyDelayMicros(int64_t micros) {
  Stopwatch delay;
  while (delay.ElapsedMicros() < micros) {
    std::this_thread::yield();
  }
}

}  // namespace

JobService::JobService(const JobServiceOptions& options, ThreadPool* pool)
    : options_(options),
      pool_(pool),
      // The workers keep running through the drain, racing the shares
      // for the same due jobs, so the shares take only the threads the
      // workers leave of a parallel phase's pool threads + barrier
      // thread. More would oversubscribe the cores the tick was given,
      // and the drain's speed would then hinge on which cores happen to
      // be free.
      num_shares_(pool != nullptr
                      ? std::max(1, pool->num_threads() + 1 -
                                        options.num_workers)
                      : 1) {
  SGL_CHECK(options_.num_workers >= 0);
  due_.resize(static_cast<size_t>(kJobMaxLatency));
  // Sized once: workers and drain shares read the table concurrently.
  scratch_.resize(static_cast<size_t>(options_.num_workers + num_shares_));
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

JobService::~JobService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int JobService::RegisterClient(JobClient* client) {
  SGL_CHECK(in_flight_ == 0 && "register clients before submitting");
  clients_.push_back(client);
  // Every scratch exists before the first job: a drain share picks jobs
  // from a shared cursor, so the tick of its first job is timing-dependent
  // and must not be the tick that allocates its scratch.
  for (auto& per_slot : scratch_) per_slot.push_back(client->MakeScratch());
  return static_cast<int>(clients_.size()) - 1;
}

SnapshotView* JobService::AcquireSnapshot() {
  SnapshotView* snap;
  if (!free_snaps_.empty()) {
    snap = free_snaps_.back();
    free_snaps_.pop_back();
  } else {
    snapshots_.push_back(std::make_unique<SnapshotView>());
    snap = snapshots_.back().get();
  }
  SGL_CHECK(snap->refs_ == 0);
  return snap;
}

void JobService::ReleaseUnused(SnapshotView* snap) {
  if (snap == nullptr || snap->refs_ != 0) return;
  free_snaps_.push_back(snap);
}

JobSlot* JobService::AcquireJobSlot() {
  if (!free_jobs_.empty()) {
    JobSlot* slot = free_jobs_.back();
    free_jobs_.pop_back();
    return slot;
  }
  jobs_.push_back(std::make_unique<JobSlot>());
  return jobs_.back().get();
}

void JobService::RecycleJob(JobSlot* slot) {
  if (slot->snap != nullptr) {
    if (--slot->snap->refs_ == 0) free_snaps_.push_back(slot->snap);
    slot->snap = nullptr;
  }
  // `done` and `claim` are NOT reset here: a stale worker may still hold
  // this slot's pointer (it was stolen from it by the barrier's drain
  // while it was stalled pre-claim). Submit resets both only after the
  // slot's next job is fully written, which is what keeps that worker's
  // late CAS from claiming a half-filled slot.
  free_jobs_.push_back(slot);
}

void JobService::Submit(int client, uint64_t user_key, const uint64_t args[4],
                        SnapshotView* snap, int latency, Tick now) {
  SGL_CHECK(client >= 0 && client < static_cast<int>(clients_.size()));
  latency = std::max(1, std::min(latency, kJobMaxLatency - 1));
  if (now != seq_tick_) {
    seq_tick_ = now;
    seq_in_tick_ = 0;
  }
  JobSlot* slot = AcquireJobSlot();
  slot->user_key = user_key;
  for (int i = 0; i < 4; ++i) slot->args[i] = args[i];
  slot->submit_tick = now;
  slot->install_tick = now + latency;
  slot->seq = seq_in_tick_++;
  slot->client = client;
  slot->order_key = Mix64(options_.seed ^
                          (static_cast<uint64_t>(now) << 20) ^ slot->seq);
  slot->snap = snap;
  if (snap != nullptr) ++snap->refs_;
  // Field writes above happen-before the claim release: a stale worker
  // that CASes this recycled slot from here on runs a complete job.
  slot->done.store(0, std::memory_order_relaxed);
  slot->claim.store(0, std::memory_order_release);
  due_[static_cast<size_t>(latency)].items.push_back(slot);
  ++in_flight_;
  ++submitted_window_;
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.size() == pending_.capacity()) {
        // Before the queue grows, drop the deliveries already taken and
        // those no worker can win any more: the drain claimed their job,
        // or their slot holds a newer job with its own delivery. Workers
        // that fall behind then do not ratchet the queue's capacity.
        size_t kept = 0;
        for (size_t i = pending_head_; i < pending_.size(); ++i) {
          const PendingEntry& e = pending_[i];
          if (e.slot->claim.load(std::memory_order_acquire) == 0 &&
              e.slot->order_key == e.order_key) {
            pending_[kept++] = e;
          }
        }
        pending_.resize(kept);
        pending_head_ = 0;
      }
      pending_.push_back({slot, now, slot->order_key, 0});
    }
    work_cv_.notify_one();
  }
}

void JobService::RunJob(JobSlot* slot, int scratch_index) {
  // tick = the submit tick; arg = client id. Worker threads bind their own
  // span lanes, so Perfetto shows job execution on its own tid rows.
  SGL_TRACE_SPAN(options_.telemetry, kSpanJobRun, slot->submit_tick, 0,
                 static_cast<uint16_t>(slot->client));
  JobClient* client = clients_[static_cast<size_t>(slot->client)];
  client->Run(slot->snap, slot,
              scratch_[static_cast<size_t>(scratch_index)]
                      [static_cast<size_t>(slot->client)]
                          .get());
}

void JobService::WorkerLoop(int worker_index) {
  for (;;) {
    PendingEntry entry;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stop_ || pending_head_ < pending_.size();
      });
      if (stop_) return;
      entry = pending_[pending_head_++];
      if (pending_head_ == pending_.size()) {
        pending_.clear();
        pending_head_ = 0;
      }
      ++running_;
    }
    JobSlot* slot = entry.slot;
    uint64_t payload = 0;
    if (SGL_FAULT_POINT(options_.fault, kFaultAsyncWorkerDeath,
                        entry.submit_tick, entry.order_key ^ entry.attempt,
                        &payload)) {
      // Simulated worker death: the job is dropped before execution and
      // redelivered to the back of the queue (bounded by the retry
      // policy). Past the budget it stays unclaimed — the barrier's
      // drain runs it at its contracted install tick, so the declared
      // schedule holds either way.
      const bool redeliver =
          entry.attempt + 1 < static_cast<uint32_t>(kJobMaxAttempts);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (redeliver) {
          pending_.push_back(
              {slot, entry.submit_tick, entry.order_key, entry.attempt + 1});
        }
        --running_;
      }
      if (redeliver) work_cv_.notify_one();
      done_cv_.notify_all();
      continue;
    }
    if (SGL_FAULT_POINT(options_.fault, kFaultAsyncWorkerStall,
                        entry.submit_tick, entry.order_key, &payload)) {
      // Simulated stall, long enough to blow the job's deadline when the
      // payload says so. Runs before the claim, so a stalled worker can
      // lose its job to the barrier instead of stalling the tick.
      BusyDelayMicros(payload != 0 ? static_cast<int64_t>(payload) : 1000);
    }
    uint32_t expected = 0;
    if (!slot->claim.compare_exchange_strong(expected, 1,
                                             std::memory_order_acq_rel)) {
      // Lost the claim: the barrier's drain already ran this job (or
      // this is a stale pointer to a since-recycled slot).
      {
        std::lock_guard<std::mutex> lock(mu_);
        --running_;
      }
      done_cv_.notify_all();
      continue;
    }
    RunJob(slot, worker_index);
    {
      std::lock_guard<std::mutex> lock(mu_);
      slot->done.store(1, std::memory_order_release);
      --running_;
    }
    done_cv_.notify_all();
  }
}

void JobService::Drain() {
  // Deadline fallback: every due job no worker has claimed by its
  // contracted install tick (all of them in inline mode; stalled or
  // dropped ones otherwise) runs now, in drain shares. A share claims a
  // job with the same CAS the workers use, so a stalled worker's late
  // claim loses and drops the slot. Each job is a pure function of its
  // snapshot and args, and installs happen afterwards in seeded order, so
  // which thread ran it changes no state.
  size_t unclaimed = 0;
  for (const JobSlot* slot : due_sorted_) {
    if (slot->claim.load(std::memory_order_relaxed) == 0) ++unclaimed;
  }
  if (unclaimed == 0) return;
  drain_next_.store(0, std::memory_order_relaxed);
  if (num_shares_ < 2 || unclaimed < 2) {
    DrainShare(0);  // not worth waking the pool
  } else {
    pool_->ParallelFor(num_shares_, [this](int share) { DrainShare(share); });
  }
  total_fallback_ += drain_runs_.exchange(0, std::memory_order_relaxed);
}

void JobService::DrainShare(int share) {
  const int scratch_index = options_.num_workers + share;
  int64_t runs = 0;
  for (size_t i = drain_next_.fetch_add(1, std::memory_order_relaxed);
       i < due_sorted_.size();
       i = drain_next_.fetch_add(1, std::memory_order_relaxed)) {
    JobSlot* slot = due_sorted_[i];
    uint32_t expected = 0;
    if (!slot->claim.compare_exchange_strong(expected, 1,
                                             std::memory_order_acq_rel)) {
      continue;  // a worker has it; the install loop waits if it must
    }
    RunJob(slot, scratch_index);
    slot->done.store(1, std::memory_order_release);
    ++runs;
  }
  drain_runs_.fetch_add(runs, std::memory_order_relaxed);
}

void JobService::InstallDue(Tick tick) {
  last_installed_ = 0;
  last_wait_micros_ = 0;
  due_sorted_.clear();
  for (DueQueue& queue : due_) {
    while (queue.head < queue.items.size()) {
      JobSlot* slot = queue.items[queue.head];
      SGL_CHECK(slot->install_tick >= tick &&
                "missed barrier — InstallDue must run every tick");
      if (slot->install_tick != tick) break;
      due_sorted_.push_back(slot);
      ++queue.head;
    }
    if (queue.head == queue.items.size()) {
      queue.items.clear();
      queue.head = 0;
    } else if (queue.head > 0 && queue.head * 2 >= queue.items.size()) {
      // Compact the drained prefix in place (no allocation) so a queue
      // under continuous traffic stays bounded by its in-flight window.
      queue.items.erase(queue.items.begin(),
                        queue.items.begin() +
                            static_cast<ptrdiff_t>(queue.head));
      queue.head = 0;
    }
  }
  if (due_sorted_.empty()) return;
  std::sort(due_sorted_.begin(), due_sorted_.end(),
            [](const JobSlot* a, const JobSlot* b) {
              if (a->order_key != b->order_key) {
                return a->order_key < b->order_key;
              }
              if (a->submit_tick != b->submit_tick) {
                return a->submit_tick < b->submit_tick;
              }
              return a->seq < b->seq;
            });
  Drain();
  for (JobSlot* slot : due_sorted_) {
    if (slot->done.load(std::memory_order_acquire) == 0) {
      // A worker claimed it and is still running: the barrier waits. This
      // is the only place async execution can stall a tick, and only by
      // as much as the job actually overran.
      Stopwatch wait;
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [slot] {
        return slot->done.load(std::memory_order_acquire) != 0;
      });
      last_wait_micros_ += wait.ElapsedMicros();
    }
    clients_[static_cast<size_t>(slot->client)]->Install(*slot);
    RecycleJob(slot);
    --in_flight_;
    ++total_installed_;
    ++last_installed_;
  }
  due_sorted_.clear();
}

void JobService::CancelAll() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    pending_.clear();
    pending_head_ = 0;
    done_cv_.wait(lock, [this] { return running_ == 0; });
  }
  for (DueQueue& queue : due_) {
    for (size_t i = queue.head; i < queue.items.size(); ++i) {
      RecycleJob(queue.items[i]);
      --in_flight_;
    }
    queue.items.clear();
    queue.head = 0;
  }
  SGL_CHECK(in_flight_ == 0);
  // A restore may replay the submit tick: sequence numbers (and with them
  // the seeded order keys) must restart exactly as a fresh run would
  // assign them.
  seq_tick_ = -1;
  seq_in_tick_ = 0;
}

void JobService::SerializeInFlight(std::string* out) const {
  out->clear();
  if (in_flight_ == 0) return;
  binio::Append<uint32_t>(out, kJobsBlobMagic);
  binio::Append<uint32_t>(out, kJobsBlobVersion);
  // Jobs are walked in due-queue order (latency ascending, FIFO within a
  // queue) so a restore rebuilding the queues in blob order re-creates the
  // exact monotone-install-tick invariant InstallDue depends on. Snapshots
  // are emitted in first-reference order; jobs point into that table by
  // index. Only submit-immutable fields are read here — workers may still
  // be executing these very jobs.
  std::vector<const SnapshotView*> snaps;
  std::string jobs_buf;
  uint64_t num_jobs = 0;
  for (const DueQueue& queue : due_) {
    for (size_t i = queue.head; i < queue.items.size(); ++i) {
      const JobSlot* slot = queue.items[i];
      int64_t snap_index = -1;
      if (slot->snap != nullptr) {
        for (size_t s = 0; s < snaps.size(); ++s) {
          if (snaps[s] == slot->snap) {
            snap_index = static_cast<int64_t>(s);
            break;
          }
        }
        if (snap_index < 0) {
          snap_index = static_cast<int64_t>(snaps.size());
          snaps.push_back(slot->snap);
        }
      }
      binio::Append<int32_t>(&jobs_buf, slot->client);
      binio::AppendString(
          &jobs_buf,
          clients_[static_cast<size_t>(slot->client)]->client_name());
      binio::Append<uint64_t>(&jobs_buf, slot->user_key);
      for (int a = 0; a < 4; ++a) {
        binio::Append<uint64_t>(&jobs_buf, slot->args[a]);
      }
      binio::Append<int64_t>(&jobs_buf, slot->submit_tick);
      binio::Append<int64_t>(&jobs_buf, slot->install_tick);
      binio::Append<uint32_t>(&jobs_buf, slot->seq);
      binio::Append<int32_t>(&jobs_buf, 0);  // reserved: 0, ignored on read
      binio::Append<uint64_t>(&jobs_buf, slot->order_key);
      binio::Append<int64_t>(&jobs_buf, snap_index);
      ++num_jobs;
    }
  }
  binio::Append<uint64_t>(out, static_cast<uint64_t>(snaps.size()));
  for (const SnapshotView* snap : snaps) snap->Serialize(out);
  binio::Append<uint64_t>(out, num_jobs);
  out->append(jobs_buf);
  // The per-tick sequence counters are deliberately NOT serialized:
  // checkpoints are taken at a tick boundary, so every in-flight job has
  // submit_tick < the restored tick counter, and the first post-restore
  // Submit resets seq_tick_/seq_in_tick_ exactly as the uninterrupted run
  // would have.
}

Status JobService::RestoreInFlight(const std::string& data, Tick now) {
  SGL_CHECK(in_flight_ == 0 && "CancelAll before RestoreInFlight");
  if (data.empty()) return Status::OK();
  const char* cur = data.data();
  const char* end = cur + data.size();
  uint32_t magic = 0, version = 0;
  if (!binio::Read(&cur, end, &magic) || magic != kJobsBlobMagic) {
    return Status::InvalidArgument("job blob: bad magic");
  }
  if (!binio::Read(&cur, end, &version) || version != kJobsBlobVersion) {
    return Status::InvalidArgument("job blob: unsupported version");
  }
  // Phase 1: parse and validate everything before mutating any queue, so a
  // mismatched or corrupt blob leaves the service exactly as empty as it
  // found it (the caller then falls back to cancel + re-request recovery).
  uint64_t num_snaps = 0;
  if (!binio::Read(&cur, end, &num_snaps) ||
      num_snaps > static_cast<uint64_t>(end - cur)) {
    return Status::InvalidArgument("job blob: truncated snapshot table");
  }
  std::vector<SnapshotView*> snaps;
  snaps.reserve(static_cast<size_t>(num_snaps));
  auto release_snaps = [this, &snaps]() {
    for (SnapshotView* snap : snaps) ReleaseUnused(snap);
  };
  for (uint64_t s = 0; s < num_snaps; ++s) {
    SnapshotView* snap = AcquireSnapshot();
    snaps.push_back(snap);
    if (!snap->DeserializeFrom(&cur, end)) {
      release_snaps();
      return Status::InvalidArgument("job blob: corrupt snapshot");
    }
  }
  struct ParsedJob {
    int32_t client;
    uint64_t user_key;
    uint64_t args[4];
    Tick submit_tick;
    Tick install_tick;
    uint32_t seq;
    uint64_t order_key;
    int64_t snap_index;
  };
  uint64_t num_jobs = 0;
  if (!binio::Read(&cur, end, &num_jobs) ||
      num_jobs > static_cast<uint64_t>(end - cur)) {
    release_snaps();
    return Status::InvalidArgument("job blob: truncated job table");
  }
  std::vector<ParsedJob> parsed;
  parsed.reserve(static_cast<size_t>(num_jobs));
  std::string name;
  for (uint64_t j = 0; j < num_jobs; ++j) {
    ParsedJob job;
    int64_t submit = 0, install = 0;
    int32_t reserved = 0;
    bool ok = binio::Read(&cur, end, &job.client) &&
              binio::ReadString(&cur, end, &name) &&
              binio::Read(&cur, end, &job.user_key);
    for (int a = 0; ok && a < 4; ++a) {
      ok = binio::Read(&cur, end, &job.args[a]);
    }
    ok = ok && binio::Read(&cur, end, &submit) &&
         binio::Read(&cur, end, &install) &&
         binio::Read(&cur, end, &job.seq) &&
         binio::Read(&cur, end, &reserved) &&
         binio::Read(&cur, end, &job.order_key) &&
         binio::Read(&cur, end, &job.snap_index);
    if (!ok) {
      release_snaps();
      return Status::InvalidArgument("job blob: truncated job record");
    }
    job.submit_tick = static_cast<Tick>(submit);
    job.install_tick = static_cast<Tick>(install);
    if (job.client < 0 ||
        job.client >= static_cast<int32_t>(clients_.size()) ||
        name != clients_[static_cast<size_t>(job.client)]->client_name()) {
      release_snaps();
      return Status::InvalidArgument("job blob: client mismatch: " + name);
    }
    const Tick latency = job.install_tick - job.submit_tick;
    if (latency < 1 || latency >= kJobMaxLatency ||
        job.install_tick < now) {
      release_snaps();
      return Status::InvalidArgument("job blob: install tick out of range");
    }
    if (job.snap_index >= static_cast<int64_t>(snaps.size())) {
      release_snaps();
      return Status::InvalidArgument("job blob: bad snapshot index");
    }
    parsed.push_back(job);
  }
  // Phase 2: commit. Each submission re-enters the service with its
  // original contracted install tick, seeded order key, and sequence — not
  // re-derived — so the post-restore install stream is bit-identical to
  // the uninterrupted run's.
  for (const ParsedJob& job : parsed) {
    JobSlot* slot = AcquireJobSlot();
    slot->user_key = job.user_key;
    for (int a = 0; a < 4; ++a) slot->args[a] = job.args[a];
    slot->submit_tick = job.submit_tick;
    slot->install_tick = job.install_tick;
    slot->seq = job.seq;
    slot->client = job.client;
    slot->order_key = job.order_key;
    slot->snap =
        job.snap_index < 0 ? nullptr
                           : snaps[static_cast<size_t>(job.snap_index)];
    if (slot->snap != nullptr) ++slot->snap->refs_;
    slot->done.store(0, std::memory_order_relaxed);
    slot->claim.store(0, std::memory_order_release);
    due_[static_cast<size_t>(job.install_tick - job.submit_tick)]
        .items.push_back(slot);
    ++in_flight_;
    if (!workers_.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back({slot, slot->submit_tick, slot->order_key, 0});
    }
  }
  if (!workers_.empty()) work_cv_.notify_all();
  release_snaps();  // no-op for any snapshot a committed job references
  return Status::OK();
}

void JobService::ResetStatsWindow() {
  submitted_window_ = 0;
  last_installed_ = 0;
  last_wait_micros_ = 0;
}

void JobService::SampleTick(JobTickStats* out) {
  out->submitted = submitted_window_;
  out->installed = last_installed_;
  out->in_flight = static_cast<int64_t>(in_flight_);
  out->wait_micros = last_wait_micros_;
  submitted_window_ = 0;
}

}  // namespace sgl
