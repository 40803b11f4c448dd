// Tests for the asynchronous out-of-band job subsystem (src/async/):
//
//   * JobService unit behavior — results install at exactly
//     submit + latency in seeded deterministic order, for any worker
//     count and with the barrier's drain fanned out over a thread pool;
//     the barrier blocks on stragglers; CancelAll drops cleanly.
//   * Async pathfinding determinism — world checksums are bit-identical
//     across job-worker counts {0 (inline), 1, 4} × shard counts {1, 2, 4}
//     × tick-thread counts {1, 2, 4}, including goal churn, crowd-penalty
//     snapshots, and background refreshes.
//   * Forced-slow-job stress — workers stalled through the
//     async.worker.stall fault site for many ticks per search change
//     nothing but wall-clock.
//   * Request dedup, functional pathfinding, and checkpoint-restore
//     behavior with jobs in flight; corrupt request-cache blobs are
//     refused, not allocated.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <thread>

#include "src/async/async_pathfind.h"
#include "src/async/job_service.h"
#include "src/common/bin_io.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/debug/checkpoint.h"
#include "src/fault/fault_injector.h"
#include "src/sim/armies.h"

namespace sgl {
namespace {

// --- JobService unit tests -------------------------------------------------

class RecordingClient : public JobClient {
 public:
  struct Record {
    uint64_t key;
    Tick tick;
    uint64_t value;
  };

  const char* client_name() const override { return "recorder"; }
  void Run(const SnapshotView* snap, JobSlot* job,
           JobScratch* scratch) override {
    (void)snap;
    (void)scratch;
    job->result[0] = job->args[0] * 3 + 1;  // pure function of the args
  }
  std::unique_ptr<JobScratch> MakeScratch() override {
    class Empty : public JobScratch {};
    return std::make_unique<Empty>();
  }
  void Install(const JobSlot& job) override {
    installs.push_back({job.user_key, job.install_tick, job.result[0]});
  }

  std::vector<Record> installs;
};

// Forced-slow jobs: a plan whose one rule stalls every worker delivery
// `delay` micros at the async.worker.stall site, before the claim. Null
// (no stall) when `delay` is 0.
std::unique_ptr<FaultInjector> StallEveryJob(int64_t delay) {
  if (delay <= 0) return nullptr;
  FaultRule stall;
  stall.site = kFaultAsyncWorkerStall.name;
  stall.payload = static_cast<uint64_t>(delay);
  FaultPlan plan;
  plan.rules.push_back(stall);
  return std::make_unique<FaultInjector>(plan);
}

std::vector<RecordingClient::Record> RunServiceScenario(int workers,
                                                         int64_t delay = 0) {
  const std::unique_ptr<FaultInjector> stall = StallEveryJob(delay);
  JobServiceOptions options;
  options.num_workers = workers;
  options.seed = 77;
  options.fault = stall.get();
  JobService service(options);
  RecordingClient client;
  const int id = service.RegisterClient(&client);
  // Two ticks of submissions with mixed latencies.
  for (Tick tick = 10; tick <= 11; ++tick) {
    for (uint64_t k = 0; k < 6; ++k) {
      const uint64_t args[4] = {k + static_cast<uint64_t>(tick) * 100, 0, 0,
                                0};
      service.Submit(id, args[0], args, nullptr,
                     /*latency=*/k % 2 == 0 ? 2 : 3, tick);
    }
    service.InstallDue(tick);  // nothing is ever due on its submit tick
    EXPECT_TRUE(client.installs.empty());
  }
  for (Tick tick = 12; tick <= 14; ++tick) service.InstallDue(tick);
  EXPECT_EQ(service.in_flight(), 0u);
  EXPECT_EQ(service.total_installed(), 12);
  return client.installs;
}

TEST(JobServiceTest, InstallsAtDeclaredTickRegardlessOfWorkers) {
  const auto baseline = RunServiceScenario(0);
  ASSERT_EQ(baseline.size(), 12u);
  // Latency-2 submissions from tick 10 land at 12, latency-3 at 13, etc.
  for (const auto& install : baseline) {
    const Tick submit = static_cast<Tick>(install.key / 100);
    const int latency = install.key % 2 == 0 ? 2 : 3;
    EXPECT_EQ(install.tick, submit + latency) << "key " << install.key;
    EXPECT_EQ(install.value, install.key * 3 + 1);
  }
  for (int workers : {1, 4}) {
    const auto got = RunServiceScenario(workers);
    ASSERT_EQ(got.size(), baseline.size()) << workers << " workers";
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, baseline[i].key)
          << "install order diverged at " << i << " with " << workers
          << " workers";
      EXPECT_EQ(got[i].tick, baseline[i].tick);
      EXPECT_EQ(got[i].value, baseline[i].value);
    }
  }
}

TEST(JobServiceTest, BarrierBlocksOnSlowJobs) {
  // 5ms of forced work per job, with installs due moments after
  // submission: the barrier must wait for the stragglers, and the results
  // must be exactly the inline ones.
  const auto slow = RunServiceScenario(2, /*delay=*/5000);
  const auto fast = RunServiceScenario(0);
  ASSERT_EQ(slow.size(), fast.size());
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].key, fast[i].key);
    EXPECT_EQ(slow[i].value, fast[i].value);
  }
}

// RecordingClient whose Run takes ~200us and notes the thread it ran on,
// so a drain fanned out over a pool has time to reach every share.
class ThreadNotingClient : public RecordingClient {
 public:
  void Run(const SnapshotView* snap, JobSlot* job,
           JobScratch* scratch) override {
    Stopwatch spin;
    while (spin.ElapsedMicros() < 200) {
    }
    RecordingClient::Run(snap, job, scratch);
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  }

  std::mutex mu;
  std::set<std::thread::id> threads;
};

// 64 jobs submitted at tick 0, all due at tick 1. Returns the installs,
// the drain's run count and the distinct threads that ran a job.
std::vector<RecordingClient::Record> RunDueBurst(int workers, int64_t delay,
                                                 ThreadPool* pool,
                                                 int64_t* fallback_runs,
                                                 size_t* run_threads) {
  const std::unique_ptr<FaultInjector> stall = StallEveryJob(delay);
  JobServiceOptions options;
  options.num_workers = workers;
  options.seed = 77;
  options.fault = stall.get();
  JobService service(options, pool);
  ThreadNotingClient client;
  const int id = service.RegisterClient(&client);
  for (uint64_t k = 0; k < 64; ++k) {
    const uint64_t args[4] = {k, 0, 0, 0};
    service.Submit(id, k, args, nullptr, /*latency=*/1, /*now=*/0);
  }
  service.InstallDue(1);
  EXPECT_EQ(service.in_flight(), 0u);
  *fallback_runs = service.total_fallback_runs();
  *run_threads = client.threads.size();
  return client.installs;
}

TEST(JobServiceTest, PoolDrainInstallsInSeededOrder) {
  int64_t fallbacks = 0;
  size_t run_threads = 0;
  const auto baseline =
      RunDueBurst(0, 0, nullptr, &fallbacks, &run_threads);
  ASSERT_EQ(baseline.size(), 64u);
  EXPECT_EQ(run_threads, 1u) << "no pool: the barrier thread runs all";
  // The one worker stalls 50ms before each claim, so the drain gets
  // (nearly) every job and spreads it over the pool and the barrier.
  ThreadPool pool(3);
  const auto got = RunDueBurst(1, /*delay=*/50000, &pool, &fallbacks,
                               &run_threads);
  ASSERT_EQ(got.size(), baseline.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, baseline[i].key) << "install order at " << i;
    EXPECT_EQ(got[i].tick, baseline[i].tick);
    EXPECT_EQ(got[i].value, baseline[i].value);
  }
  EXPECT_GT(fallbacks, 0) << "the drain ran nothing";
  if (std::thread::hardware_concurrency() >= 2) {
    EXPECT_GT(run_threads, 1u) << "the drain never left the barrier thread";
  }
}

TEST(JobServiceTest, CancelAllDropsPendingAndInFlight) {
  const std::unique_ptr<FaultInjector> stall = StallEveryJob(2000);
  JobServiceOptions options;
  options.num_workers = 2;
  options.fault = stall.get();
  JobService service(options);
  RecordingClient client;
  const int id = service.RegisterClient(&client);
  for (uint64_t k = 0; k < 16; ++k) {
    const uint64_t args[4] = {k, 0, 0, 0};
    service.Submit(id, k, args, nullptr, 2, /*now=*/0);
  }
  service.CancelAll();
  EXPECT_EQ(service.in_flight(), 0u);
  for (Tick tick = 1; tick <= 4; ++tick) service.InstallDue(tick);
  EXPECT_TRUE(client.installs.empty());
  // The service remains usable after a cancel.
  const uint64_t args[4] = {99, 0, 0, 0};
  service.Submit(id, 99, args, nullptr, 1, /*now=*/5);
  service.InstallDue(6);
  ASSERT_EQ(client.installs.size(), 1u);
  EXPECT_EQ(client.installs[0].key, 99u);
}

TEST(JobServiceTest, SnapshotPoolRecycles) {
  JobServiceOptions options;
  JobService service(options);
  RecordingClient client;
  const int id = service.RegisterClient(&client);
  SnapshotView* first = service.AcquireSnapshot();
  const uint64_t args[4] = {1, 0, 0, 0};
  service.Submit(id, 1, args, first, 1, 0);
  service.InstallDue(1);  // releases the job's snapshot reference
  SnapshotView* second = service.AcquireSnapshot();
  EXPECT_EQ(first, second) << "snapshot slot should be recycled";
  service.ReleaseUnused(second);
}

// --- Async pathfinding determinism ----------------------------------------

ArmiesConfig SmallArmies() {
  ArmiesConfig config;
  config.num_units = 384;
  config.map_w = 40;
  config.map_h = 40;
  config.num_armies = 6;
  config.num_rally = 4;
  config.wall_density = 0.08;
  config.async_pathfind = true;
  config.async.latency_ticks = 2;
  config.async.result_ttl_ticks = 12;
  config.async.refresh_after_ticks = 5;  // keep jobs in flight throughout
  config.async.crowd_penalty = 0.5;      // jobs read the position snapshot
  return config;
}

uint64_t RunArmies(const ArmiesConfig& config, int workers, int shards,
                   int threads, int ticks = 40, int64_t delay = 0) {
  const std::unique_ptr<FaultInjector> stall = StallEveryJob(delay);
  EngineOptions options;
  options.exec.jobs.num_workers = workers;
  options.exec.fault = stall.get();  // the engine hands it to JobService
  options.exec.num_shards = shards;
  options.exec.num_threads = threads;
  auto engine = ArmiesWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  for (int t = 0; t < ticks; ++t) {
    if (t == ticks / 2) {
      // Orders change mid-run: every army repaths.
      ArmiesWorkload::Retarget(engine->get(), config, 1);
    }
    EXPECT_TRUE((*engine)->Tick().ok());
  }
  return WorldChecksum((*engine)->world());
}

TEST(AsyncPathfindTest, ChecksumParityAcrossWorkersShardsThreads) {
  const ArmiesConfig config = SmallArmies();
  const uint64_t baseline = RunArmies(config, /*workers=*/0, 1, 1);
  EXPECT_EQ(RunArmies(config, 1, 1, 1), baseline) << "1 worker";
  EXPECT_EQ(RunArmies(config, 4, 1, 1), baseline) << "4 workers";
  EXPECT_EQ(RunArmies(config, 4, 1, 4), baseline) << "4 workers, 4 threads";
  EXPECT_EQ(RunArmies(config, 0, 4, 1), baseline) << "inline, 4 shards";
  EXPECT_EQ(RunArmies(config, 0, 1, 4), baseline)
      << "inline, 4 threads: every job runs in the pool drain";
  EXPECT_EQ(RunArmies(config, 1, 2, 2), baseline)
      << "1 worker, 2 shards, 2 threads (the tick-anatomy shape)";
  EXPECT_EQ(RunArmies(config, 4, 4, 4), baseline)
      << "4 workers, 4 shards, 4 threads";
}

TEST(AsyncPathfindTest, ForcedSlowJobsChangeNothingButWallClock) {
  ArmiesConfig config = SmallArmies();
  config.num_units = 128;
  config.map_w = 28;
  config.map_h = 28;
  // Every search takes ~2ms: at ~100 searches per wave and 2 workers, jobs
  // genuinely span many ticks — the declared-latency barrier is what keeps
  // the state identical to the instant-execution runs.
  const int ticks = 16;
  const uint64_t slow = RunArmies(config, 2, 1, 1, ticks, /*delay=*/2000);
  EXPECT_EQ(RunArmies(config, 2, 1, 1, ticks, 0), slow);
  EXPECT_EQ(RunArmies(config, 0, 1, 1, ticks, 0), slow);
}

// The walker battery from components_test, now asynchronous: the march
// must still get there, latency and all.
const char* WalkerSource() {
  return R"sgl(
class Walker {
  state:
    number x = 0;
    number y = 0;
    number waypoint_x = 0;
    number waypoint_y = 0;
    number tx = 0;
    number ty = 0;
  effects:
    number goal_x : last;
    number goal_y : last;
  update:
    x = waypoint_x;
    y = waypoint_y;
}
script Seek for Walker {
  goal_x <- tx;
  goal_y <- ty;
}
)sgl";
}

TEST(AsyncPathfindTest, WalkerReachesGoalThroughMaze) {
  EngineOptions options;
  options.exec.jobs.num_workers = 2;
  auto engine = Engine::Create(WalkerSource(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  GridMap map(20, 20, 1.0);
  for (int y = 0; y < 19; ++y) map.SetBlocked(10, y, true);
  AsyncPathfinderConfig config;
  config.cls = "Walker";
  config.latency_ticks = 2;
  ASSERT_TRUE((*engine)->AddAsyncPathfinder(config, std::move(map)).ok());
  auto id = (*engine)->Spawn("Walker", {{"x", Value::Number(2.5)},
                                        {"y", Value::Number(2.5)},
                                        {"waypoint_x", Value::Number(2.5)},
                                        {"waypoint_y", Value::Number(2.5)},
                                        {"tx", Value::Number(17.5)},
                                        {"ty", Value::Number(2.5)}});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*engine)->RunTicks(80).ok());
  EXPECT_NEAR(17.5, (*engine)->Get(*id, "x")->AsNumber(), 1.0);
  EXPECT_NEAR(2.5, (*engine)->Get(*id, "y")->AsNumber(), 1.0);
}

TEST(AsyncPathfindTest, SharedRequestsDedupToOneSearch) {
  EngineOptions options;
  options.exec.jobs.num_workers = 2;
  auto engine = Engine::Create(WalkerSource(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  GridMap map(20, 20, 1.0);
  AsyncPathfinderConfig config;
  config.cls = "Walker";
  config.latency_ticks = 2;
  auto comp = AsyncPathfindComponent::Create(
      (*engine)->catalog(), config, std::move(map),
      &(*engine)->executor().jobs());
  ASSERT_TRUE(comp.ok()) << comp.status();
  AsyncPathfindComponent* pathfinder = comp->get();
  ASSERT_TRUE((*engine)->AddComponent(std::move(*comp)).ok());
  // 40 walkers on the same cell heading to the same goal: one job.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE((*engine)
                    ->Spawn("Walker", {{"x", Value::Number(2.2)},
                                       {"y", Value::Number(2.2)},
                                       {"waypoint_x", Value::Number(2.2)},
                                       {"waypoint_y", Value::Number(2.2)},
                                       {"tx", Value::Number(15.5)},
                                       {"ty", Value::Number(15.5)}})
                    .ok());
  }
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_EQ(pathfinder->total().submitted, 1);
  EXPECT_EQ(pathfinder->total().stalls, 40);
  // After the declared latency everyone takes the identical first step —
  // and the path-seeded cache keeps serving the rest of the march without
  // a single further search (every walker stays on the computed route).
  ASSERT_TRUE((*engine)->RunTicks(8).ok());
  EXPECT_EQ(pathfinder->total().submitted, 1);
  EXPECT_GT(pathfinder->total().cache_hits, 0);
  double x0 = (*engine)->Get(1, "x")->AsNumber();
  EXPECT_NE(2.2, x0) << "walkers should be moving by now";
  for (EntityId id = 2; id <= 40; ++id) {
    EXPECT_DOUBLE_EQ(x0, (*engine)->Get(id, "x")->AsNumber());
  }
}

TEST(AsyncPathfindTest, RestoreWithJobsInFlightIsDeterministic) {
  const ArmiesConfig config = SmallArmies();
  EngineOptions options;
  options.exec.jobs.num_workers = 4;
  auto engine = ArmiesWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RunTicks(10).ok());
  ArmiesWorkload::Retarget(engine->get(), config, 1);
  ASSERT_TRUE((*engine)->Tick().ok());  // new submissions now in flight
  EXPECT_GT((*engine)->last_stats().jobs_in_flight, 0);
  const Checkpoint cp = (*engine)->TakeCheckpoint();

  // Two restores with different worker counts: in-flight work is
  // cancelled, components re-request, and the resumed trajectories are
  // bit-identical to each other.
  auto resume = [&](int workers) {
    EngineOptions ro;
    ro.exec.jobs.num_workers = workers;
    auto resumed = ArmiesWorkload::Build(config, ro);
    EXPECT_TRUE(resumed.ok());
    EXPECT_TRUE((*resumed)->Restore(cp).ok());
    EXPECT_TRUE((*resumed)->RunTicks(20).ok());
    return WorldChecksum((*resumed)->world());
  };
  const uint64_t fresh = resume(0);
  EXPECT_EQ(fresh, resume(4));

  // An *in-place* restore replays the submit tick on the same engine:
  // submission sequence numbers (and with them the seeded order keys)
  // must restart exactly as a fresh run assigns them, or the install
  // order — and the seeded cache — diverges.
  ASSERT_TRUE((*engine)->Restore(cp).ok());
  ASSERT_TRUE((*engine)->RunTicks(20).ok());
  EXPECT_EQ(WorldChecksum((*engine)->world()), fresh)
      << "in-place restore diverged from fresh-engine restore";
}

// A pathfind-cache blob header: magic, version, last sweep, capacity and
// entry count (no entries follow).
std::string PathCacheHeader(uint64_t capacity) {
  std::string blob;
  binio::Append<uint32_t>(&blob, 0x50464348u);
  binio::Append<uint32_t>(&blob, 1);
  binio::Append<int64_t>(&blob, 0);
  binio::Append<uint64_t>(&blob, capacity);
  binio::Append<uint64_t>(&blob, 0);
  return blob;
}

// LoadState refuses, before allocating, a capacity the cache can never
// reach on this map: a corrupt checkpoint must not throw std::bad_alloc
// out of Engine::Restore.
TEST(AsyncPathfindTest, LoadStateRefusesCapacityBeyondKeySpace) {
  ArmiesConfig config = SmallArmies();
  config.num_units = 256;
  config.map_w = 16;
  config.map_h = 16;
  config.num_armies = 4;
  auto engine = ArmiesWorkload::Build(config, EngineOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->RunTicks(8).ok());
  Checkpoint cp = (*engine)->TakeCheckpoint();

  // Swap the pathfinder's blob for a header naming 2^44 slots.
  const std::string corrupt = PathCacheHeader(uint64_t{1} << 44);
  std::string section;
  const char* cur = cp.components.data();
  const char* end = cur + cp.components.size();
  std::string name, blob;
  bool swapped = false;
  while (cur != end) {
    ASSERT_TRUE(binio::ReadString(&cur, end, &name));
    ASSERT_TRUE(binio::ReadString(&cur, end, &blob));
    if (name == "async_pathfind") {
      blob = corrupt;
      swapped = true;
    }
    binio::AppendString(&section, name);
    binio::AppendString(&section, blob);
  }
  ASSERT_TRUE(swapped);
  cp.components = section;
  // The rejected blob drops the cache; the restore and later ticks succeed.
  ASSERT_TRUE((*engine)->Restore(cp).ok());
  ASSERT_TRUE((*engine)->RunTicks(4).ok());

  AsyncPathfindComponent* pathfinder = nullptr;
  ComponentRegistry& registry = (*engine)->executor().components();
  for (int i = 0; i < registry.num_components(); ++i) {
    if (registry.component(i)->name() == "async_pathfind") {
      pathfinder = static_cast<AsyncPathfindComponent*>(registry.component(i));
    }
  }
  ASSERT_NE(pathfinder, nullptr);
  EXPECT_EQ(pathfinder->LoadState(corrupt.data(), corrupt.size()).code(),
            StatusCode::kInvalidArgument);
  // 16x16 cells give 65280 (start, goal) keys: 2^17 slots is the most the
  // cache can grow to, so it loads and 2^18 does not.
  const std::string largest = PathCacheHeader(uint64_t{1} << 17);
  EXPECT_TRUE(pathfinder->LoadState(largest.data(), largest.size()).ok());
  const std::string beyond = PathCacheHeader(uint64_t{1} << 18);
  EXPECT_EQ(pathfinder->LoadState(beyond.data(), beyond.size()).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sgl
