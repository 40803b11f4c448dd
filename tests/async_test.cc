// Tests for the asynchronous out-of-band job subsystem (src/async/):
//
//   * JobService unit behavior — results install at exactly
//     submit + latency in seeded deterministic order, for any worker
//     count; the barrier's drain runs unclaimed jobs on the thread that
//     called Tick(), also in an engine with a tick pool; the barrier
//     blocks on stragglers; CancelAll drops cleanly.
//   * Async pathfinding determinism — world checksums are bit-identical
//     across job-worker counts {0 (inline), 1, 4} × tick-thread counts
//     {1, 2, 4} × morsel sizes {64, 2048}, including goal churn, crowd-penalty
//     snapshots, and the per-tick crowd refresh of one goal field.
//   * Forced-slow-job stress — workers stalled through the
//     async.worker.stall fault site for many ticks per search change
//     nothing but wall-clock.
//   * One job per goal, functional pathfinding, stale-field re-search,
//     unreachable goals, off-map entities, and checkpoint-restore behavior
//     with jobs in flight; old and corrupt goal-field blobs are refused,
//     not allocated.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>

#include "src/async/async_pathfind.h"
#include "src/async/job_service.h"
#include "src/common/alloc_hook.h"
#include "src/common/bin_io.h"
#include "src/common/stopwatch.h"
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
// so any thread that could take a job has time to reach one.
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
                                                 int64_t* fallback_runs,
                                                 size_t* run_threads) {
  const std::unique_ptr<FaultInjector> stall = StallEveryJob(delay);
  JobServiceOptions options;
  options.num_workers = workers;
  options.seed = 77;
  options.fault = stall.get();
  JobService service(options);
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

TEST(JobServiceTest, StalledWorkerDrainInstallsInSeededOrder) {
  int64_t fallbacks = 0;
  size_t run_threads = 0;
  const auto baseline = RunDueBurst(0, 0, &fallbacks, &run_threads);
  ASSERT_EQ(baseline.size(), 64u);
  EXPECT_EQ(run_threads, 1u) << "inline: the barrier thread runs all";
  // The one worker stalls 50ms before each claim, so the barrier's drain
  // gets (nearly) every job and races the worker for each claim.
  const auto got = RunDueBurst(1, /*delay=*/50000, &fallbacks, &run_threads);
  ASSERT_EQ(got.size(), baseline.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, baseline[i].key) << "install order at " << i;
    EXPECT_EQ(got[i].tick, baseline[i].tick);
    EXPECT_EQ(got[i].value, baseline[i].value);
  }
  EXPECT_GT(fallbacks, 0) << "the drain ran nothing";
}

// An inline-mode engine (0 job workers) with `threads` tick threads: 64
// jobs submitted at tick 0 install in the second Tick(). Returns the
// installs; `run_threads` receives the threads that ran a job.
std::vector<RecordingClient::Record> RunEngineDueBurst(
    int threads, std::set<std::thread::id>* run_threads) {
  EngineOptions options;
  options.exec.num_threads = threads;
  options.exec.jobs.num_workers = 0;
  options.exec.jobs.seed = 77;
  auto engine = Engine::Create(R"sgl(
class A {
  state:
    number x = 0;
  effects:
    number d : sum;
  update:
    x = x + d;
}
)sgl",
                               options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return {};
  JobService& service = (*engine)->executor().jobs();
  ThreadNotingClient client;
  const int id = service.RegisterClient(&client);
  const Tick now = (*engine)->executor().tick();
  for (uint64_t k = 0; k < 64; ++k) {
    const uint64_t args[4] = {k, 0, 0, 0};
    service.Submit(id, k, args, nullptr, /*latency=*/1, now);
  }
  EXPECT_TRUE((*engine)->Tick().ok());  // installs nothing
  EXPECT_TRUE(client.installs.empty());
  EXPECT_TRUE((*engine)->Tick().ok());  // the 64 jobs' install tick
  EXPECT_EQ(service.in_flight(), 0u);
  EXPECT_EQ(service.total_fallback_runs(), 64);
  *run_threads = client.threads;
  return client.installs;
}

// A tick pool runs only the query phase: the barrier's drain stays on the
// thread that called Tick(), and the installs are the 1-thread ones.
TEST(JobServiceTest, DrainRunsOnTickThreadBesideTickPool) {
  std::set<std::thread::id> run_threads;
  const auto baseline = RunEngineDueBurst(1, &run_threads);
  ASSERT_EQ(baseline.size(), 64u);
  const auto got = RunEngineDueBurst(4, &run_threads);
  ASSERT_EQ(got.size(), baseline.size());
  EXPECT_EQ(run_threads, std::set<std::thread::id>{std::this_thread::get_id()})
      << "a job ran off the thread that called Tick()";
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, baseline[i].key) << "install order at " << i;
    EXPECT_EQ(got[i].tick, baseline[i].tick);
    EXPECT_EQ(got[i].value, baseline[i].value);
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
  // Jobs read the position snapshot, and one field re-submits every tick:
  // jobs stay in flight throughout.
  config.async.crowd_penalty = 0.5;
  return config;
}

// Runs armies and returns the world checksum. `delay` stalls every job
// delivery that long before its worker's claim. `pause_micros` is left
// between ticks, as a frame loop would. `worker_runs`, if given, receives
// the installed jobs a worker ran (the rest ran in the barrier's drain).
uint64_t RunArmies(const ArmiesConfig& config, int workers, int threads,
                   size_t morsel, int ticks = 40, int64_t delay = 0,
                   int64_t pause_micros = 0, int64_t* worker_runs = nullptr) {
  const std::unique_ptr<FaultInjector> stall = StallEveryJob(delay);
  EngineOptions options;
  options.exec.jobs.num_workers = workers;
  options.exec.fault = stall.get();  // the engine hands it to JobService
  options.exec.num_threads = threads;
  options.exec.morsel_size = morsel;
  auto engine = ArmiesWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  for (int t = 0; t < ticks; ++t) {
    if (t == ticks / 2) {
      // Orders change mid-run: every army repaths.
      ArmiesWorkload::Retarget(engine->get(), config, 1);
    }
    EXPECT_TRUE((*engine)->Tick().ok());
    if (pause_micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(pause_micros));
    }
  }
  if (worker_runs != nullptr) {
    JobService& jobs = (*engine)->executor().jobs();
    *worker_runs = jobs.total_installed() - jobs.total_fallback_runs();
  }
  return WorldChecksum((*engine)->world());
}

TEST(AsyncPathfindTest, ChecksumParityAcrossWorkersThreadsMorsels) {
  const ArmiesConfig config = SmallArmies();
  const uint64_t baseline = RunArmies(config, /*workers=*/0, 1, 2048);
  EXPECT_EQ(RunArmies(config, 1, 1, 2048), baseline) << "1 worker";
  EXPECT_EQ(RunArmies(config, 4, 1, 2048), baseline) << "4 workers";
  EXPECT_EQ(RunArmies(config, 4, 4, 2048), baseline)
      << "4 workers, 4 threads";
  EXPECT_EQ(RunArmies(config, 0, 4, 2048), baseline)
      << "inline, 4 threads: every job runs in the barrier's drain beside "
         "the tick pool";
  EXPECT_EQ(RunArmies(config, 1, 2, 2048), baseline)
      << "1 worker, 2 threads (the tick-anatomy shape)";
  EXPECT_EQ(RunArmies(config, 0, 4, 64), baseline)
      << "inline, 4 threads, morsel 64";
  EXPECT_EQ(RunArmies(config, 4, 4, 64), baseline)
      << "4 workers, 4 threads, morsel 64";
}

// The synchronous pathfinder is gone: asking for it is an error, not a
// silent switch to the asynchronous one.
TEST(AsyncPathfindTest, ArmiesWithoutAsyncPathfindIsRejected) {
  ArmiesConfig config = SmallArmies();
  config.async_pathfind = false;
  auto engine = ArmiesWorkload::Build(config, EngineOptions());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(AsyncPathfindTest, ForcedSlowJobsChangeNothingButWallClock) {
  ArmiesConfig config = SmallArmies();
  config.num_units = 128;
  config.map_w = 28;
  config.map_h = 28;
  // Every delivery stalls its worker 2 ms before the claim. With 1 ms
  // between ticks and a 4-tick latency, a stalled worker still claims its
  // job ahead of the install tick and finishes it ticks after submission
  // — the declared-latency barrier is what keeps the state identical to
  // the instant-execution runs.
  config.async.latency_ticks = 4;
  const int ticks = 16;
  int64_t worker_runs = 0;
  const uint64_t slow = RunArmies(config, 2, 1, 2048, ticks, /*delay=*/2000,
                                  /*pause_micros=*/1000, &worker_runs);
  EXPECT_GT(worker_runs, 0) << "no stalled worker ever ran a job";
  EXPECT_EQ(RunArmies(config, 2, 1, 2048, ticks, 0), slow);
  EXPECT_EQ(RunArmies(config, 0, 1, 2048, ticks, 0), slow);
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

TEST(AsyncPathfindTest, SharedGoalDedupsToOneSearch) {
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
  // 40 walkers heading to the same goal from two cells: one job.
  for (int i = 0; i < 40; ++i) {
    const double start = i < 20 ? 2.2 : 7.7;
    ASSERT_TRUE((*engine)
                    ->Spawn("Walker", {{"x", Value::Number(start)},
                                       {"y", Value::Number(2.2)},
                                       {"waypoint_x", Value::Number(start)},
                                       {"waypoint_y", Value::Number(2.2)},
                                       {"tx", Value::Number(15.5)},
                                       {"ty", Value::Number(15.5)}})
                    .ok());
  }
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_EQ(pathfinder->total().submitted, 1);
  EXPECT_EQ(pathfinder->total().stalls, 40);
  // After the declared latency the one field serves the rest of both
  // marches without a single further search, and the walkers that share
  // a cell step identically.
  ASSERT_TRUE((*engine)->RunTicks(8).ok());
  EXPECT_EQ(pathfinder->total().submitted, 1);
  EXPECT_GT(pathfinder->total().cache_hits, 0);
  for (EntityId first : {EntityId{1}, EntityId{21}}) {
    const double x0 = (*engine)->Get(first, "x")->AsNumber();
    const double y0 = (*engine)->Get(first, "y")->AsNumber();
    EXPECT_NE(2.2, y0) << "walkers should be moving by now";
    for (EntityId id = first + 1; id < first + 20; ++id) {
      EXPECT_DOUBLE_EQ(x0, (*engine)->Get(id, "x")->AsNumber());
      EXPECT_DOUBLE_EQ(y0, (*engine)->Get(id, "y")->AsNumber());
    }
  }
}

// One walker on a 20x20 open map with `workers` job workers, driven by
// an AsyncPathfindComponent the test keeps a handle to.
struct WalkerRig {
  std::unique_ptr<Engine> engine;
  AsyncPathfindComponent* pathfinder = nullptr;
  EntityId walker = kNullEntity;
};

WalkerRig BuildWalker(int workers, GridMap map, double x, double y,
                      double tx, double ty) {
  WalkerRig rig;
  EngineOptions options;
  options.exec.jobs.num_workers = workers;
  auto engine = Engine::Create(WalkerSource(), options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  rig.engine = std::move(engine).value();
  AsyncPathfinderConfig config;
  config.cls = "Walker";
  config.latency_ticks = 2;
  auto comp = AsyncPathfindComponent::Create(
      rig.engine->catalog(), config, std::move(map),
      &rig.engine->executor().jobs());
  EXPECT_TRUE(comp.ok()) << comp.status();
  rig.pathfinder = comp->get();
  EXPECT_TRUE(rig.engine->AddComponent(std::move(*comp)).ok());
  auto id = rig.engine->Spawn("Walker", {{"x", Value::Number(x)},
                                         {"y", Value::Number(y)},
                                         {"waypoint_x", Value::Number(x)},
                                         {"waypoint_y", Value::Number(y)},
                                         {"tx", Value::Number(tx)},
                                         {"ty", Value::Number(ty)}});
  EXPECT_TRUE(id.ok());
  rig.walker = *id;
  return rig;
}

double Field(const WalkerRig& rig, const char* field) {
  return rig.engine->Get(rig.walker, field)->AsNumber();
}

// Stale-field re-search: a cell blocked on the installed route at a tick
// boundary holds the walker when it is next, re-submits the goal's field,
// and is never entered; the walker still arrives by the detour.
TEST(AsyncPathfindTest, BlockedCellOnCachedRouteIsResearched) {
  for (int workers : {0, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    WalkerRig rig =
        BuildWalker(workers, GridMap(20, 20, 1.0), 2.5, 10.5, 17.5, 10.5);
    ASSERT_TRUE(rig.engine->RunTicks(5).ok());
    // The one field installed; its route runs straight along row 10 and
    // the walker is marching it; nothing is in flight.
    ASSERT_EQ(rig.pathfinder->total().submitted, 1);
    ASSERT_EQ(rig.engine->executor().jobs().in_flight(), 0u);
    ASSERT_EQ(static_cast<int>(Field(rig, "waypoint_y")), 10);
    const int bx = static_cast<int>(Field(rig, "waypoint_x")) + 3;
    ASSERT_LT(bx, 17);
    rig.pathfinder->mutable_map().SetBlocked(bx, 10, true);

    for (int t = 0; t < 40; ++t) {
      ASSERT_TRUE(rig.engine->Tick().ok());
      const int cx = static_cast<int>(Field(rig, "x"));
      const int cy = static_cast<int>(Field(rig, "y"));
      EXPECT_FALSE(cx == bx && cy == 10) << "stepped into the blocked cell";
    }
    EXPECT_GT(rig.pathfinder->total().dropped_stale, 0);
    EXPECT_GT(rig.pathfinder->total().submitted, 1) << "no re-search";
    EXPECT_NEAR(17.5, Field(rig, "x"), 1.0);
    EXPECT_NEAR(10.5, Field(rig, "y"), 1.0);
  }
}

// Unreachable goal: a goal walled off on every side installs a field that
// holds the walker where it is. It is searched once: holding counts as
// `unreachable` every tick, not as a stall.
TEST(AsyncPathfindTest, WalledOffGoalInstallsUnreachableAndHolds) {
  for (int workers : {0, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    GridMap map(20, 20, 1.0);
    for (int d = -1; d <= 1; ++d) {
      map.SetBlocked(15 + d, 14, true);
      map.SetBlocked(15 + d, 16, true);
      map.SetBlocked(14, 15 + d, true);
      map.SetBlocked(16, 15 + d, true);
    }
    WalkerRig rig = BuildWalker(workers, std::move(map), 2.5, 2.5, 15.5, 15.5);
    ASSERT_TRUE(rig.engine->RunTicks(4).ok());
    const AsyncPathfinderStats installed = rig.pathfinder->total();
    EXPECT_EQ(installed.submitted, 1);
    EXPECT_EQ(installed.installed, 1);
    EXPECT_GT(installed.unreachable, 0);

    ASSERT_TRUE(rig.engine->RunTicks(20).ok());
    const AsyncPathfinderStats later = rig.pathfinder->total();
    EXPECT_EQ(later.submitted, 1) << "an unreachable goal is not re-searched";
    EXPECT_EQ(later.unreachable, installed.unreachable + 20);
    EXPECT_EQ(later.stalls, installed.stalls) << "still stalling";
    EXPECT_EQ(later.cache_hits, 0);
    EXPECT_DOUBLE_EQ(2.5, Field(rig, "x"));
    EXPECT_DOUBLE_EQ(2.5, Field(rig, "y"));
  }
}

// An entity nudged just off the map's left/bottom edge must pathfind as
// "off-map start" (stay put), not alias into column 0 and march across
// the map from there (the pre-floor-fix behavior). It submits nothing.
TEST(AsyncPathfindTest, EntityJustOffMapEdgeStaysPut) {
  WalkerRig rig = BuildWalker(0, GridMap(20, 20, 1.0), -0.4, 2.5, 10.5, 2.5);
  ASSERT_TRUE(rig.engine->RunTicks(10).ok());
  EXPECT_DOUBLE_EQ(-0.4, Field(rig, "x"));
  EXPECT_DOUBLE_EQ(2.5, Field(rig, "y"));
  EXPECT_EQ(rig.pathfinder->total().submitted, 0);
  EXPECT_EQ(rig.pathfinder->total().unreachable, 10);
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
  // order — and with it the installed fields — diverges.
  ASSERT_TRUE((*engine)->Restore(cp).ok());
  ASSERT_TRUE((*engine)->RunTicks(20).ok());
  EXPECT_EQ(WorldChecksum((*engine)->world()), fresh)
      << "in-place restore diverged from fresh-engine restore";
}

/// The pathfinder registered on `engine`.
AsyncPathfindComponent* PathfinderOf(Engine* engine) {
  ComponentRegistry& registry = engine->executor().components();
  for (int i = 0; i < registry.num_components(); ++i) {
    if (registry.component(i)->name() == "async_pathfind") {
      return static_cast<AsyncPathfindComponent*>(registry.component(i));
    }
  }
  return nullptr;
}

/// `cp` with the pathfinder's component blob replaced by `blob`.
Checkpoint WithPathfinderBlob(const Checkpoint& cp, const std::string& blob) {
  std::string section;
  const char* cur = cp.components.data();
  const char* end = cur + cp.components.size();
  std::string name, saved;
  while (cur != end) {
    EXPECT_TRUE(binio::ReadString(&cur, end, &name));
    EXPECT_TRUE(binio::ReadString(&cur, end, &saved));
    binio::AppendString(&section, name);
    binio::AppendString(&section, name == "async_pathfind" ? blob : saved);
  }
  Checkpoint out = cp;
  out.components = section;
  return out;
}

// A goal-field blob that is not a well-formed v2 blob for this map makes
// LoadState fail with InvalidArgument before it allocates anything, and
// Restore then drops the goals (OnRestore) and keeps running: an old v1
// request-cache blob; a v2 blob cut short; one naming a goal cell off the
// map or one goal twice; one with bad goal flags; one whose ready field
// steps a cell off the map, to a cell that is not its neighbour or across
// a row edge; one whose size is not count × goal bytes.
TEST(AsyncPathfindTest, LoadStateRefusesOldAndCorruptBlobs) {
  ArmiesConfig config = SmallArmies();
  config.num_units = 256;
  config.map_w = 16;
  config.map_h = 16;
  config.num_armies = 4;
  auto engine = ArmiesWorkload::Build(config, EngineOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->RunTicks(8).ok());
  AsyncPathfindComponent* pathfinder = PathfinderOf(engine->get());
  ASSERT_NE(pathfinder, nullptr);
  // Every case restores tick 8, before the armies reach their rally cells.
  const Checkpoint at_tick8 = (*engine)->TakeCheckpoint();
  std::string good;
  pathfinder->SaveState(&good);
  // Header (magic, version, count) then per goal: cell, flags, last used,
  // installed, and 16 × 16 next cells.
  constexpr size_t kHeader = 4 + 4 + 8;
  constexpr size_t kGoal = 4 + 4 + 8 + 8 + 4 * 16 * 16;
  ASSERT_EQ(good.size(), kHeader + 4 * kGoal) << "one goal per rally cell";
  EXPECT_TRUE(pathfinder->LoadState(good.data(), good.size()).ok());

  std::string v1;
  binio::Append<uint32_t>(&v1, 0x50464348u);
  binio::Append<uint32_t>(&v1, 1);
  binio::Append<int64_t>(&v1, 0);                       // last sweep
  binio::Append<uint64_t>(&v1, uint64_t{1} << 44);      // capacity
  binio::Append<uint64_t>(&v1, 0);                      // entry count
  auto with_u32 = [&](size_t offset, uint32_t v) {
    std::string blob = good;
    std::memcpy(&blob[offset], &v, sizeof(v));
    return blob;
  };
  auto with_count = [&](uint64_t count) {
    std::string blob = good;
    std::memcpy(&blob[8], &count, sizeof(count));
    return blob;
  };
  uint32_t first_cell = 0, first_flags = 0;
  std::memcpy(&first_cell, &good[kHeader], sizeof(first_cell));
  std::memcpy(&first_flags, &good[kHeader + 4], sizeof(first_flags));
  ASSERT_NE(first_flags & 2u, 0u) << "the first goal's field is installed";
  const size_t first_field = kHeader + 24;  // next[] of the first goal
  const std::vector<std::pair<const char*, std::string>> bad = {
      {"v1", v1},
      {"cut short", good.substr(0, good.size() - 1)},
      {"header cut short", good.substr(0, 12)},
      {"goal off the map", with_u32(kHeader + kGoal, 16 * 16)},
      {"duplicate goal", with_u32(kHeader + 2 * kGoal, first_cell)},
      {"flags 0", with_u32(kHeader + 4, 0)},
      {"flags 4", with_u32(kHeader + 4, 4)},
      {"next off the map", with_u32(first_field, 16 * 16)},
      {"next not a neighbour", with_u32(first_field, 16 * 16 - 1)},
      {"next across a row edge", with_u32(first_field + 4 * 15, 16)},
      {"count too small", with_count(3)},
      {"count too large", with_count(5)},
      {"count huge", with_count(uint64_t{1} << 60)},
  };
  for (const auto& [what, blob] : bad) {
    SCOPED_TRACE(what);
    const AllocCounts before = AllocCountersNow();
    EXPECT_EQ(pathfinder->LoadState(blob.data(), blob.size()).code(),
              StatusCode::kInvalidArgument);
    if (AllocCountingEnabled()) {
      // Only the error message: nothing sized by the blob.
      EXPECT_LT(AllocCountersNow().bytes - before.bytes, 1024);
    }
    // The rejected blob drops the goals; the restore and later ticks
    // succeed and search afresh.
    const Checkpoint cp = WithPathfinderBlob(at_tick8, blob);
    const int64_t submitted = pathfinder->total().submitted;
    ASSERT_TRUE((*engine)->Restore(cp).ok());
    ASSERT_TRUE((*engine)->RunTicks(4).ok());
    EXPECT_GE(pathfinder->total().submitted, submitted + 4)
        << "every rally cell's field is searched again";
  }
}

}  // namespace
}  // namespace sgl
