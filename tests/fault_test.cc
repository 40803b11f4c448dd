// Fault injection and crash recovery (src/fault/, src/debug/checkpoint_file):
//
//   * FaultInjector semantics — seeded determinism, tick windows, rate
//     hashing, max_fires caps, the injected-crash Status contract.
//   * Container files — round trips, atomic (torn-write-safe) replacement,
//     corruption detection (truncation and bit-flip sweeps over checkpoints
//     and black-box dumps, injected write faults), both on-disk formats
//     pinned byte for byte, store fallback to the last good file.
//   * JobService recovery — in-flight submissions serialize and restore so
//     each installs at its original contracted tick, in its original seeded
//     order, on a service built with a *different* seed.
//   * Worker faults — injected stalls and deaths (through the retry budget
//     into the barrier's deadline-miss drain) change nothing in world
//     state for any worker or tick-thread count.
//   * The capstone differential harness: an armies run with periodic
//     durable checkpoints is crashed at injected ticks across the exec
//     and txn layers, rebuilt from the newest good checkpoint, and
//     replayed — the final canonical world checksum must be bit-identical
//     to the run that never crashed, for tick-thread counts {1, 4} ×
//     worker counts {0, 4} × fault plans.
//   * An armed-but-idle fault plan keeps steady-state ticks at
//     allocs_per_tick == 0 (the miss path is lock- and allocation-free).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/alloc_hook.h"
#include "src/debug/checkpoint.h"
#include "src/debug/checkpoint_file.h"
#include "src/debug/inspector.h"
#include "src/fault/fault_injector.h"
#include "src/sim/armies.h"

namespace sgl {
namespace {

// --- helpers ---------------------------------------------------------------

// A fresh per-test scratch directory under the gtest temp root.
std::string FreshDir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("sgl_fault_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  EXPECT_TRUE(out.good()) << path;
}

// A single-rule plan: fire `site` with certainty in [at, at + 1), once.
FaultPlan OneShotPlan(const FaultSite& site, Tick at, uint64_t seed = 1,
                      uint64_t payload = 0) {
  FaultPlan plan;
  plan.seed = seed;
  FaultRule rule;
  rule.site = site.name;
  rule.begin = at;
  rule.end = at + 1;
  rule.rate = 1.0;
  rule.payload = payload;
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  return plan;
}

// An always-armed rate rule over the whole run.
FaultPlan RatePlan(const FaultSite& site, double rate, uint64_t payload = 0,
                   uint64_t seed = 7) {
  FaultPlan plan;
  plan.seed = seed;
  FaultRule rule;
  rule.site = site.name;
  rule.rate = rate;
  rule.payload = payload;
  plan.rules.push_back(rule);
  return plan;
}

// --- FaultInjector semantics ----------------------------------------------

TEST(FaultInjectorTest, DisarmedAndUnmatchedSitesNeverFire) {
  FaultInjector empty(FaultPlan{});
  EXPECT_FALSE(empty.armed());
  EXPECT_FALSE(empty.Fires(kFaultExecCrashPostQuery, 0, 0));

  FaultInjector other(OneShotPlan(kFaultExecCrashPostQuery, 5));
  EXPECT_TRUE(other.armed());
  EXPECT_FALSE(other.Fires(kFaultExecCrashPostUpdate, 5, 0))
      << "a rule must only match its own site";
}

TEST(FaultInjectorTest, RespectsTickWindow) {
  FaultPlan plan;
  plan.seed = 3;
  FaultRule rule;
  rule.site = kFaultAsyncWorkerStall.name;
  rule.begin = 10;
  rule.end = 20;
  plan.rules.push_back(rule);
  FaultInjector fault(plan);
  EXPECT_FALSE(fault.Fires(kFaultAsyncWorkerStall, 9, 0));
  EXPECT_TRUE(fault.Fires(kFaultAsyncWorkerStall, 10, 0));
  EXPECT_TRUE(fault.Fires(kFaultAsyncWorkerStall, 19, 0));
  EXPECT_FALSE(fault.Fires(kFaultAsyncWorkerStall, 20, 0))
      << "end is exclusive";
}

TEST(FaultInjectorTest, RateFiresAreAPureFunctionOfSeedTickKey) {
  const FaultPlan plan = RatePlan(kFaultAsyncWorkerDeath, 0.5);
  FaultInjector a(plan);
  FaultInjector b(plan);
  int fires = 0;
  for (uint64_t key = 0; key < 512; ++key) {
    const bool fa = a.Fires(kFaultAsyncWorkerDeath, 42, key);
    // Same plan, same (site, tick, key): identical outcome — call order
    // and history are irrelevant by construction.
    EXPECT_EQ(fa, b.Fires(kFaultAsyncWorkerDeath, 42, key)) << key;
    fires += fa;
  }
  // rate 0.5 over 512 independent rolls: not all, not none.
  EXPECT_GT(fires, 128);
  EXPECT_LT(fires, 384);

  // A different seed reshuffles the fire set.
  FaultInjector c(RatePlan(kFaultAsyncWorkerDeath, 0.5, 0, /*seed=*/99));
  int diverged = 0;
  FaultInjector a2(plan);
  for (uint64_t key = 0; key < 512; ++key) {
    diverged += a2.Fires(kFaultAsyncWorkerDeath, 42, key) !=
                c.Fires(kFaultAsyncWorkerDeath, 42, key);
  }
  EXPECT_GT(diverged, 0);
}

TEST(FaultInjectorTest, MaxFiresCapsLifetimeFires) {
  FaultPlan plan;
  FaultRule rule;
  rule.site = kFaultCkptWriteBitflip.name;
  rule.max_fires = 2;
  plan.rules.push_back(rule);
  FaultInjector fault(plan);
  EXPECT_TRUE(fault.Fires(kFaultCkptWriteBitflip, 1, 0));
  EXPECT_TRUE(fault.Fires(kFaultCkptWriteBitflip, 2, 0));
  EXPECT_FALSE(fault.Fires(kFaultCkptWriteBitflip, 3, 0));
  EXPECT_FALSE(fault.Fires(kFaultCkptWriteBitflip, 4, 0));
  EXPECT_EQ(fault.total_fires(), 2);
  EXPECT_EQ(fault.fires_at(kFaultCkptWriteBitflip), 2);
}

TEST(FaultInjectorTest, PayloadLogAndDescribeRecordEveryFire) {
  FaultInjector fault(
      OneShotPlan(kFaultAsyncWorkerStall, 17, /*seed=*/5, /*payload=*/1234));
  uint64_t payload = 0;
  EXPECT_FALSE(
      SGL_FAULT_POINT(&fault, kFaultAsyncWorkerStall, 16, 7, &payload));
  EXPECT_TRUE(
      SGL_FAULT_POINT(&fault, kFaultAsyncWorkerStall, 17, 7, &payload));
  EXPECT_EQ(payload, 1234u);
  const std::vector<FaultEvent> log = fault.Log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_STREQ(log[0].site, kFaultAsyncWorkerStall.name);
  EXPECT_EQ(log[0].tick, 17);
  EXPECT_EQ(log[0].key, 7u);
  const std::string report = fault.Describe();
  EXPECT_NE(report.find("async.worker.stall"), std::string::npos) << report;
  EXPECT_NE(report.find("17"), std::string::npos) << report;
}

TEST(FaultInjectorTest, InjectedCrashStatusIsRecognizable) {
  FaultInjector fault(OneShotPlan(kFaultExecCrashPostQuery, 3));
  EXPECT_TRUE(fault.MaybeCrash(kFaultExecCrashPostQuery, 2).ok());
  const Status crash = fault.MaybeCrash(kFaultExecCrashPostQuery, 3);
  EXPECT_FALSE(crash.ok());
  EXPECT_EQ(crash.code(), StatusCode::kInternal);
  EXPECT_TRUE(IsInjectedCrash(crash)) << crash;
  EXPECT_FALSE(IsInjectedCrash(Status::OK()));
  EXPECT_FALSE(IsInjectedCrash(Status::Internal("genuine invariant break")));
}

// --- Checkpoint files -------------------------------------------------------

// File-format tests run on synthetic checkpoints: the file layer neither
// knows nor cares what the section bytes mean.
Checkpoint SyntheticCheckpoint(Tick tick) {
  Checkpoint cp;
  cp.tick = tick;
  cp.state.assign(4096, '\0');
  for (size_t i = 0; i < cp.state.size(); ++i) {
    cp.state[i] = static_cast<char>((i * 31 + tick * 7) & 0xff);
  }
  cp.shard_partition = "partition-bytes";
  cp.jobs = "jobs-bytes";
  cp.components = "component-bytes";
  return cp;
}

// A fixed black-box dump with every section non-empty.
BlackBoxDump SyntheticBlackBox(Tick tick) {
  BlackBoxDump dump;
  dump.tick = tick;
  dump.world_checksum = 0x0123456789abcdefULL;
  dump.reason = "synthetic";
  dump.chrome_trace = "{\"traceEvents\":[]}";
  dump.metrics = "tick.total_us 1";
  dump.sites = "[]";
  dump.provenance.assign(2048, '\0');
  for (size_t i = 0; i < dump.provenance.size(); ++i) {
    dump.provenance[i] = static_cast<char>((i * 13 + tick * 5) & 0xff);
  }
  return dump;
}

// Both container kinds — checkpoints and black-box dumps — as a save/load
// pair over a fixed sample, so the corruption sweeps run over each.
struct ContainerKind {
  const char* name;
  Status (*save)(const std::string& path);
  Status (*load)(const std::string& path);
};

const ContainerKind kContainerKinds[] = {
    {"checkpoint",
     [](const std::string& path) {
       return SaveCheckpointFile(SyntheticCheckpoint(7), path);
     },
     [](const std::string& path) {
       Checkpoint loaded;
       return LoadCheckpointFile(path, &loaded);
     }},
    {"blackbox",
     [](const std::string& path) {
       return SaveBlackBoxFile(SyntheticBlackBox(7), path);
     },
     [](const std::string& path) {
       BlackBoxDump loaded;
       return LoadBlackBoxFile(path, &loaded);
     }},
};

uint64_t ReadU64At(const std::string& bytes, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

TEST(CheckpointFileTest, RoundTripPreservesEverySection) {
  const std::string dir = FreshDir("roundtrip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/cp.sgl";
  const Checkpoint cp = SyntheticCheckpoint(42);
  ASSERT_TRUE(SaveCheckpointFile(cp, path).ok());
  Checkpoint loaded;
  ASSERT_TRUE(LoadCheckpointFile(path, &loaded).ok());
  EXPECT_EQ(loaded.tick, cp.tick);
  EXPECT_EQ(loaded.state, cp.state);
  EXPECT_EQ(loaded.shard_partition, cp.shard_partition);
  EXPECT_EQ(loaded.jobs, cp.jobs);
  EXPECT_EQ(loaded.components, cp.components);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "the temp file must not survive a successful save";
}

TEST(CheckpointFileTest, MissingFileIsNotFound) {
  Checkpoint loaded;
  const Status st =
      LoadCheckpointFile(FreshDir("missing") + "/nope.sgl", &loaded);
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st;
}

TEST(CheckpointFileTest, TruncationIsRejectedCleanly) {
  const std::string dir = FreshDir("truncate");
  std::filesystem::create_directories(dir);
  for (const ContainerKind& kind : kContainerKinds) {
    SCOPED_TRACE(kind.name);
    const std::string path = dir + "/" + kind.name;
    ASSERT_TRUE(kind.save(path).ok());
    const std::string good = ReadFileBytes(path);
    // Mid-payload, mid-header, and empty truncations must all be detected.
    for (size_t keep : {good.size() - 1, good.size() / 2, size_t{40},
                        size_t{0}}) {
      WriteFileBytes(path, good.substr(0, keep));
      const Status st = kind.load(path);
      EXPECT_FALSE(st.ok()) << "kept " << keep << " bytes";
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
    }
  }
}

TEST(CheckpointFileTest, EveryFlippedBitIsDetected) {
  const std::string dir = FreshDir("bitflip");
  std::filesystem::create_directories(dir);
  for (const ContainerKind& kind : kContainerKinds) {
    SCOPED_TRACE(kind.name);
    const std::string path = dir + "/" + kind.name;
    ASSERT_TRUE(kind.save(path).ok());
    const std::string good = ReadFileBytes(path);
    // A flip anywhere — header fields, section sizes, payload — must fail
    // validation. Sampled stride keeps the test fast; offset 0 and the
    // final byte are always included.
    for (size_t at = 0; at < good.size(); at += 97) {
      std::string bad = good;
      bad[at] = static_cast<char>(bad[at] ^ 0x20);
      WriteFileBytes(path, bad);
      EXPECT_FALSE(kind.load(path).ok())
          << "flip at byte " << at << " went undetected";
    }
    std::string bad = good;
    bad.back() = static_cast<char>(bad.back() ^ 0x01);
    WriteFileBytes(path, bad);
    EXPECT_FALSE(kind.load(path).ok());
  }
}

// Pins both on-disk formats byte for byte: the header fields at the
// offsets CHECKPOINT_FORMAT.md documents, the 72- and 88-byte header
// lengths, and an FNV-1a of each complete file.
TEST(CheckpointFileTest, OnDiskFormatsArePinned) {
  const std::string dir = FreshDir("golden");
  std::filesystem::create_directories(dir);

  const Checkpoint cp = SyntheticCheckpoint(7);
  ASSERT_TRUE(SaveCheckpointFile(cp, dir + "/cp.sgl").ok());
  const std::string ckpt = ReadFileBytes(dir + "/cp.sgl");
  ASSERT_GE(ckpt.size(), 72u);
  EXPECT_EQ(ckpt.substr(0, 8), "SGLCKPT1");
  EXPECT_EQ(ReadU64At(ckpt, 8), 1u);  // u32 version 1, u32 reserved 0
  EXPECT_EQ(ReadU64At(ckpt, 16), 7u);
  EXPECT_EQ(ReadU64At(ckpt, 24), cp.state.size());
  EXPECT_EQ(ReadU64At(ckpt, 32), cp.shard_partition.size());
  EXPECT_EQ(ReadU64At(ckpt, 40), cp.jobs.size());
  EXPECT_EQ(ReadU64At(ckpt, 48), cp.components.size());
  EXPECT_EQ(ReadU64At(ckpt, 56), Fnv1a(ckpt.data() + 72, ckpt.size() - 72));
  EXPECT_EQ(ReadU64At(ckpt, 64), Fnv1a(ckpt.data(), 64));
  EXPECT_EQ(ckpt.size(), 72 + cp.state.size() + cp.shard_partition.size() +
                             cp.jobs.size() + cp.components.size());
  EXPECT_EQ(ckpt.substr(72), cp.state + cp.shard_partition + cp.jobs +
                                 cp.components);
  EXPECT_EQ(Fnv1a(ckpt.data(), ckpt.size()), 0x880f1f73f12fc837ULL);

  const BlackBoxDump dump = SyntheticBlackBox(7);
  ASSERT_TRUE(SaveBlackBoxFile(dump, dir + "/bb.sbb").ok());
  const std::string bbox = ReadFileBytes(dir + "/bb.sbb");
  ASSERT_GE(bbox.size(), 88u);
  EXPECT_EQ(bbox.substr(0, 8), "SGLBBOX1");
  EXPECT_EQ(ReadU64At(bbox, 8), 1u);
  EXPECT_EQ(ReadU64At(bbox, 16), 7u);
  EXPECT_EQ(ReadU64At(bbox, 24), dump.world_checksum);
  EXPECT_EQ(ReadU64At(bbox, 32), dump.reason.size());
  EXPECT_EQ(ReadU64At(bbox, 40), dump.chrome_trace.size());
  EXPECT_EQ(ReadU64At(bbox, 48), dump.metrics.size());
  EXPECT_EQ(ReadU64At(bbox, 56), dump.sites.size());
  EXPECT_EQ(ReadU64At(bbox, 64), dump.provenance.size());
  EXPECT_EQ(ReadU64At(bbox, 72), Fnv1a(bbox.data() + 88, bbox.size() - 88));
  EXPECT_EQ(ReadU64At(bbox, 80), Fnv1a(bbox.data(), 80));
  EXPECT_EQ(bbox.substr(88), dump.reason + dump.chrome_trace + dump.metrics +
                                 dump.sites + dump.provenance);
  EXPECT_EQ(Fnv1a(bbox.data(), bbox.size()), 0x4081fcc1315904e5ULL);
}

// A directory named like a store file is not a container: loading it
// directly fails cleanly, and each store skips it and falls back to the
// older good file.
TEST(CheckpointFileTest, NonRegularStoreEntryIsSkipped) {
  const std::string ckpt_dir = FreshDir("nonregular_ckpt");
  CheckpointStore ckpt_store(ckpt_dir, /*keep=*/3);
  ASSERT_TRUE(ckpt_store.Save(SyntheticCheckpoint(6)).ok());
  const std::string ckpt_entry = ckpt_dir + "/ckpt_000000000012.sgl";
  std::filesystem::create_directories(ckpt_entry);
  ASSERT_EQ(ckpt_store.ListFiles().size(), 2u);
  Checkpoint cp;
  EXPECT_FALSE(LoadCheckpointFile(ckpt_entry, &cp).ok());
  auto latest_cp = ckpt_store.LoadLatestGood();
  ASSERT_TRUE(latest_cp.ok()) << latest_cp.status();
  EXPECT_EQ(latest_cp->tick, 6);

  const std::string bbox_dir = FreshDir("nonregular_bbox");
  BlackBoxStore bbox_store(bbox_dir, /*keep=*/4);
  ASSERT_TRUE(bbox_store.Save(SyntheticBlackBox(6)).ok());
  const std::string bbox_entry = bbox_dir + "/bbox_000000000012.sbb";
  std::filesystem::create_directories(bbox_entry);
  ASSERT_EQ(bbox_store.ListFiles().size(), 2u);
  BlackBoxDump dump;
  EXPECT_FALSE(LoadBlackBoxFile(bbox_entry, &dump).ok());
  auto latest_dump = bbox_store.LoadLatestGood();
  ASSERT_TRUE(latest_dump.ok()) << latest_dump.status();
  EXPECT_EQ(latest_dump->tick, 6);
}

TEST(CheckpointFileTest, InjectedWriteCorruptionIsDetectedOnLoad) {
  const std::string dir = FreshDir("writefault");
  std::filesystem::create_directories(dir);
  const Checkpoint cp = SyntheticCheckpoint(9);
  for (const FaultSite* site :
       {&kFaultCkptWriteBitflip, &kFaultCkptWriteShort}) {
    FaultInjector fault(OneShotPlan(*site, cp.tick, /*seed=*/2,
                                    /*payload=*/1337));
    const std::string path = dir + "/" + std::string(site->name) + ".sgl";
    // The corrupted image is renamed into place anyway: these sites model
    // silent media corruption, not a crashed writer.
    ASSERT_TRUE(SaveCheckpointFile(cp, path, &fault).ok()) << site->name;
    EXPECT_EQ(fault.fires_at(*site), 1) << site->name;
    Checkpoint loaded;
    const Status st = LoadCheckpointFile(path, &loaded);
    EXPECT_FALSE(st.ok()) << site->name;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  }
}

TEST(CheckpointFileTest, InjectedReadBitflipRejectsAGoodFile) {
  const std::string dir = FreshDir("readfault");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/cp.sgl";
  ASSERT_TRUE(SaveCheckpointFile(SyntheticCheckpoint(3), path).ok());
  FaultInjector fault(OneShotPlan(kFaultCkptReadBitflip, /*at=*/0));
  Checkpoint loaded;
  EXPECT_FALSE(LoadCheckpointFile(path, &loaded, &fault).ok());
  // The file itself is untouched: a fault-free reader still validates it.
  EXPECT_TRUE(LoadCheckpointFile(path, &loaded).ok());
}

TEST(CheckpointFileTest, TornWriteLeavesThePreviousFileIntact) {
  const std::string dir = FreshDir("torn");
  FaultInjector fault(OneShotPlan(kFaultCkptWriteTorn, /*at=*/12));
  CheckpointStore store(dir, /*keep=*/3, &fault);
  ASSERT_TRUE(store.Save(SyntheticCheckpoint(6)).ok());
  // The torn write dies before the rename: an injected-crash Status, no
  // new file, and the previous good checkpoint still loads.
  const Status st = store.Save(SyntheticCheckpoint(12));
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(IsInjectedCrash(st)) << st;
  EXPECT_EQ(store.ListFiles().size(), 1u);
  auto latest = store.LoadLatestGood();
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->tick, 6);
}

TEST(CheckpointFileTest, StoreFallsBackOverACorruptNewestFile) {
  const std::string dir = FreshDir("fallback");
  FaultInjector fault(OneShotPlan(kFaultCkptWriteBitflip, /*at=*/12));
  CheckpointStore store(dir, /*keep=*/3, &fault);
  ASSERT_TRUE(store.Save(SyntheticCheckpoint(6)).ok());
  ASSERT_TRUE(store.Save(SyntheticCheckpoint(12)).ok());  // corrupt on disk
  EXPECT_EQ(store.ListFiles().size(), 2u);
  auto latest = store.LoadLatestGood();
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->tick, 6) << "must skip the flipped-bit newest file";
  EXPECT_EQ(latest->state, SyntheticCheckpoint(6).state);
}

TEST(CheckpointFileTest, StorePrunesOldestBeyondKeepBudget) {
  const std::string dir = FreshDir("prune");
  CheckpointStore store(dir, /*keep=*/2);
  for (Tick t : {6, 12, 18, 24}) {
    ASSERT_TRUE(store.Save(SyntheticCheckpoint(t)).ok());
  }
  const std::vector<std::string> files = store.ListFiles();
  ASSERT_EQ(files.size(), 2u);
  auto latest = store.LoadLatestGood();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->tick, 24);
}

TEST(CheckpointFileTest, InjectedAllocFailureAbortsSaveCleanly) {
  if (!AllocFailureSupported()) {
    GTEST_SKIP() << "alloc hook compiled out (sanitizer build)";
  }
  const std::string dir = FreshDir("allocfail");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/cp.sgl";
  const Checkpoint cp = SyntheticCheckpoint(5);
  FaultInjector fault(OneShotPlan(kFaultCkptSerializeAllocFail, cp.tick));
  const Status st = SaveCheckpointFile(cp, path, &fault);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st;
  EXPECT_FALSE(std::filesystem::exists(path))
      << "a failed serialization must not leave a target file";
  // The countdown is disarmed again: the next save works.
  EXPECT_TRUE(SaveCheckpointFile(cp, path, &fault).ok());
}

// --- JobService in-flight recovery ------------------------------------------

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
    job->result[0] = job->args[0] * 3 + 1;
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

// Submits 8 mixed-latency jobs at tick 10 and returns the serialized
// in-flight section (and, via `baseline`, the installs an uninterrupted
// service produces).
std::string SerializedScenario(std::vector<RecordingClient::Record>* baseline) {
  JobServiceOptions options;
  options.num_workers = 0;
  options.seed = 77;
  JobService service(options);
  RecordingClient client;
  const int id = service.RegisterClient(&client);
  for (uint64_t k = 0; k < 8; ++k) {
    const uint64_t args[4] = {k, k * 11, 0, 0};
    service.Submit(id, k, args, nullptr, /*latency=*/k % 2 == 0 ? 2 : 3,
                   /*now=*/10);
  }
  std::string blob;
  service.SerializeInFlight(&blob);
  EXPECT_FALSE(blob.empty());
  for (Tick tick = 11; tick <= 14; ++tick) service.InstallDue(tick);
  EXPECT_EQ(client.installs.size(), 8u);
  *baseline = client.installs;
  return blob;
}

TEST(JobServiceRecoveryTest, RestoreInstallsAtOriginalTicksAndOrder) {
  std::vector<RecordingClient::Record> baseline;
  const std::string blob = SerializedScenario(&baseline);
  for (int workers : {0, 2}) {
    JobServiceOptions options;
    options.num_workers = workers;
    // A different ordering seed on the restored service: the blob carries
    // the original order keys verbatim, so the install stream must still
    // match — keys are restored, never re-derived.
    options.seed = 123456;
    JobService service(options);
    RecordingClient client;
    service.RegisterClient(&client);
    ASSERT_TRUE(service.RestoreInFlight(blob, /*now=*/10).ok());
    EXPECT_EQ(service.in_flight(), 8u);
    for (Tick tick = 11; tick <= 14; ++tick) service.InstallDue(tick);
    ASSERT_EQ(client.installs.size(), baseline.size()) << workers;
    for (size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(client.installs[i].key, baseline[i].key)
          << "order diverged at " << i << " with " << workers << " workers";
      EXPECT_EQ(client.installs[i].tick, baseline[i].tick)
          << "contracted install tick lost at " << i;
      EXPECT_EQ(client.installs[i].value, baseline[i].value);
    }
    EXPECT_EQ(service.in_flight(), 0u);
  }
}

TEST(JobServiceRecoveryTest, RestoreRejectsMismatchedClients) {
  std::vector<RecordingClient::Record> baseline;
  const std::string blob = SerializedScenario(&baseline);
  class OtherClient : public RecordingClient {
   public:
    const char* client_name() const override { return "someone-else"; }
  };
  JobServiceOptions options;
  JobService service(options);
  OtherClient other;
  service.RegisterClient(&other);
  const Status st = service.RestoreInFlight(blob, /*now=*/10);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  EXPECT_EQ(service.in_flight(), 0u)
      << "a rejected blob must leave the service empty";
  // Still usable afterwards.
  const uint64_t args[4] = {5, 0, 0, 0};
  service.Submit(0, 5, args, nullptr, 1, /*now=*/20);
  service.InstallDue(21);
  EXPECT_EQ(other.installs.size(), 1u);
}

TEST(JobServiceRecoveryTest, RestoreRejectsCorruptBlobs) {
  std::vector<RecordingClient::Record> baseline;
  const std::string blob = SerializedScenario(&baseline);
  JobServiceOptions options;
  JobService service(options);
  RecordingClient client;
  service.RegisterClient(&client);
  std::string bad_magic = blob;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xff);
  EXPECT_FALSE(service.RestoreInFlight(bad_magic, 10).ok());
  EXPECT_FALSE(
      service.RestoreInFlight(blob.substr(0, blob.size() / 2), 10).ok());
  EXPECT_FALSE(service.RestoreInFlight(blob.substr(0, 6), 10).ok());
  EXPECT_EQ(service.in_flight(), 0u);
  // An install tick already in the past must be rejected too.
  EXPECT_FALSE(service.RestoreInFlight(blob, /*now=*/50).ok());
  // The empty section is the legitimate nothing-in-flight case.
  EXPECT_TRUE(service.RestoreInFlight(std::string(), 10).ok());
}

// --- Worker faults: stalls, deaths, deadline-miss fallback ------------------

ArmiesConfig FaultArmies() {
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
  // Jobs read position snapshots, and one field re-submits every tick:
  // sustained in-flight traffic.
  config.async.crowd_penalty = 0.5;
  return config;
}

/// The JobService's lifetime job counts at the end of a run.
struct JobTotals {
  int64_t installed = 0;
  int64_t fallback_runs = 0;  ///< of `installed`: run by the barrier's drain
};

// Runs the armies workload under `fault` (may be null) and returns the
// final canonical checksum. `threads` > 1 gives the engine a tick pool for
// the query phase; the barrier's drain stays on the tick thread. `totals`,
// if given, receives the JobService's job counts. Like a frame loop, it
// leaves the job workers `pause_micros` between ticks: a field job takes
// tens of microseconds, so on a loaded host a run could otherwise end
// before a worker ever takes a delivery, and the worker fault sites would
// have nothing to act on.
uint64_t RunArmiesUnderFault(const ArmiesConfig& config, int workers,
                             int threads, FaultInjector* fault,
                             int ticks = 20, JobTotals* totals = nullptr,
                             int64_t pause_micros = 200) {
  EngineOptions options;
  options.exec.jobs.num_workers = workers;
  options.exec.num_threads = threads;
  options.exec.fault = fault;
  auto engine = ArmiesWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return 0;
  for (int t = 0; t < ticks; ++t) {
    if (t == ticks / 2) ArmiesWorkload::Retarget(engine->get(), config, 1);
    EXPECT_TRUE((*engine)->Tick().ok());
    std::this_thread::sleep_for(std::chrono::microseconds(pause_micros));
  }
  JobService* jobs = (*engine)->executor().jobs_or_null();
  if (totals != nullptr && jobs != nullptr) {
    totals->installed = jobs->total_installed();
    totals->fallback_runs = jobs->total_fallback_runs();
  }
  return CanonicalWorldChecksum((*engine)->world());
}

TEST(WorkerFaultTest, InjectedStallsKeepChecksumParity) {
  const ArmiesConfig config = FaultArmies();
  const uint64_t baseline = RunArmiesUnderFault(config, 0, 1, nullptr);
  // At 4 tick threads the tick pool's query phase runs beside the stalled
  // workers, and the barrier's drain races them for each job's claim.
  for (int threads : {1, 4}) {
    for (int workers : {1, 4}) {
      FaultInjector fault(
          RatePlan(kFaultAsyncWorkerStall, 0.3, /*stall micros=*/300));
      EXPECT_EQ(RunArmiesUnderFault(config, workers, threads, &fault),
                baseline)
          << workers << " workers, " << threads
          << " threads under injected stalls";
      EXPECT_GT(fault.total_fires(), 0) << "the stall plan never fired";
    }
  }
}

TEST(WorkerFaultTest, CertainDeathFallsBackToBarrierInlineRuns) {
  const ArmiesConfig config = FaultArmies();
  const uint64_t baseline = RunArmiesUnderFault(config, 0, 1, nullptr);
  // Every delivery dies: the retry budget (3 attempts) is spent without a
  // single worker claim, and *every* job runs through the barrier's
  // deadline-miss drain at its contracted tick, on the barrier thread at 1
  // and at 4 tick threads.
  for (int threads : {1, 4}) {
    FaultInjector fault(RatePlan(kFaultAsyncWorkerDeath, 1.0));
    JobTotals totals;
    EXPECT_EQ(RunArmiesUnderFault(config, 2, threads, &fault, 20,
                                  &totals),
              baseline)
        << threads << " threads";
    EXPECT_GT(totals.fallback_runs, 0) << "deadline fallback never ran";
    EXPECT_GT(fault.total_fires(), 0);
  }
}

TEST(WorkerFaultTest, PartialDeathRateKeepsChecksumParity) {
  const ArmiesConfig config = FaultArmies();
  const uint64_t baseline = RunArmiesUnderFault(config, 0, 1, nullptr);
  FaultInjector fault(RatePlan(kFaultAsyncWorkerDeath, 0.5));
  EXPECT_EQ(RunArmiesUnderFault(config, 4, 1, &fault), baseline)
      << "half the deliveries dying must not change a bit of state";
  EXPECT_GT(fault.total_fires(), 0);
}

TEST(WorkerFaultTest, ForcedSlowJobsUnderStallFaultKeepParity) {
  // Every delivery stalls its worker 2 ms before the claim. With 1 ms
  // between ticks and a 4-tick latency, stalled workers still claim jobs
  // ahead of their install ticks and finish them ticks after submission,
  // and the contracted-tick barrier still makes the state bit-identical
  // to the no-fault inline run, for any worker count.
  ArmiesConfig config = FaultArmies();
  config.num_units = 128;
  config.map_w = 28;
  config.map_h = 28;
  config.async.latency_ticks = 4;
  const int ticks = 16;
  const uint64_t baseline =
      RunArmiesUnderFault(config, 0, 1, nullptr, ticks);
  for (int workers : {1, 4}) {
    FaultInjector fault(
        RatePlan(kFaultAsyncWorkerStall, 1.0, /*stall micros=*/2000));
    JobTotals totals;
    EXPECT_EQ(RunArmiesUnderFault(config, workers, 1, &fault, ticks,
                                  &totals, /*pause_micros=*/1000),
              baseline)
        << workers << " workers, 2ms forced stalls";
    EXPECT_GT(fault.total_fires(), 0) << "the stall plan never fired";
    EXPECT_LT(totals.fallback_runs, totals.installed)
        << workers << " workers: no stalled worker ever ran a job";
  }
}

// --- Stats after restore (regression) ---------------------------------------

TEST(RestoreStatsTest, JobCountersResetConsistentlyAfterRestore) {
  const ArmiesConfig config = FaultArmies();
  EngineOptions options;
  options.exec.jobs.num_workers = 4;
  auto engine = ArmiesWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RunTicks(10).ok());
  ArmiesWorkload::Retarget(engine->get(), config, 1);
  ASSERT_TRUE((*engine)->Tick().ok());
  ASSERT_GT((*engine)->last_stats().jobs_in_flight, 0);
  const Checkpoint cp = (*engine)->TakeCheckpoint();
  ASSERT_FALSE(cp.jobs.empty());

  // Fidelity restore: in-flight jobs come back, the per-tick windows do
  // not — the pre-restore tick's submitted/installed/wait numbers must not
  // leak into the restored timeline.
  ASSERT_TRUE((*engine)->Restore(cp).ok());
  const TickStats& stats = (*engine)->last_stats();
  EXPECT_EQ(stats.jobs_submitted, 0);
  EXPECT_EQ(stats.jobs_installed, 0);
  EXPECT_EQ(stats.job_wait_micros, 0);
  EXPECT_GT(stats.jobs_in_flight, 0) << "fidelity restore keeps jobs";
  EXPECT_EQ(stats.jobs_in_flight,
            static_cast<int64_t>((*engine)->executor().jobs().in_flight()));
  // The rest of the record restarts at the restored tick too: no timings,
  // counters, gauges or site rows of the abandoned tick survive.
  EXPECT_EQ(stats.tick, (*engine)->tick());
  EXPECT_EQ(stats.total_micros, 0);
  EXPECT_EQ(stats.query_effect_micros, 0);
  EXPECT_EQ(stats.txn.issued, 0);
  EXPECT_EQ(stats.txn.committed, 0);
  EXPECT_EQ(stats.txn.aborted, 0);
  EXPECT_TRUE(stats.sites.empty());

  // Legacy restore (no jobs section): everything cancels, so the in-flight
  // gauge must read zero, not the stale pre-restore value.
  Checkpoint legacy = cp;
  legacy.jobs.clear();
  legacy.components.clear();
  ASSERT_TRUE((*engine)->Restore(legacy).ok());
  EXPECT_EQ((*engine)->last_stats().jobs_in_flight, 0);
  EXPECT_EQ((*engine)->last_stats().jobs_submitted, 0);
  // The engine keeps ticking fine on the legacy path.
  ASSERT_TRUE((*engine)->RunTicks(3).ok());
}

// --- Txn-layer crash: torn admission, checkpoint recovery -------------------

const char* kBank = R"sgl(
class Account {
  state:
    number balance = 40;
    number withdraw_amount = 0;
}
script Withdraw for Account {
  if (withdraw_amount > 0) {
    atomic "wd" require(balance >= 0) {
      balance <- -withdraw_amount;
    }
  }
}
)sgl";

std::unique_ptr<Engine> BuildBank(FaultInjector* fault) {
  EngineOptions options;
  options.exec.fault = fault;
  auto engine = Engine::Create(kBank, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(
        (*engine)
            ->Spawn("Account",
                    {{"withdraw_amount", Value::Number(i % 7 + 1)}})
            .ok());
  }
  return std::move(engine).value();
}

TEST(TxnFaultTest, AdmissionCrashTearsTheTickAndRestoreRecovers) {
  auto baseline = BuildBank(nullptr);
  ASSERT_TRUE(baseline->RunTicks(10).ok());
  const uint64_t expected = WorldChecksum(baseline->world());

  // Crash in the middle of tick 6's admission loop: some intents admitted,
  // the rest abandoned — exactly the torn state recovery must erase.
  FaultInjector fault(OneShotPlan(kFaultTxnAdmitCrash, /*at=*/6));
  auto engine = BuildBank(&fault);
  ASSERT_TRUE(engine->RunTicks(4).ok());
  const Checkpoint cp = engine->TakeCheckpoint();
  ASSERT_TRUE(engine->RunTicks(2).ok());  // ticks 4, 5
  const Status crash = engine->Tick();    // tick 6 dies mid-admission
  ASSERT_FALSE(crash.ok());
  EXPECT_TRUE(IsInjectedCrash(crash)) << crash;
  EXPECT_EQ(fault.total_fires(), 1);

  // Recover from the tick-4 checkpoint and replay. The crash rule is
  // spent (max_fires = 1), so the replay passes tick 6 unharmed — the
  // crash-once trace of a real process death.
  ASSERT_TRUE(engine->Restore(cp).ok());
  ASSERT_TRUE(engine->RunTicks(6).ok());
  EXPECT_EQ(WorldChecksum(engine->world()), expected)
      << "recovered run diverged from the run that never crashed";
  EXPECT_EQ(fault.total_fires(), 1) << "the spent crash rule re-fired";
}

// --- The capstone: crash-recovery differential harness ----------------------
//
// An armies run saves a durable checkpoint every 6 ticks and re-issues
// marching orders at fixed ticks. Injected crashes kill the engine at
// arbitrary points in the tick (post-query, pre-merge, post-update); the
// harness then does exactly what a restarted process would do — rebuild
// from scratch, load the newest *good* checkpoint file, restore, resume —
// and the final world must be bit-identical to the run that never crashed.

constexpr Tick kHarnessTicks = 36;

void MaybeRetarget(Engine* engine, const ArmiesConfig& config) {
  // Keyed off the engine tick (not a loop variable), so a post-restore
  // replay re-applies the same orders at the same ticks.
  if (engine->tick() == 12) {
    ArmiesWorkload::Retarget(engine, config, 1);
  } else if (engine->tick() == 24) {
    ArmiesWorkload::Retarget(engine, config, 2);
  }
}

// The harness runs `threads` tick threads over 64-row morsels, so a
// 4-thread run splits every selection across all four workers.
EngineOptions HarnessOptions(int threads, int workers) {
  EngineOptions options;
  options.exec.num_threads = threads;
  options.exec.morsel_size = 64;
  options.exec.jobs.num_workers = workers;
  return options;
}

uint64_t RunUninterrupted(const ArmiesConfig& config, int threads,
                          int workers) {
  const EngineOptions options = HarnessOptions(threads, workers);
  auto engine = ArmiesWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return 0;
  while ((*engine)->tick() < kHarnessTicks) {
    MaybeRetarget(engine->get(), config);
    EXPECT_TRUE((*engine)->Tick().ok());
  }
  return CanonicalWorldChecksum((*engine)->world());
}

// One crashy life: run with `fault` armed, checkpoint every 6 ticks, and on
// every injected crash rebuild + restore from the store. Returns the final
// canonical checksum; counts crashes and whether any restored checkpoint
// carried in-flight jobs.
uint64_t RunWithCrashRecovery(const ArmiesConfig& config, int threads,
                              int workers, FaultInjector* fault,
                              const std::string& dir, int* crashes,
                              int* restores_with_jobs) {
  EngineOptions options = HarnessOptions(threads, workers);
  options.exec.fault = fault;
  CheckpointStore store(dir, /*keep=*/3);
  auto engine = ArmiesWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return 0;
  while ((*engine)->tick() < kHarnessTicks) {
    if ((*engine)->tick() % 6 == 0) {
      const Status saved = store.Save((*engine)->TakeCheckpoint());
      EXPECT_TRUE(saved.ok()) << saved;
    }
    MaybeRetarget(engine->get(), config);
    const Status st = (*engine)->Tick();
    if (st.ok()) continue;
    EXPECT_TRUE(IsInjectedCrash(st)) << "genuine failure: " << st;
    if (!IsInjectedCrash(st)) return 0;
    ++*crashes;
    // The process "died": everything in memory is gone. Rebuild from
    // nothing but the durable store. The injector survives by design —
    // its spent max_fires counts are what keep the replay crash-free.
    engine = ArmiesWorkload::Build(config, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    if (!engine.ok()) return 0;
    auto cp = store.LoadLatestGood();
    EXPECT_TRUE(cp.ok()) << cp.status();
    if (!cp.ok()) return 0;
    if (!cp->jobs.empty()) ++*restores_with_jobs;
    const Status restored = (*engine)->Restore(*cp);
    EXPECT_TRUE(restored.ok()) << restored;
    if (!restored.ok()) return 0;
  }
  return CanonicalWorldChecksum((*engine)->world());
}

TEST(CrashRecoveryTest, DifferentialHarnessAcrossLayersThreadsAndWorkers) {
  ArmiesConfig config = FaultArmies();
  config.num_units = 256;

  struct Case {
    int threads;
    int workers;
    const FaultSite* site;
    Tick crash_tick;
    uint64_t seed;
  };
  // Early crashes land between the tick-6 and tick-12 checkpoints; late
  // ones past the second retargeting, restoring from tick 24 — both
  // crash sites at 1 and at 4 tick threads, inline and 4-worker jobs.
  const std::vector<Case> cases = {
      {1, 0, &kFaultExecCrashPostQuery, 7, 0xa1},
      {1, 4, &kFaultExecCrashPostUpdate, 29, 0xa2},
      {4, 0, &kFaultExecCrashPostQuery, 7, 0xa3},
      {4, 4, &kFaultExecCrashPostUpdate, 29, 0xa4},
      {1, 4, &kFaultExecCrashPostQuery, 17, 0xa5},
      {4, 4, &kFaultExecCrashPostQuery, 17, 0xa6},
  };

  // Determinism across configurations means one expected checksum for
  // every thread/worker combination — assert that first, then hold every
  // crashed-and-recovered run to it.
  const uint64_t expected = RunUninterrupted(config, 1, 0);
  ASSERT_NE(expected, 0u);
  EXPECT_EQ(RunUninterrupted(config, 1, 4), expected);
  EXPECT_EQ(RunUninterrupted(config, 4, 0), expected);
  EXPECT_EQ(RunUninterrupted(config, 4, 4), expected);

  int total_restores_with_jobs = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    FaultInjector fault(
        OneShotPlan(*c.site, c.crash_tick, c.seed));
    int crashes = 0;
    const std::string dir =
        FreshDir("harness_" + std::to_string(i));
    const uint64_t got =
        RunWithCrashRecovery(config, c.threads, c.workers, &fault, dir,
                             &crashes, &total_restores_with_jobs);
    EXPECT_EQ(got, expected)
        << "case " << i << ": " << c.site->name << " at tick "
        << c.crash_tick << ", threads=" << c.threads
        << ", workers=" << c.workers << "\n"
        << fault.Describe();
    EXPECT_EQ(crashes, 1) << "case " << i;
    EXPECT_EQ(fault.total_fires(), 1)
        << "case " << i << ": the crash either never fired or re-fired "
        << "on replay";
  }
  EXPECT_GT(total_restores_with_jobs, 0)
      << "the sweep must exercise restores with jobs in flight";
}

TEST(CrashRecoveryTest, SeededRateCrashesRecoverToo) {
  // Instead of a pinned crash tick, a seeded coin flip per tick — the
  // fuzzing mode. The fire tick is still a pure function of the plan, so
  // a failure here pins to a regression via Describe().
  ArmiesConfig config = FaultArmies();
  config.num_units = 256;
  const uint64_t expected = RunUninterrupted(config, 1, 4);
  FaultPlan plan;
  plan.seed = 0xfeedbee5;
  FaultRule rule;
  rule.site = kFaultExecCrashPostUpdate.name;
  rule.begin = 3;
  rule.rate = 0.5;
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  FaultInjector fault(plan);
  int crashes = 0;
  int with_jobs = 0;
  const uint64_t got =
      RunWithCrashRecovery(config, 1, 4, &fault, FreshDir("seeded"),
                           &crashes, &with_jobs);
  EXPECT_EQ(got, expected) << fault.Describe();
  // rate 0.5 from tick 3: the odds the rule never fired in 33 ticks are
  // 2^-33 — and for this fixed seed the outcome is the same every run.
  EXPECT_EQ(crashes, 1);
}

// --- Armed-but-idle fault plans stay allocation-free ------------------------

TEST(FaultAllocTest, ArmedIdlePlanKeepsTicksAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  // Rules that evaluate every tick (and every job delivery) but — by
  // window or by vanishing rate — never fire: the miss path must not cost
  // a single allocation once the pipeline is warm.
  FaultPlan plan;
  plan.seed = 11;
  FaultRule far_window;
  far_window.site = kFaultExecCrashPostQuery.name;
  far_window.begin = 1 << 20;
  plan.rules.push_back(far_window);
  FaultRule tiny_rate;
  tiny_rate.site = kFaultAsyncWorkerStall.name;
  tiny_rate.rate = 1e-12;  // hash evaluated on every delivery, never fires
  plan.rules.push_back(tiny_rate);
  FaultInjector fault(plan);

  const ArmiesConfig config = FaultArmies();
  EngineOptions options;
  options.exec.jobs.num_workers = 4;
  options.exec.fault = &fault;
  auto engine = ArmiesWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  int round = 0;
  for (int t = 0; t < 110; ++t) {
    if (t > 0 && t % 36 == 0) {
      ArmiesWorkload::Retarget(engine->get(), config, ++round);
    }
    ASSERT_TRUE((*engine)->Tick().ok());
  }
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE((*engine)->Tick().ok());
    EXPECT_EQ((*engine)->last_stats().allocs_per_tick, 0)
        << DescribeTickStats((*engine)->last_stats());
  }
  EXPECT_EQ(fault.total_fires(), 0);
}

}  // namespace
}  // namespace sgl
