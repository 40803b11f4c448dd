// Deterministic fault injection (src/fault/).
//
// Production robustness is only testable if failures are *schedulable*: a
// worker stall, a crash between the query and update phases, a torn
// checkpoint file must be reproducible on demand, at a chosen tick, from a
// seed. The FaultInjector is that scheduler. Subsystems declare named
// injection points (`SGL_FAULT_POINT`), a FaultPlan arms a set of rules
// (site × tick window × rate × payload), and whether a given evaluation
// fires is a pure function of `(plan seed, site, tick, key)` — no RNG
// state, no call-order dependence, no thread-count dependence. The same
// plan against the same run fires the same faults, which is what turns
// every fuzz-found failure into a pinned regression test (see README.md).
//
// Sites are named `layer.object.effect` ("async.worker.stall",
// "ckpt.write.bitflip", "exec.crash.postupdate"); the site id is the
// constexpr FNV-1a hash of the name, so call sites carry no strings and a
// disarmed check is a null-pointer test. The miss path is lock-free and
// allocation-free — an armed-but-idle plan keeps steady-state ticks at
// allocs_per_tick == 0.
//
// Firing semantics:
//   * A rule matches when the site id equals, `begin <= tick < end`, and
//     (for rate < 1) the seeded hash of (seed, site, tick, key) falls
//     under the rate threshold. `key` is the caller's per-evaluation
//     discriminator (job order key, intent index, ...), so two jobs at the
//     same tick roll independently — but each rolls the same way in every
//     run.
//   * `max_fires` caps total fires across the injector's lifetime. Crash
//     rules use max_fires = 1: the injector outlives the engine it crashed,
//     so the post-restore replay passes the crash tick without re-firing —
//     exactly a real crash-once trace.
//   * Every fire is recorded (site, tick, key) under a mutex; misses touch
//     no lock. Describe() renders the log as a reproducibility report.

#ifndef SGL_FAULT_FAULT_INJECTOR_H_
#define SGL_FAULT_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace sgl {

/// Compile-time FNV-1a 64 over a site name.
constexpr uint64_t FaultSiteHash(const char* s,
                                 uint64_t h = 0xcbf29ce484222325ULL) {
  return *s == '\0'
             ? h
             : FaultSiteHash(
                   s + 1,
                   (h ^ static_cast<uint64_t>(
                            static_cast<unsigned char>(*s))) *
                       0x100000001b3ULL);
}

/// A named injection point: the id is the hash callers compare against,
/// the name is kept for rule matching, logs, and crash messages.
struct FaultSite {
  uint64_t id;
  const char* name;
};

constexpr FaultSite MakeFaultSite(const char* name) {
  return FaultSite{FaultSiteHash(name), name};
}

// --- The injection points wired into the engine -------------------------
// async: JobService worker faults (src/async/job_service.cc).
inline constexpr FaultSite kFaultAsyncWorkerStall =
    MakeFaultSite("async.worker.stall");
inline constexpr FaultSite kFaultAsyncWorkerDeath =
    MakeFaultSite("async.worker.death");
// exec: crashes inside the tick of a one-shard engine
// (src/exec/tick_executor.cc).
inline constexpr FaultSite kFaultExecCrashPostQuery =
    MakeFaultSite("exec.crash.postquery");
inline constexpr FaultSite kFaultExecCrashPostUpdate =
    MakeFaultSite("exec.crash.postupdate");
// shard: barrier faults in the tick of a sharded engine (same executor).
inline constexpr FaultSite kFaultShardBarrierStall =
    MakeFaultSite("shard.barrier.stall");
inline constexpr FaultSite kFaultShardCrashPremerge =
    MakeFaultSite("shard.crash.premerge");
inline constexpr FaultSite kFaultShardCrashPostUpdate =
    MakeFaultSite("shard.crash.postupdate");
// txn: crash mid-admission, leaving a torn update phase (src/txn/).
inline constexpr FaultSite kFaultTxnAdmitCrash =
    MakeFaultSite("txn.admit.crash");
// ckpt: checkpoint file I/O faults (src/debug/checkpoint_file.cc).
inline constexpr FaultSite kFaultCkptWriteShort =
    MakeFaultSite("ckpt.write.short");
inline constexpr FaultSite kFaultCkptWriteTorn =
    MakeFaultSite("ckpt.write.torn");
inline constexpr FaultSite kFaultCkptWriteBitflip =
    MakeFaultSite("ckpt.write.bitflip");
inline constexpr FaultSite kFaultCkptReadBitflip =
    MakeFaultSite("ckpt.read.bitflip");
// alloc: fail an allocation during checkpoint serialization (via
// src/common/alloc_hook.h's armed countdown).
inline constexpr FaultSite kFaultCkptSerializeAllocFail =
    MakeFaultSite("ckpt.serialize.allocfail");

/// One armed fault: fire at `site` while `begin <= tick < end`, with
/// deterministic per-(tick, key) probability `rate`, at most `max_fires`
/// times (-1 = unlimited). `payload` parameterizes the effect (stall
/// micros, corrupted byte offset, truncated length, ...).
struct FaultRule {
  std::string site;
  Tick begin = 0;
  Tick end = std::numeric_limits<Tick>::max();
  double rate = 1.0;
  uint64_t payload = 0;
  int max_fires = -1;
};

/// A seeded schedule of faults. Reproducibility contract: the fire set is a
/// pure function of (seed, rules) and the (site, tick, key) evaluations the
/// run performs — identical runs see identical faults.
struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultRule> rules;
};

/// One recorded fire.
struct FaultEvent {
  const char* site;  ///< static site name
  Tick tick;
  uint64_t key;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  /// True if any rule could ever fire. A null injector pointer is the
  /// common disarmed fast path; this covers an injector with no rules.
  bool armed() const { return !rules_.empty(); }

  /// Evaluates `site` at `(tick, key)`. Returns true — and writes the
  /// matched rule's payload, if requested — when a rule fires. Thread-safe;
  /// the miss path takes no lock and allocates nothing.
  bool Fires(const FaultSite& site, Tick tick, uint64_t key,
             uint64_t* payload = nullptr);

  /// Crash-site helper: OK, or an injected-crash Internal Status carrying
  /// the site name (recognizable via IsInjectedCrash).
  Status MaybeCrash(const FaultSite& site, Tick tick, uint64_t key = 0);

  /// Stall-site helper: busy-waits the rule payload (micros; 0 = 100) when
  /// the site fires. State-neutral — a latency fault, not a state fault.
  void MaybeStall(const FaultSite& site, Tick tick, uint64_t key = 0);

  int64_t total_fires() const {
    return total_fires_.load(std::memory_order_relaxed);
  }
  int64_t fires_at(const FaultSite& site) const;

  /// Copy of the fire log (ordered by fire time within each thread).
  std::vector<FaultEvent> Log() const;

  /// Human-readable reproducibility report: seed + every (site, tick, key)
  /// fired, i.e. everything needed to pin the failure as a regression.
  std::string Describe() const;

 private:
  struct CompiledRule {
    uint64_t site_id;
    const std::string* name;  ///< points into plan_.rules
    Tick begin;
    Tick end;
    uint64_t threshold;  ///< rate mapped onto [0, 2^64)
    uint64_t payload;
    int32_t max_fires;
    std::atomic<int32_t> fires{0};
  };

  FaultPlan plan_;
  std::vector<std::unique_ptr<CompiledRule>> rules_;
  std::atomic<int64_t> total_fires_{0};
  mutable std::mutex log_mu_;
  std::vector<FaultEvent> log_;
};

/// True when `status` is an injected crash (FaultInjector::MaybeCrash or a
/// torn-write checkpoint fault) rather than a genuine engine error.
bool IsInjectedCrash(const Status& status);

/// The message prefix injected crashes carry.
inline constexpr const char* kFaultCrashPrefix = "fault: injected crash";

/// The documented guard idiom for inline injection points:
///   uint64_t payload = 0;
///   if (SGL_FAULT_POINT(fault_, kFaultAsyncWorkerStall, tick, key,
///                       &payload)) { ... }
/// Compiles to a null test when disarmed.
#define SGL_FAULT_POINT(injector, site, tick, key, payload_out) \
  ((injector) != nullptr &&                                     \
   (injector)->Fires((site), (tick), (key), (payload_out)))

}  // namespace sgl

#endif  // SGL_FAULT_FAULT_INJECTOR_H_
