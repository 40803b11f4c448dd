// TickExecutor: drives the state-effect pattern (§2) each tick, as one
// pipeline over the whole world.
//
// Every tick runs the same phases in the same order:
//
//   1 SELECT      script selections over each class's rows (multi-phase
//                 scripts dispatch on their PC column) and reactive-handler
//                 conditions; both read only prior state and zeroed locals
//   2 SITE-PREP   access paths (join strategy, indexes, hashes, composed
//                 pair filters) are prepared once, globally, from each
//                 unit's outer-row count
//   3 QUERY       compiled plans run set-at-a-time over the selections,
//                 scripts then handlers; effects and transaction intents
//                 land in per-worker sinks — the phase only reads state, so
//                 no synchronization (§4.2)
//   4 MERGE       worker sinks fold into the world's effect buffers in
//                 worker order (first/last carry explicit keys; min/max,
//                 or/and and count are order-insensitive; sum/avg add the
//                 workers' partial sums, so over inexact summands they
//                 depend on how the folds are split — determinism rule 2
//                 below); set logs canonicalize
//   5 INSTALL     due out-of-band job results install (src/async/)
//   6 UPDATE      update components run over their disjoint state
//                 partitions: transaction admission, declared update
//                 rules, then any registered engine components (§2.2)
//   7 BOOKKEEPING statistics refresh, adaptive feedback, tick++
//
// ExecOptions::num_shards decides only the worker schedule of the query
// phase. With one shard the workers split each selection into morsels
// (morsel m on worker m % T), one fan-out per unit. With S > 1 shards
// there is one worker per shard and one fan-out per tick: worker s runs,
// of every selection, the rows inside block s of their class — rows
// [n·s/S, n·(s+1)/S) for the class's current size n — its morsels in
// order. The blocks are worked out afresh each tick, so spawns and
// despawns between ticks need no bookkeeping. Reads see the whole world
// on either schedule, and effects go to the same sinks: worker 0 writes
// the world's own effect buffers, every other worker its own full-size
// buffers, and the merge folds those into the world's in worker order
// (= shard order).
//
// Determinism:
//   1 With a fixed shard count S > 1, results are bit-identical for any
//     thread count and any morsel size: each shard's work is
//     self-contained (own sinks, scratch, intent log, feedback), shards
//     merge in shard order, and a shard runs its morsels in order.
//   2 Otherwise results are the same for any thread count, morsel size and
//     shard count, with one exception: a `sum`/`avg` over inexact summands
//     folds one partial sum per worker, so it can differ in floating-point
//     association. Order-keyed (first/last), idempotent (min/max/or/and)
//     and counting combinators are bit-exact, and so are sums whose
//     additions are exact (integers, dyadic rationals). Despawns change
//     nothing here: every schedule swap-removes through World::Despawn, so
//     rows keep the same order on every layout.
//
// Expressions run on the register bytecode VM (src/vm/): Init() lowers every
// plan expression and update rule once, and a program that does not lower
// fails Init(). Setting ExecOptions::interpreted instead runs the identical
// program object-at-a-time (per-entity scalar evaluation, full scans in
// accum loops, row-by-row update rules) — the reference oracle, the
// baseline that traditional game engines implement and bench E1 compares
// against. It runs no VM code.
//
// Steady-state ticks are allocation-free on both halves of the tick: every
// selection vector, local column, prepared site, effect sink, and
// evaluation temporary lives in executor-owned scratch with high-water
// reuse (reads), and the write path — per-worker flat intent logs, the
// dense epoch StateOverlay, CSR-pooled set effects — never boxes per row
// (see txn/txn_engine.h, storage/effect_buffer.h). TickStats reports the
// residual via allocs_per_tick / bytes_per_tick (see common/alloc_hook.h).

#ifndef SGL_EXEC_TICK_EXECUTOR_H_
#define SGL_EXEC_TICK_EXECUTOR_H_

#include <memory>
#include <vector>

#include "src/async/job_service.h"
#include "src/common/thread_pool.h"
#include "src/exec/op_exec.h"
#include "src/update/update_component.h"

namespace sgl {

class FaultInjector;
class FlightRecorder;
class Telemetry;

/// Executor configuration.
struct ExecOptions {
  int num_threads = 1;
  /// > 1 runs the query phase as that many row blocks, one worker each
  /// (see the header comment); must stay below 255. The remaining fields
  /// keep their meaning under either schedule.
  int num_shards = 1;
  /// Rows per morsel, the unit of work a thread runs at a time; > 0.
  size_t morsel_size = 2048;
  AdaptiveController::Options planner;
  bool interpreted = false;  ///< object-at-a-time baseline mode (oracle)
  /// Out-of-band job execution (src/async/): worker count, ordering-key
  /// seed. The JobService is created lazily, when a component first asks
  /// for it (Engine::AddAsyncPathfinder / executor jobs()).
  JobServiceOptions jobs;
  /// Armed fault plan (src/fault/): threaded into the executor's crash
  /// sites, the transaction admission path, and the lazily-created
  /// JobService. Null = all sites disarmed. Must outlive the executor —
  /// deliberately so, since crash-recovery rebuilds the executor while the
  /// injector's fire counts carry across (max_fires crash-once semantics).
  FaultInjector* fault = nullptr;
  /// Observability sink (src/telemetry/): span tracing across every tick
  /// phase, the standard latency histograms (p50/p95/p99 via Snapshot()),
  /// and per-site attribution. Null = disarmed, one branch per span — the
  /// same borrowed-pointer lifetime contract as `fault`; must outlive the
  /// executor. Shared with the lazily-created JobService and the VM
  /// program cache.
  Telemetry* telemetry = nullptr;
  /// Flight recorder (src/telemetry/flight_recorder.h): a pooled ring of
  /// the last K ticks' provenance-tagged effect records, stats, and
  /// per-site rows, with black-box dump triggers. Null or disarmed = no
  /// capture (one branch per tick plus one null check per write
  /// statement).
  /// Same borrowed-pointer lifetime contract as `fault` / `telemetry`:
  /// must outlive the executor.
  FlightRecorder* recorder = nullptr;
};

/// Timings and counters for the last tick: the one per-tick record. The
/// executor fills it; telemetry (Telemetry::RecordTick), the flight
/// recorder's frames (TickFrame::stats) and ExplainTick read it as is.
struct TickStats {
  Tick tick = 0;
  int64_t query_effect_micros = 0;
  int64_t merge_micros = 0;
  int64_t update_micros = 0;
  int64_t index_build_micros = 0;  ///< portion of query phase spent building
  /// Heap bytes resident in the spatial indices after the tick. The flat
  /// index layouts make this an O(#indices) capacity sum, cheap enough to
  /// sample every tick.
  int64_t index_memory_bytes = 0;
  int64_t total_micros = 0;
  /// Heap traffic during the tick, across all threads (0 when the counting
  /// hook is compiled out). Steady-state ticks should report ~0. Read
  /// after the flight recorder captured the tick, so that its frame
  /// assembly counts too — which is also why a frame's (and ExplainTick's)
  /// copy of the record has both fields 0.
  int64_t allocs_per_tick = 0;
  int64_t bytes_per_tick = 0;
  /// Bytecode programs resident in the executor's cache (0 under
  /// `interpreted`) and their one-time lowering cost (paid in Init(), not
  /// per tick).
  int64_t vm_programs = 0;
  int64_t vm_compile_micros = 0;
  /// Always 0: lowering never falls back (a program that does not lower
  /// fails Init()). Kept only because the tick-anatomy benchmark
  /// (perfbench/) reports it as `vm.fallbacks`.
  int64_t vm_fallbacks = 0;
  /// Time inside batched QueryBatch calls, summed over sites and shards.
  int64_t probe_micros = 0;
  /// Double lanes processed by AVX2 kernel bodies this tick (0 under
  /// scalar dispatch — see common/cpu_features.h).
  int64_t simd_lanes_used = 0;
  /// Out-of-band job activity (src/async/; all 0 with no JobService).
  int64_t jobs_submitted = 0;
  int64_t jobs_installed = 0;
  int64_t jobs_in_flight = 0;
  /// Barrier time spent blocked on jobs whose declared latency elapsed
  /// before their worker finished (the async pipeline's only stall).
  int64_t job_wait_micros = 0;
  /// Shard-schedule gauges. Sharded: the slowest-minus-fastest shard query
  /// time (approximates how long the barrier waited on the straggler) and
  /// that skew as (max/mean - 1) in basis points. One shard: -1 / 0.
  int64_t barrier_stall_us = -1;
  int64_t imbalance_bp = 0;
  std::vector<SiteFeedback> sites;  ///< per accum site, aggregated
  TxnStats txn;

  /// Every field back to its default for tick `now`, keeping `sites`'
  /// capacity (emptied).
  void Reset(Tick now);
};

class TickExecutor {
 public:
  /// `world` and `program` must outlive the executor. Options must be
  /// valid (Engine::Create checks them).
  TickExecutor(World* world, const CompiledProgram* program,
               ExecOptions options);
  ~TickExecutor();

  /// Lowers the program to bytecode (unless `interpreted`) and registers
  /// the built-in components (transaction engine + expression updater).
  /// Must run before the first tick; additional components (physics,
  /// pathfinding) may be registered after. Returns the lowering error of
  /// an expression the VM cannot execute.
  Status Init();

  /// Registers an engine update component (ownership checked, §2.2).
  Status RegisterComponent(std::unique_ptr<UpdateComponent> component);

  /// Executes one tick.
  Status RunTick();

  Tick tick() const { return tick_; }
  /// Repositions the tick counter (checkpoint restore, §3.3).
  void set_tick(Tick tick) { tick_ = tick; }
  /// Resets last_stats() to the restored tick after a checkpoint restore
  /// (jobs_in_flight re-reads the service) so the abandoned timeline's
  /// numbers never leak into the restored one.
  void ResetStatsAfterRestore();
  const TickStats& last_stats() const { return last_; }
  const ExecOptions& options() const { return options_; }

  AdaptiveController& controller() { return controller_; }
  IndexManager& indexes() { return indexes_; }
  TxnEngine& txn() { return txn_; }
  ComponentRegistry& components() { return components_; }

  /// The out-of-band JobService (created on first use from
  /// options().jobs). Completions install at the tick barrier, after the
  /// merge and before the update components run.
  JobService& jobs() {
    if (jobs_ == nullptr) {
      JobServiceOptions jo = options_.jobs;
      jo.fault = options_.fault;  // worker stall/death sites share the plan
      jo.telemetry = options_.telemetry;  // worker-run spans, same lifetime
      jobs_ = std::make_unique<JobService>(jo);
    }
    return *jobs_;
  }
  /// Null if no component ever asked for the service.
  JobService* jobs_or_null() { return jobs_.get(); }

  /// Attaches / detaches the effect tracer (§3.3). Null = off.
  void set_trace(EffectTraceSink* sink) { trace_ = sink; }

 private:
  /// One worker's reusable state and effect sink (see the header comment).
  struct Worker;

  bool sharded() const { return options_.num_shards > 1; }
  void ComputeSelections();
  void PrepareAllSites();
  void PrepareSites(const std::vector<std::unique_ptr<PlanOp>>& ops,
                    size_t outer_rows);
  /// Runs every unit's rows of shard `shard` (all rows with one shard).
  void RunShard(int shard);
  void RunUnit(int shard, const std::vector<std::unique_ptr<PlanOp>>& ops,
               ClassId cls, const std::vector<RowIdx>& selection,
               LocalColumns* locals);

  World* world_;
  const CompiledProgram* program_;
  ExecOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  IndexManager indexes_;
  StatsManager stats_mgr_;
  AdaptiveController controller_;
  TxnEngine txn_;
  ComponentRegistry components_;
  /// Compiled bytecode programs; null under `interpreted`. Built once in
  /// Init(); prepared-site filters compile into SiteCache separately (they
  /// are composed, not program-owned, Exprs).
  std::unique_ptr<VmProgramCache> vm_cache_;
  std::unique_ptr<JobService> jobs_;  ///< lazily created, see jobs()
  EffectTraceSink* trace_ = nullptr;
  /// The flight recorder capturing this tick; refreshed at tick start
  /// (null when no recorder is attached or it is disarmed).
  FlightRecorder* capture_ = nullptr;
  Tick tick_ = 0;
  TickStats last_;
  bool initialized_ = false;

  // --- Steady-state scratch (high-water reuse, see header comment) ------
  /// One per shard when sharded (shard s runs on workers_[s]), else one
  /// per thread.
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Per script, per phase: the selected rows, ascending.
  std::vector<std::vector<std::vector<RowIdx>>> script_selections_;
  /// Per handler: the cached iota of the class's rows, this tick's
  /// selection (ascending), and the condition's keep flags.
  std::vector<std::vector<RowIdx>> handler_rows_;
  std::vector<std::vector<RowIdx>> handler_selections_;
  std::vector<uint8_t> handler_keep_;
  /// Per shard: wall time of its query phase last tick; the barrier
  /// derives the stall (max−min) and imbalance gauges from these.
  std::vector<int64_t> shard_query_micros_;
  std::vector<SiteCache> site_cache_;    ///< by site id
  std::vector<PreparedSite> prepared_;   ///< by site id, refreshed per tick
  std::vector<LocalColumns> script_locals_;   ///< by script index
  std::vector<LocalColumns> handler_locals_;  ///< by handler index
};

}  // namespace sgl

#endif  // SGL_EXEC_TICK_EXECUTOR_H_
