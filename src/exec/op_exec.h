// Plan-operator execution: the vectorized set-at-a-time path (§2, §4) and
// the scalar object-at-a-time path (the baseline a traditional engine would
// use, and the comparator of bench E1). Both consume the same CompiledScript
// ops over the same storage, so they are semantically interchangeable —
// property tests assert equal end states. The vectorized path evaluates
// every expression on the bytecode VM (src/vm/) and answers range-indexed
// accum sites with one batched index probe per morsel; the scalar path uses
// only the scalar evaluator of src/ra/eval.h. On both, every effect write
// goes straight into the worker's EffectBuffer for the target class,
// whatever the shard count.

#ifndef SGL_EXEC_OP_EXEC_H_
#define SGL_EXEC_OP_EXEC_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/debug/trace.h"
#include "src/index/index_manager.h"
#include "src/opt/adaptive.h"
#include "src/ra/eval.h"
#include "src/ra/plan.h"
#include "src/txn/txn_engine.h"
#include "src/vm/vm.h"

namespace sgl {

class FlightRecorder;
class Telemetry;
class VmProgramCache;

/// Per-tick prepared access path for one AccumOp site. All pointers borrow
/// from the executor-owned SiteCache / IndexManager; PreparedSite itself is
/// a plain value refreshed in place each tick.
struct PreparedSite {
  JoinStrategy strategy = JoinStrategy::kNestedLoop;
  const GridIndex* index = nullptr;  ///< grid strategy only
  /// Pair filters, composed from the op's predicate pieces:
  /// `nl_filter` re-checks everything (range + hash + key + inner filter +
  /// residual); `post_index_filter` omits what the access path already
  /// guarantees (the grid: range, key and inner filter).
  const Expr* nl_filter = nullptr;
  const Expr* post_index_filter = nullptr;
  /// Bytecode twins of the pair filters (null iff the filter is).
  const VmProgram* nl_filter_vm = nullptr;
  const VmProgram* post_filter_vm = nullptr;
};

/// Executor-owned per-site cache backing PreparedSite across ticks: the
/// composed filter expressions (rebuilt only when the strategy switches,
/// not every tick) and the index spec.
struct SiteCache {
  ExprPtr nl_filter;  ///< strategy-independent; composed once
  bool nl_built = false;
  ExprPtr post_index_filter;  ///< for `post_strategy`
  JoinStrategy post_strategy = JoinStrategy::kNestedLoop;
  bool post_built = false;
  IndexSpec spec;  ///< grid strategy; filled once
  bool spec_built = false;
  /// Compiled twins of the composed filters, lowered whenever the Expr is
  /// (re)composed.
  VmProgram nl_filter_vm;
  VmProgram post_filter_vm;
};

/// Per-worker execution scratch: the eval pools plus operator-level reusable
/// buffers. Owned by the executor, one per worker; everything keeps its
/// high-water capacity so steady-state ticks allocate nothing.
struct ExecScratch : EvalScratch {
  /// Reused holders for per-assign evaluated columns (accum folds and
  /// transaction emission). The pointed-to vectors come from the pools.
  struct AssignBufs {
    std::vector<uint8_t>* guard = nullptr;
    std::vector<double>* nums = nullptr;
    std::vector<uint8_t>* bools = nullptr;
    std::vector<EntityId>* refs = nullptr;
    std::vector<EntityId>* targets = nullptr;
  };
  std::vector<AssignBufs> assign_bufs;
  /// Bytecode register files; high-water like the pools, so steady-state
  /// VM execution allocates nothing.
  VmRegisters vm;
  /// Pooled CSR output of batched index probes; every buffer keeps its
  /// high-water capacity across ticks.
  ProbeBatch probe;
};

/// Refreshes the prepared access path for `op` under `strategy`: builds or
/// fetches the grid index (evaluating its inner filter on `regs`) and
/// composes the pair filters and their bytecode twins (cached in `cache`;
/// recomposed and recompiled only on a strategy switch).
void PrepareSite(const AccumOp& op, JoinStrategy strategy, const World& world,
                 IndexManager* indexes, Tick tick, VmRegisters* regs,
                 SiteCache* cache, PreparedSite* out);

/// Everything one worker needs while running ops over a morsel.
struct ExecEnv {
  World* world = nullptr;
  Tick tick = 0;
  ClassId outer_cls = kInvalidClass;
  const EntityTable* outer = nullptr;

  /// Effect sinks, one per class: the world's own buffers for worker 0,
  /// the worker's full-size buffers for every other worker.
  std::vector<EffectBuffer*> effect_sinks;
  /// Transaction-intent sink (the worker's flat intent log).
  TxnIntentLog* txn_sink = nullptr;
  /// Local columns of the running script/handler (full table size; morsels
  /// write disjoint rows).
  LocalColumns* locals = nullptr;
  /// Prepared access paths, indexed by site id (size = program num_sites).
  const std::vector<PreparedSite>* prepared = nullptr;
  /// This worker's scratch pools. Required on the vectorized path.
  ExecScratch* scratch = nullptr;
  /// Compiled bytecode programs; every expression the vectorized path
  /// evaluates has one. Null on the scalar path.
  const VmProgramCache* vm = nullptr;
  /// Per-site runtime feedback accumulator (size = program's num_sites).
  std::vector<SiteFeedback>* feedback = nullptr;
  /// Optional tracing sink (§3.3). Null = off.
  EffectTraceSink* trace = nullptr;
  /// The armed flight recorder, which captures every write
  /// (src/telemetry/flight_recorder.h). Null = off; independent of `trace`
  /// so a user tracer and the recorder can coexist.
  FlightRecorder* recorder = nullptr;
  /// Telemetry span sink (src/telemetry/); null = disarmed (one branch
  /// per instrumented point). Borrowed, set by the owning executor.
  Telemetry* telemetry = nullptr;
  /// Chrome-trace pid for this worker's spans: 0 = world (one shard /
  /// barrier thread), s + 1 = shard s.
  uint8_t tel_track = 0;
};

/// Runs `ops` set-at-a-time over `selection` (rows of env.outer).
void RunOpsVectorized(const std::vector<std::unique_ptr<PlanOp>>& ops,
                      const std::vector<RowIdx>& selection, ExecEnv& env);

/// Runs `ops` with per-row scalar evaluation and full accum scans (the
/// object-at-a-time baseline). Iteration is statement-major so ⊕
/// accumulation order — including FP reassociation in sums — is identical
/// to the vectorized path.
void RunOpsScalar(const std::vector<std::unique_ptr<PlanOp>>& ops,
                  const std::vector<RowIdx>& selection, ExecEnv& env);

}  // namespace sgl

#endif  // SGL_EXEC_OP_EXEC_H_
