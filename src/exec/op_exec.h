// Plan-operator execution: the vectorized set-at-a-time path (§2, §4) and
// the scalar object-at-a-time path (the baseline a traditional engine would
// use, and the comparator of bench E1). Both consume the same CompiledScript
// ops over the same storage, so they are semantically interchangeable —
// property tests assert equal end states. The vectorized path evaluates
// every expression on the bytecode VM (src/vm/) and answers range-indexed
// accum sites with one batched index probe per morsel; the scalar path uses
// only the scalar evaluator of src/ra/eval.h.

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

class Telemetry;
class VmProgramCache;

/// Flat multimap from a numeric inner field to its rows: a sorted
/// (key, row) array rebuilt per tick into the same buffer (no node
/// allocation, unlike unordered_multimap). Lookups append rows ascending,
/// matching the canonical candidate order.
class FlatNumHash {
 public:
  /// Rebuilds over `col[0..n)`, reusing the entry buffer's capacity.
  void Build(ConstNumberColumn col, size_t n);
  /// Appends every row whose key equals `key`, in ascending row order.
  void Lookup(double key, std::vector<RowIdx>* out) const;

 private:
  std::vector<std::pair<double, RowIdx>> entries_;  // sorted by (key, row)
};

/// Per-tick prepared access path for one AccumOp site. All pointers borrow
/// from the executor-owned SiteCache / IndexManager; PreparedSite itself is
/// a plain value refreshed in place each tick.
struct PreparedSite {
  JoinStrategy strategy = JoinStrategy::kNestedLoop;
  const SpatialIndex* index = nullptr;  ///< tree/grid strategies
  const FlatNumHash* hash = nullptr;    ///< numeric-field hash strategy
  FieldIdx hash_field = kInvalidField;  ///< kInvalidField = entity-id probe
  /// Pair filters, composed from the op's predicate pieces:
  /// `nl_filter` re-checks everything (range + hash + residual + self);
  /// `post_index_filter` omits what the access path already guarantees.
  const Expr* nl_filter = nullptr;
  const Expr* post_index_filter = nullptr;
  /// Bytecode twins of the pair filters (null iff the filter is).
  const VmProgram* nl_filter_vm = nullptr;
  const VmProgram* post_filter_vm = nullptr;
};

/// Executor-owned per-site cache backing PreparedSite across ticks: the
/// composed filter expressions (rebuilt only when the strategy switches,
/// not every tick), the index spec, and the reused hash-table buffer.
struct SiteCache {
  ExprPtr nl_filter;  ///< strategy-independent; composed once
  bool nl_built = false;
  ExprPtr post_index_filter;  ///< for `post_strategy`
  JoinStrategy post_strategy = JoinStrategy::kNestedLoop;
  bool post_built = false;
  IndexSpec spec;  ///< tree/grid strategies; fields filled once
  bool spec_built = false;
  FlatNumHash hash;  ///< kHash strategy; rebuilt per tick in place
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
/// fetches the index / hash table and composes the residual filters and
/// their bytecode twins (cached in `cache`; recomposed and recompiled only
/// on a strategy switch).
void PrepareSite(const AccumOp& op, JoinStrategy strategy, const World& world,
                 IndexManager* indexes, Tick tick, SiteCache* cache,
                 PreparedSite* out);

/// Routes effect writes by target row when the world is partitioned into
/// shards (src/shard/): writes whose target row lies in the emitting
/// shard's own partition land in its dense local buffer, remote writes are
/// appended to the (src, dst) mailbox lane and replayed at the tick
/// barrier. One-partition layouts leave ExecEnv::router null and pay
/// nothing; the virtual dispatch only sits on the sharded path.
class EffectRouter {
 public:
  virtual ~EffectRouter() = default;
  virtual void AddNumber(ClassId cls, FieldIdx f, RowIdx row, double v,
                         uint64_t order_key) = 0;
  virtual void AddBool(ClassId cls, FieldIdx f, RowIdx row, bool v,
                       uint64_t order_key) = 0;
  virtual void AddRef(ClassId cls, FieldIdx f, RowIdx row, EntityId v,
                      uint64_t order_key) = 0;
  virtual void AddSetInsert(ClassId cls, FieldIdx f, RowIdx row,
                            EntityId v) = 0;
};

/// Everything one worker needs while running ops over a morsel.
struct ExecEnv {
  World* world = nullptr;
  Tick tick = 0;
  ClassId outer_cls = kInvalidClass;
  const EntityTable* outer = nullptr;

  /// Effect sinks, one per class (worker shard or the world's own buffers).
  /// Ignored when `router` is set.
  std::vector<EffectBuffer*> effect_sinks;
  /// Shard-mode effect routing; null with one partition.
  EffectRouter* router = nullptr;
  /// Transaction-intent sink (worker shard's flat intent log).
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
  /// Second tracing sink: the flight recorder's armed watch-all capture
  /// (src/telemetry/flight_recorder.h). Null = off; independent of
  /// `trace` so a user tracer and the recorder can coexist.
  EffectTraceSink* recorder_sink = nullptr;
  /// Telemetry span sink (src/telemetry/); null = disarmed (one branch
  /// per instrumented point). Borrowed, set by the owning executor.
  Telemetry* telemetry = nullptr;
  /// Chrome-trace pid for this worker's spans: 0 = world (one partition /
  /// barrier thread), s + 1 = world shard s.
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
