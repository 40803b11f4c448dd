#include "src/exec/tick_executor.h"

#include <algorithm>

#include "src/common/alloc_hook.h"
#include "src/common/stopwatch.h"
#include "src/common/vec_util.h"
#include "src/fault/fault_injector.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/update/expr_updater.h"
#include "src/vm/compile.h"
#include "src/vm/kernels.h"

namespace sgl {

void TickStats::Reset(Tick now) {
  std::vector<SiteFeedback> keep = std::move(sites);
  keep.clear();
  *this = TickStats();
  tick = now;
  sites = std::move(keep);
}

struct TickExecutor::Worker {
  ExecEnv env;
  ExecScratch scratch;
  std::vector<RowIdx> slice;  ///< morsel chunk buffer
  std::vector<SiteFeedback> feedback;
  /// The effect sink of every worker but worker 0 (which writes the
  /// world's own buffers): full-size buffers by class, merged in worker
  /// order.
  std::vector<std::unique_ptr<EffectBuffer>> effects;
};

TickExecutor::TickExecutor(World* world, const CompiledProgram* program,
                           ExecOptions options)
    : world_(world),
      program_(program),
      options_(options),
      controller_(options.planner, program->num_sites),
      txn_(program) {
  txn_.set_fault(options_.fault);
  if (options_.telemetry != nullptr) {
    options_.telemetry->EnsureSites(program_->num_sites);
  }
  if (!options_.interpreted) {
    vm_cache_ = std::make_unique<VmProgramCache>();
    vm_cache_->set_telemetry(options_.telemetry);
  }
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  site_cache_.resize(static_cast<size_t>(program_->num_sites));
  prepared_.resize(static_cast<size_t>(program_->num_sites));
  script_locals_.resize(program_->scripts.size());
  handler_locals_.resize(program_->handlers.size());

  // The schedule: one worker per shard, or one per thread on one shard.
  // Shard ids fit the 8-bit provenance and trace-track fields.
  SGL_CHECK(options_.num_shards < 255);
  const int num_shards = std::max(1, options_.num_shards);
  const int num_workers =
      sharded() ? num_shards : std::max(1, options_.num_threads);
  const Catalog& catalog = world_->catalog();
  for (int w = 0; w < num_workers; ++w) {
    auto worker = std::make_unique<Worker>();
    ExecEnv& env = worker->env;
    env.world = world_;
    for (ClassId c = 0; c < catalog.num_classes(); ++c) {
      if (w == 0) {
        env.effect_sinks.push_back(&world_->effects(c));
      } else {
        worker->effects.push_back(
            std::make_unique<EffectBuffer>(&catalog.Get(c)));
        env.effect_sinks.push_back(worker->effects.back().get());
      }
    }
    // Chrome pid s+1 for shard s: pid 0 stays the barrier thread's "world"
    // track.
    if (sharded()) env.tel_track = static_cast<uint8_t>(w + 1);
    env.scratch = &worker->scratch;
    env.vm = vm_cache_.get();
    env.telemetry = options_.telemetry;
    workers_.push_back(std::move(worker));
  }
  for (const CompiledScript& script : program_->scripts) {
    script_selections_.emplace_back(static_cast<size_t>(script.num_phases()));
  }
  handler_rows_.resize(program_->handlers.size());
  handler_selections_.resize(program_->handlers.size());
  shard_query_micros_.resize(static_cast<size_t>(num_shards));
}

TickExecutor::~TickExecutor() = default;

Status TickExecutor::Init() {
  SGL_CHECK(!initialized_);
  if (vm_cache_ != nullptr) {
    SGL_RETURN_IF_ERROR(vm_cache_->CompileProgram(*program_));
  }
  Catalog* catalog = program_->catalog.get();
  SGL_RETURN_IF_ERROR(
      components_.Register(catalog, MakeTxnComponent(&txn_, program_)));
  SGL_RETURN_IF_ERROR(components_.Register(
      catalog, std::make_unique<ExprUpdater>(program_, vm_cache_.get())));
  initialized_ = true;
  return Status::OK();
}

Status TickExecutor::RegisterComponent(
    std::unique_ptr<UpdateComponent> component) {
  SGL_CHECK(initialized_ && "call Init() first");
  return components_.Register(program_->catalog.get(), std::move(component));
}

void TickExecutor::ComputeSelections() {
  Worker& worker = *workers_[0];

  // Scripts: every class extent, dispatched on the PC column for
  // multi-phase scripts (§3.2).
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    auto& selections = script_selections_[si];
    const size_t n = world_->table(script.cls).size();
    if (script.num_phases() == 1) {
      FillRange(n, &selections[0]);
    } else {
      for (auto& sel : selections) sel.clear();
      ConstNumberColumn pc = world_->table(script.cls).Num(script.pc_state);
      for (RowIdx r = 0; r < n; ++r) {
        int phase = static_cast<int>(pc[r]);
        if (phase < 0 || phase >= script.num_phases()) phase = 0;
        selections[static_cast<size_t>(phase)].push_back(r);
      }
    }
  }

  // Handlers (§3.2): conditions over the class's rows. They only read
  // prior state and zeroed locals, both unchanged throughout the query
  // phase, so evaluating them before any script runs is equivalent to
  // evaluating them after.
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    const CompiledHandler& handler = program_->handlers[hi];
    auto& rows = handler_rows_[hi];
    FillRange(world_->table(handler.cls).size(), &rows);
    auto& selection = handler_selections_[hi];
    selection.clear();
    if (rows.empty()) continue;
    if (options_.interpreted) {
      ScalarContext ctx;
      ctx.world = world_;
      ctx.outer_cls = handler.cls;
      ctx.locals = &handler_locals_[hi];
      for (RowIdx row : rows) {
        ctx.outer_row = row;
        if (EvalScalarBool(*handler.cond, ctx)) selection.push_back(row);
      }
    } else {
      VecContext ctx;
      ctx.world = world_;
      ctx.outer = &world_->table(handler.cls);
      ctx.outer_rows = &rows;
      ctx.locals = &handler_locals_[hi];
      VmEvalBool(*vm_cache_->Value(handler.cond.get()), ctx,
                 &worker.scratch.vm, nullptr, 0, &handler_keep_);
      for (size_t i = 0; i < rows.size(); ++i) {
        if (handler_keep_[i]) selection.push_back(rows[i]);
      }
    }
  }
}

void TickExecutor::PrepareSites(
    const std::vector<std::unique_ptr<PlanOp>>& ops, size_t outer_rows) {
  for (const auto& op : ops) {
    if (op->kind != PlanOp::Kind::kAccum) continue;
    const auto* accum = static_cast<const AccumOp*>(op.get());
    JoinStrategy strategy;
    if (options_.interpreted) {
      strategy = JoinStrategy::kNestedLoop;
    } else {
      const TableStats* inner_stats =
          stats_mgr_.has_stats() ? &stats_mgr_.Get(accum->inner_cls) : nullptr;
      strategy = controller_.Choose(*accum, tick_, inner_stats, outer_rows);
    }
    if (options_.telemetry != nullptr && options_.telemetry->armed()) {
      options_.telemetry->RecordSiteDecision(accum->site_id, tick_,
                                             JoinStrategyName(strategy));
    }
    // Site prep runs before any worker starts, so worker 0's registers
    // are free for the grid's build-time filter.
    PrepareSite(*accum, strategy, *world_, &indexes_, tick_,
                &workers_[0]->scratch.vm,
                &site_cache_[static_cast<size_t>(accum->site_id)],
                &prepared_[static_cast<size_t>(accum->site_id)]);
  }
}

void TickExecutor::PrepareAllSites() {
  // Site ids are program-unique, so one pass over every unit prepares each
  // site exactly once, fed the unit's whole outer-row count — the same
  // count whatever the schedule.
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    for (int k = 0; k < script.num_phases(); ++k) {
      const size_t rows = script_selections_[si][static_cast<size_t>(k)].size();
      if (rows == 0) continue;
      PrepareSites(script.phases[static_cast<size_t>(k)], rows);
    }
  }
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    const size_t rows = handler_selections_[hi].size();
    if (rows == 0) continue;
    PrepareSites(program_->handlers[hi].ops, rows);
  }
}

void TickExecutor::RunUnit(
    int shard, const std::vector<std::unique_ptr<PlanOp>>& ops, ClassId cls,
    const std::vector<RowIdx>& selection, LocalColumns* locals) {
  auto configure = [&](int w) -> ExecEnv& {
    Worker& worker = *workers_[static_cast<size_t>(w)];
    ExecEnv& env = worker.env;
    env.tick = tick_;
    env.outer_cls = cls;
    env.outer = &world_->table(cls);
    env.txn_sink = txn_.shard(w);
    env.locals = locals;
    env.prepared = &prepared_;
    env.feedback = &worker.feedback;
    env.trace = trace_;
    env.recorder = capture_;
    return env;
  };

  // This shard's rows of the ascending selection: those inside block
  // `shard` of the class, [n·s/S, n·(s+1)/S) — all of them on one shard.
  auto first = selection.begin();
  auto last = selection.end();
  if (sharded()) {
    const size_t n = world_->table(cls).size();
    const size_t num_shards = static_cast<size_t>(options_.num_shards);
    const size_t s = static_cast<size_t>(shard);
    first = std::lower_bound(first, last,
                             static_cast<RowIdx>(n * s / num_shards));
    last = std::lower_bound(first, last,
                            static_cast<RowIdx>(n * (s + 1) / num_shards));
  }
  const size_t rows = static_cast<size_t>(last - first);
  if (rows == 0) return;

  // Static morsel -> worker assignment: morsel m runs on worker
  // shard + m % fan, each worker's morsels in increasing order —
  // deterministic regardless of scheduling. A single worker runs every
  // morsel in order, which bounds its per-unit pair scratch. Workers per
  // unit: all of them on one shard, the shard's own otherwise. The
  // object-at-a-time oracle runs the rows as one morsel.
  const int fan = sharded() ? 1 : static_cast<int>(workers_.size());
  const size_t morsel = options_.interpreted ? rows : options_.morsel_size;
  const size_t num_morsels = (rows + morsel - 1) / morsel;
  auto run = [&](int t, size_t stride) {
    const int w = shard + t;
    ExecEnv& env = configure(w);
    std::vector<RowIdx>& slice = workers_[static_cast<size_t>(w)]->slice;
    for (size_t m = static_cast<size_t>(t); m < num_morsels; m += stride) {
      const size_t begin = m * morsel;
      const size_t end = std::min(rows, begin + morsel);
      const std::vector<RowIdx>* chunk = &selection;
      if (end - begin != selection.size()) {
        slice.assign(first + static_cast<ptrdiff_t>(begin),
                     first + static_cast<ptrdiff_t>(end));
        chunk = &slice;
      }
      if (options_.interpreted) {
        RunOpsScalar(ops, *chunk, env);
      } else {
        RunOpsVectorized(ops, *chunk, env);
      }
    }
  };
  if (fan > 1 && num_morsels > 1) {
    pool_->ParallelFor(fan, [&](int t) { run(t, static_cast<size_t>(fan)); });
  } else {
    run(0, 1);
  }
}

void TickExecutor::RunShard(int shard) {
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    for (int k = 0; k < script.num_phases(); ++k) {
      const auto& selection = script_selections_[si][static_cast<size_t>(k)];
      if (selection.empty()) continue;
      RunUnit(shard, script.phases[static_cast<size_t>(k)], script.cls,
              selection, &script_locals_[si]);
    }
  }
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    const CompiledHandler& handler = program_->handlers[hi];
    const auto& selection = handler_selections_[hi];
    if (selection.empty()) continue;
    RunUnit(shard, handler.ops, handler.cls, selection, &handler_locals_[hi]);
  }
}

Status TickExecutor::RunTick() {
  SGL_CHECK(initialized_ && "call Init() first");
  const AllocCounts alloc_before = AllocCountersNow();
  Stopwatch total;
  Telemetry* const tel = options_.telemetry;
  SGL_TRACE_SPAN(tel, kSpanTickTotal, tick_, 0, 0);
  last_.Reset(tick_);
  const int num_classes = world_->catalog().num_classes();
  const int num_shards = static_cast<int>(shard_query_micros_.size());
  const int64_t index_micros_before = indexes_.build_micros();
  const int64_t simd_lanes_before = SimdLanesNow();

  // --- Setup -----------------------------------------------------------
  world_->ResetEffects();
  if (!options_.interpreted) stats_mgr_.MaybeRefresh(*world_, tick_);
  capture_ = options_.recorder != nullptr && options_.recorder->armed()
                 ? options_.recorder
                 : nullptr;
  txn_.set_fault_tick(tick_);
  txn_.set_recorder(capture_);
  txn_.BeginTick(static_cast<int>(workers_.size()));
  for (auto& worker : workers_) {
    for (size_t c = 0; c < worker->effects.size(); ++c) {
      worker->effects[c]->Reset(
          world_->table(static_cast<ClassId>(c)).size());
    }
    worker->feedback.assign(static_cast<size_t>(program_->num_sites),
                            SiteFeedback());
  }
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    AllocateLocalColumns(program_->scripts[si].local_types,
                         world_->table(program_->scripts[si].cls).size(),
                         &script_locals_[si]);
  }
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    AllocateLocalColumns(program_->handlers[hi].local_types,
                         world_->table(program_->handlers[hi].cls).size(),
                         &handler_locals_[hi]);
  }

  // --- 1. Select, 2. site-prep, 3. query (shards in parallel) ------------
  Stopwatch query_timer;
  {
    SGL_TRACE_SPAN(tel, kSpanTickSelect, tick_, 0, 0);
    ComputeSelections();
  }
  {
    SGL_TRACE_SPAN(tel, kSpanTickSitePrep, tick_, 0, 0);
    PrepareAllSites();
  }
  auto run_shard = [&](int s) {
    Stopwatch shard_timer;
    {
      SGL_TRACE_SPAN(tel, sharded() ? kSpanShardRun : kSpanTickQuery, tick_,
                     workers_[static_cast<size_t>(s)]->env.tel_track, 0);
      RunShard(s);
    }
    shard_query_micros_[static_cast<size_t>(s)] = shard_timer.ElapsedMicros();
  };
  if (pool_ != nullptr && num_shards > 1) {
    pool_->ParallelFor(num_shards, run_shard);
  } else {
    for (int s = 0; s < num_shards; ++s) run_shard(s);
  }
  last_.query_effect_micros = query_timer.ElapsedMicros();

  // --- 4. Merge: fold the worker sinks, canonicalize ---------------------
  Stopwatch merge_timer;
  {
    SGL_TRACE_SPAN(tel, sharded() ? kSpanTickBarrier : kSpanTickMerge,
                   tick_, 0, 0);
    if (options_.fault != nullptr) {
      // Every worker's query work is done and nothing has merged. A crash
      // here loses the issued effects and intents with the process; state
      // columns are still pre-tick, so recovery restores the last
      // checkpoint and replays. The sharded barrier's latency fault must be
      // state-neutral: the stall-parity test holds the checksum to the
      // no-fault run's.
      if (sharded()) {
        options_.fault->MaybeStall(kFaultShardBarrierStall, tick_);
      }
      SGL_RETURN_IF_ERROR(options_.fault->MaybeCrash(
          sharded() ? kFaultShardCrashPremerge
                              : kFaultExecCrashPostQuery,
          tick_));
    }
    for (auto& worker : workers_) {  // worker order = shard order
      for (size_t c = 0; c < worker->effects.size(); ++c) {
        world_->effects(static_cast<ClassId>(c))
            .MergeFrom(*worker->effects[c]);
      }
    }
    // Canonicalize set-effect logs (sort + dedup + pooled materialization)
    // now that the last worker has merged; update-phase reads require it.
    {
      SGL_TRACE_SPAN(tel, kSpanTickFinalize, tick_, 0, 0);
      for (ClassId c = 0; c < num_classes; ++c) {
        world_->effects(c).FinalizeSets();
      }
    }
    // Aggregate per-site feedback across workers and inform the controller.
    last_.sites.assign(static_cast<size_t>(program_->num_sites),
                       SiteFeedback());
    for (const auto& worker : workers_) {
      for (size_t i = 0; i < worker->feedback.size(); ++i) {
        const SiteFeedback& fb = worker->feedback[i];
        if (fb.site < 0) continue;
        SiteFeedback& agg = last_.sites[i];
        agg.site = fb.site;
        agg.strategy = fb.strategy;
        agg.outer_rows += fb.outer_rows;
        agg.candidates += fb.candidates;
        agg.matches += fb.matches;
        agg.micros += fb.micros;
        agg.probe_micros += fb.probe_micros;
        agg.effects += fb.effects;
        last_.probe_micros += fb.probe_micros;
      }
    }
    for (const SiteFeedback& fb : last_.sites) {
      if (fb.site >= 0) controller_.Feedback(fb);
    }
  }
  last_.merge_micros = merge_timer.ElapsedMicros();

  // --- 5. Install, 6. update --------------------------------------------
  Stopwatch update_timer;
  // Out-of-band completions ride the barrier: results whose declared
  // latency elapses this tick install now, in deterministic order, so the
  // components below read them no matter which tick a worker finished on.
  if (jobs_ != nullptr) {
    SGL_TRACE_SPAN(tel, kSpanTickInstall, tick_, 0, 0);
    jobs_->InstallDue(tick_);
  }
  {
    SGL_TRACE_SPAN(tel, kSpanTickUpdate, tick_, 0, 0);
    components_.RunAll(world_, tick_);
  }
  last_.update_micros = update_timer.ElapsedMicros();
  if (txn_.ConsumeInjectedCrash()) {
    // Mid-admission crash left a torn update phase (partial commits
    // written back, later issuers unprocessed). Surface it as the crash
    // it models — the tick counter does NOT advance past a torn tick.
    return Status::Internal(std::string(kFaultCrashPrefix) +
                            " at txn.admit.crash tick " +
                            std::to_string(tick_));
  }
  if (options_.fault != nullptr) {
    // Crash after the update phase but before the tick commits (counter
    // bump): the classic torn-tick window a checkpoint must mend.
    SGL_RETURN_IF_ERROR(options_.fault->MaybeCrash(
        sharded() ? kFaultShardCrashPostUpdate
                            : kFaultExecCrashPostUpdate,
        tick_));
  }

  // --- 7. Bookkeeping ----------------------------------------------------
  if (jobs_ != nullptr) {
    JobTickStats js;
    jobs_->SampleTick(&js);
    last_.jobs_submitted = js.submitted;
    last_.jobs_installed = js.installed;
    last_.jobs_in_flight = js.in_flight;
    last_.job_wait_micros = js.wait_micros;
  }
  last_.txn = txn_.last_tick();
  if (vm_cache_ != nullptr) {
    last_.vm_programs = vm_cache_->programs_compiled();
    last_.vm_compile_micros = vm_cache_->compile_micros();
  }
  last_.index_build_micros = indexes_.build_micros() - index_micros_before;
  last_.index_memory_bytes = static_cast<int64_t>(indexes_.MemoryBytes());
  last_.simd_lanes_used = SimdLanesNow() - simd_lanes_before;
  if (sharded()) {
    // Shard skew: slowest-minus-fastest query phase approximates the time
    // the barrier sat waiting on the straggler.
    int64_t q_max = 0, q_min = INT64_MAX, q_sum = 0;
    for (int64_t q : shard_query_micros_) {
      q_max = std::max(q_max, q);
      q_min = std::min(q_min, q);
      q_sum += q;
    }
    last_.barrier_stall_us = q_max - q_min;
    last_.imbalance_bp =
        q_sum > 0 ? (q_max * num_shards - q_sum) * 10000 / q_sum : 0;
  }
  last_.total_micros = total.ElapsedMicros();
  if (options_.recorder != nullptr) {
    // Before the alloc-count capture below, so the recorder's own frame
    // assembly is held to the same allocs_per_tick == 0 contract.
    options_.recorder->CaptureTick(last_, *world_);
  }
  const AllocCounts alloc_after = AllocCountersNow();
  last_.allocs_per_tick = alloc_after.count - alloc_before.count;
  last_.bytes_per_tick = alloc_after.bytes - alloc_before.bytes;
  if (tel != nullptr && tel->armed()) {
    if (sharded()) {
      for (int64_t q : shard_query_micros_) {
        tel->metrics().Record(tel->series().shard_query_us, q);
      }
    }
    tel->RecordTick(last_, /*has_jobs=*/jobs_ != nullptr);
  }
  ++tick_;
  return Status::OK();
}

void TickExecutor::ResetStatsAfterRestore() {
  last_.Reset(tick_);
  last_.jobs_in_flight =
      jobs_ != nullptr ? static_cast<int64_t>(jobs_->in_flight()) : 0;
  if (jobs_ != nullptr) jobs_->ResetStatsWindow();
}

}  // namespace sgl
