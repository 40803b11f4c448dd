#include "src/exec/tick_executor.h"

#include <algorithm>
#include <numeric>

#include "src/common/alloc_hook.h"
#include "src/common/stopwatch.h"
#include "src/fault/fault_injector.h"
#include "src/shard/shard_router.h"
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
  /// The effect sink: a router with more than one partition, per-class
  /// buffers with one partition and several threads, and neither (the
  /// world's own buffers) with one partition and one thread.
  std::unique_ptr<ShardRouter> router;
  std::vector<std::unique_ptr<EffectBuffer>> effects;  ///< by class
};

struct TickExecutor::Partition {
  /// Also the index of the partition's first worker, which evaluates its
  /// selections; workers [id, id + workers per partition) run its morsels.
  int id = 0;
  /// Per script, per phase: selected rows of this partition's ranges.
  std::vector<std::vector<std::vector<RowIdx>>> script_selections;
  /// Per handler: cached range iota and this tick's selection.
  std::vector<std::vector<RowIdx>> handler_rows;
  std::vector<std::vector<RowIdx>> handler_selections;
  std::vector<uint8_t> handler_keep;
  /// Wall time of this partition's query phase last tick; the barrier
  /// derives the stall (max−min) and imbalance gauges from these.
  int64_t query_micros = 0;
};

namespace {

/// Makes `rows` the iota [begin, end). A pure function of the range, so it
/// is rebuilt only when spawns or despawns moved the range.
void FillRange(RowIdx begin, RowIdx end, std::vector<RowIdx>* rows) {
  if (rows->size() == static_cast<size_t>(end - begin) &&
      (rows->empty() || (*rows)[0] == begin)) {
    return;
  }
  rows->resize(end - begin);
  std::iota(rows->begin(), rows->end(), begin);
}

}  // namespace

TickExecutor::TickExecutor(World* world, ShardedWorld* sharded,
                           const CompiledProgram* program,
                           ExecOptions options)
    : world_(world),
      sharded_(sharded),
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

  // The layout: one worker per partition, or one per thread when the whole
  // world is one partition.
  const int num_partitions = sharded_ != nullptr ? sharded_->num_shards() : 1;
  SGL_CHECK(num_partitions == std::max(1, options_.num_shards));
  const int num_workers = num_partitions > 1
                              ? num_partitions
                              : std::max(1, options_.num_threads);
  const Catalog& catalog = world_->catalog();
  for (int w = 0; w < num_workers; ++w) {
    auto worker = std::make_unique<Worker>();
    ExecEnv& env = worker->env;
    env.world = world_;
    if (sharded_ != nullptr) {
      worker->router = std::make_unique<ShardRouter>(sharded_, w);
      env.router = worker->router.get();
      // Chrome pid w+1: pid 0 stays the barrier thread's "world" track.
      env.tel_track = static_cast<uint8_t>(w + 1);
    } else {
      for (ClassId c = 0; c < catalog.num_classes(); ++c) {
        if (num_workers > 1) {
          worker->effects.push_back(
              std::make_unique<EffectBuffer>(&catalog.Get(c)));
          env.effect_sinks.push_back(worker->effects.back().get());
        } else {
          env.effect_sinks.push_back(&world_->effects(c));
        }
      }
    }
    env.scratch = &worker->scratch;
    env.vm = vm_cache_.get();
    env.telemetry = options_.telemetry;
    workers_.push_back(std::move(worker));
  }
  for (int p = 0; p < num_partitions; ++p) {
    auto part = std::make_unique<Partition>();
    part->id = p;
    for (const CompiledScript& script : program_->scripts) {
      part->script_selections.emplace_back(
          static_cast<size_t>(script.num_phases()));
    }
    part->handler_rows.resize(program_->handlers.size());
    part->handler_selections.resize(program_->handlers.size());
    partitions_.push_back(std::move(part));
  }
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

void TickExecutor::ComputeSelections(Partition& part) {
  Worker& worker = *workers_[static_cast<size_t>(part.id)];
  auto range_begin = [&](ClassId cls) -> RowIdx {
    return sharded_ != nullptr ? sharded_->shard_begin(cls, part.id) : 0;
  };
  auto range_end = [&](ClassId cls) -> RowIdx {
    return sharded_ != nullptr
               ? sharded_->shard_end(cls, part.id)
               : static_cast<RowIdx>(world_->table(cls).size());
  };

  // Scripts: the partition's slice of every class extent, dispatched on
  // the PC column for multi-phase scripts (§3.2).
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    auto& selections = part.script_selections[si];
    const RowIdx begin = range_begin(script.cls);
    const RowIdx end = range_end(script.cls);
    if (script.num_phases() == 1) {
      FillRange(begin, end, &selections[0]);
    } else {
      for (auto& sel : selections) sel.clear();
      ConstNumberColumn pc = world_->table(script.cls).Num(script.pc_state);
      for (RowIdx r = begin; r < end; ++r) {
        int phase = static_cast<int>(pc[r]);
        if (phase < 0 || phase >= script.num_phases()) phase = 0;
        selections[static_cast<size_t>(phase)].push_back(r);
      }
    }
  }

  // Handlers (§3.2): conditions over the partition's range. They only read
  // prior state and zeroed locals, both unchanged throughout the query
  // phase, so evaluating them before any script runs is equivalent to
  // evaluating them after.
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    const CompiledHandler& handler = program_->handlers[hi];
    auto& rows = part.handler_rows[hi];
    FillRange(range_begin(handler.cls), range_end(handler.cls), &rows);
    auto& selection = part.handler_selections[hi];
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
                 &worker.scratch.vm, nullptr, 0, &part.handler_keep);
      for (size_t i = 0; i < rows.size(); ++i) {
        if (part.handler_keep[i]) selection.push_back(rows[i]);
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
    PrepareSite(*accum, strategy, *world_, &indexes_, tick_,
                &site_cache_[static_cast<size_t>(accum->site_id)],
                &prepared_[static_cast<size_t>(accum->site_id)]);
  }
}

void TickExecutor::PrepareAllSites() {
  // Site ids are program-unique, so one pass over every unit prepares each
  // site exactly once, fed the unit's outer-row count summed over
  // partitions — the same count whatever the layout.
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    for (int k = 0; k < script.num_phases(); ++k) {
      size_t total = 0;
      for (const auto& part : partitions_) {
        total += part->script_selections[si][static_cast<size_t>(k)].size();
      }
      if (total == 0) continue;
      PrepareSites(script.phases[static_cast<size_t>(k)], total);
    }
  }
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    size_t total = 0;
    for (const auto& part : partitions_) {
      total += part->handler_selections[hi].size();
    }
    if (total == 0) continue;
    PrepareSites(program_->handlers[hi].ops, total);
  }
}

void TickExecutor::RunUnit(
    const Partition& part, const std::vector<std::unique_ptr<PlanOp>>& ops,
    ClassId cls, const std::vector<RowIdx>& selection, LocalColumns* locals) {
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
    env.recorder_sink = recorder_sink_;
    return env;
  };

  if (options_.interpreted) {
    RunOpsScalar(ops, selection, configure(part.id));
    return;
  }
  // Static morsel -> worker assignment: morsel m runs on the partition's
  // worker m % stride, each worker's morsels in increasing order —
  // deterministic regardless of scheduling. A single worker runs every
  // morsel in order, which bounds its per-unit pair scratch. Workers per
  // partition: all of them on one partition, one per shard otherwise.
  const int fan = static_cast<int>(workers_.size() / partitions_.size());
  const size_t morsel = options_.morsel_size;
  const size_t num_morsels = (selection.size() + morsel - 1) / morsel;
  auto run = [&](int t, size_t stride) {
    const int w = part.id + t;
    ExecEnv& env = configure(w);
    if (num_morsels == 1) {
      RunOpsVectorized(ops, selection, env);
      return;
    }
    std::vector<RowIdx>& slice = workers_[static_cast<size_t>(w)]->slice;
    for (size_t m = static_cast<size_t>(t); m < num_morsels; m += stride) {
      const size_t begin = m * morsel;
      const size_t end = std::min(selection.size(), begin + morsel);
      slice.assign(selection.begin() + static_cast<ptrdiff_t>(begin),
                   selection.begin() + static_cast<ptrdiff_t>(end));
      RunOpsVectorized(ops, slice, env);
    }
  };
  if (fan > 1 && num_morsels > 1) {
    pool_->ParallelFor(fan, [&](int t) { run(t, static_cast<size_t>(fan)); });
  } else {
    run(0, 1);
  }
}

void TickExecutor::RunPartition(Partition& part) {
  for (size_t si = 0; si < program_->scripts.size(); ++si) {
    const CompiledScript& script = program_->scripts[si];
    for (int k = 0; k < script.num_phases(); ++k) {
      const auto& selection =
          part.script_selections[si][static_cast<size_t>(k)];
      if (selection.empty()) continue;
      RunUnit(part, script.phases[static_cast<size_t>(k)], script.cls,
              selection, &script_locals_[si]);
    }
  }
  for (size_t hi = 0; hi < program_->handlers.size(); ++hi) {
    const CompiledHandler& handler = program_->handlers[hi];
    const auto& selection = part.handler_selections[hi];
    if (selection.empty()) continue;
    RunUnit(part, handler.ops, handler.cls, selection, &handler_locals_[hi]);
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
  const int num_partitions = static_cast<int>(partitions_.size());
  const int64_t index_micros_before = indexes_.build_micros();
  const int64_t simd_lanes_before = SimdLanesNow();

  // --- Setup -----------------------------------------------------------
  if (sharded_ != nullptr) sharded_->EnsurePartition();
  world_->ResetEffects();
  if (!options_.interpreted) stats_mgr_.MaybeRefresh(*world_, tick_);
  recorder_sink_ = options_.recorder != nullptr
                       ? options_.recorder->capture_sink()
                       : nullptr;
  txn_.set_fault_tick(tick_);
  txn_.set_prov_sink(recorder_sink_);
  txn_.BeginTick(static_cast<int>(workers_.size()));
  for (auto& worker : workers_) {
    if (worker->router != nullptr) worker->router->BeginTick();
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

  // --- 1. Select, 2. site-prep, 3. query (partitions in parallel) --------
  Stopwatch query_timer;
  auto for_each_partition = [&](auto&& fn) {
    if (pool_ != nullptr && num_partitions > 1) {
      pool_->ParallelFor(num_partitions, [&](int p) {
        fn(*partitions_[static_cast<size_t>(p)]);
      });
    } else {
      for (auto& part : partitions_) fn(*part);
    }
  };
  auto track = [&](const Partition& part) {
    return workers_[static_cast<size_t>(part.id)]->env.tel_track;
  };
  for_each_partition([&](Partition& part) {
    SGL_TRACE_SPAN(tel, kSpanTickSelect, tick_, track(part), 0);
    ComputeSelections(part);
  });
  {
    SGL_TRACE_SPAN(tel, kSpanTickSitePrep, tick_, 0, 0);
    PrepareAllSites();
  }
  for_each_partition([&](Partition& part) {
    Stopwatch part_timer;
    {
      SGL_TRACE_SPAN(tel, sharded_ != nullptr ? kSpanShardRun : kSpanTickQuery,
                     tick_, track(part), 0);
      RunPartition(part);
    }
    part.query_micros = part_timer.ElapsedMicros();
  });
  last_.query_effect_micros = query_timer.ElapsedMicros();

  // --- 4. Merge: fold the worker sinks, canonicalize ---------------------
  Stopwatch merge_timer;
  {
    SGL_TRACE_SPAN(tel, sharded_ != nullptr ? kSpanTickBarrier : kSpanTickMerge,
                   tick_, 0, 0);
    if (sharded_ != nullptr) {
      if (options_.fault != nullptr) {
        // Latency fault at the barrier entrance: every shard's query work
        // is done, nothing has merged. Must be state-neutral — the
        // stall-parity test holds the checksum to the no-fault run's.
        options_.fault->MaybeStall(kFaultShardBarrierStall, tick_);
      }
      {
        SGL_TRACE_SPAN(tel, kSpanMailboxFlip, tick_, 0, 0);
        for (auto& worker : workers_) {
          for (int d = 0; d < num_partitions; ++d) {
            worker->router->lane(d).Flip();
          }
        }
      }
      if (options_.fault != nullptr) {
        // Crash after the mailbox flip but before any shard merges: routed
        // records are stranded in flipped lanes and die with the process.
        SGL_RETURN_IF_ERROR(
            options_.fault->MaybeCrash(kFaultShardCrashPremerge, tick_));
      }
      SGL_TRACE_SPAN(tel, kSpanMailboxReplay, tick_, 0, 0);
      for (auto& worker : workers_) {  // source-major: the serial ⊕ order
        worker->router->MergeInto(world_);
        last_.cross_shard_records +=
            static_cast<int64_t>(worker->router->OutboundRecords());
      }
    } else {
      if (options_.fault != nullptr) {
        // Crash between query and merge: issued effects/intents die with
        // the process, state columns are still pre-tick. Recovery restores
        // the last checkpoint and replays.
        SGL_RETURN_IF_ERROR(
            options_.fault->MaybeCrash(kFaultExecCrashPostQuery, tick_));
      }
      for (auto& worker : workers_) {  // worker order: the serial ⊕ order
        for (size_t c = 0; c < worker->effects.size(); ++c) {
          world_->effects(static_cast<ClassId>(c))
              .MergeFrom(*worker->effects[c]);
        }
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
        sharded_ != nullptr ? kFaultShardCrashPostUpdate
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
  if (sharded_ != nullptr) {
    // Partition skew: slowest-minus-fastest query phase approximates the
    // time the barrier sat waiting on the straggler.
    int64_t q_max = 0, q_min = INT64_MAX, q_sum = 0;
    for (const auto& part : partitions_) {
      q_max = std::max(q_max, part->query_micros);
      q_min = std::min(q_min, part->query_micros);
      q_sum += part->query_micros;
    }
    last_.barrier_stall_us = q_max - q_min;
    last_.imbalance_bp =
        q_sum > 0 ? (q_max * num_partitions - q_sum) * 10000 / q_sum : 0;
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
    if (sharded_ != nullptr) {
      for (const auto& part : partitions_) {
        tel->metrics().Record(tel->series().shard_query_us,
                              part->query_micros);
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
