// E10 — debugging overhead (§3.3).
//
// Series: ms/tick for the 4k-unit RTS battle, under the default planner,
// with each debug facility enabled — none / effect tracer (one watched
// NPC) / per-tick checksum replay log / per-tick full checkpoint. Expected shape: tracer ≈ baseline
// (pay-as-you-go pointer check), checksum a small linear add-on, full
// checkpointing the most expensive (state-size-proportional copy) — which
// is why the replay log only snapshots periodically. The telemetry (PR 9)
// and flight-recorder (PR 10) series extend the ladder: disarmed attached
// sinks must sit within noise of detached, armed shows the full capture
// cost. Armed phases Reset() the metrics registry at the warmup boundary
// so reported percentiles cover the measured window only.

#include <chrono>
#include <filesystem>

#include "bench/bench_util.h"
#include "src/debug/checkpoint.h"
#include "src/debug/checkpoint_file.h"
#include "src/debug/tracer.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

namespace {

constexpr int kUnits = 4096;

void BM_DebugOff(benchmark::State& state) {
  auto engine = sgl_bench::BuildRts(kUnits, sgl::PlanMode::kCostBased);
  sgl_bench::Warmup(engine.get());
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
}

void BM_TracerOneEntity(benchmark::State& state) {
  auto engine = sgl_bench::BuildRts(kUnits, sgl::PlanMode::kCostBased);
  sgl::EffectTracer tracer;
  tracer.Watch(engine->world().table(0).id_at(0));
  engine->SetTracer(&tracer);
  sgl_bench::Warmup(engine.get());
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
  state.counters["records"] = static_cast<double>(tracer.size());
}

void BM_ReplayChecksum(benchmark::State& state) {
  auto engine = sgl_bench::BuildRts(kUnits, sgl::PlanMode::kCostBased);
  sgl::ReplayLog log;
  sgl_bench::Warmup(engine.get());
  sgl::Tick t = 0;
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
    log.Record(engine->world(), t++);
  }
}

void BM_CheckpointEveryTick(benchmark::State& state) {
  auto engine = sgl_bench::BuildRts(kUnits, sgl::PlanMode::kCostBased);
  sgl_bench::Warmup(engine.get());
  size_t bytes = 0;
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
    sgl::Checkpoint cp = engine->TakeCheckpoint();
    bytes = cp.state.size();
    benchmark::DoNotOptimize(cp);
  }
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
}

void BM_CheckpointRestoreRoundTrip(benchmark::State& state) {
  auto engine = sgl_bench::BuildRts(kUnits, sgl::PlanMode::kCostBased);
  sgl_bench::Warmup(engine.get());
  sgl::Checkpoint cp = engine->TakeCheckpoint();
  for (auto _ : state) {
    if (!engine->Restore(cp).ok()) state.SkipWithError("restore failed");
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
}

// Durable-checkpoint load: read + validate (header and payload FNV) +
// section copy of a 16k-unit battle checkpoint file written once in setup.
// The restore round trip above never touches a file; this is the container
// reader's cost.
void BM_CheckpointFileLoad(benchmark::State& state) {
  auto engine = sgl_bench::BuildRts(16384, sgl::PlanMode::kCostBased);
  sgl_bench::Warmup(engine.get());
  const std::string path =
      (std::filesystem::temp_directory_path() / "sgl_bench_ckpt_load.sgl")
          .string();
  if (!sgl::SaveCheckpointFile(engine->TakeCheckpoint(), path).ok()) {
    state.SkipWithError("save failed");
    return;
  }
  const auto file_bytes = std::filesystem::file_size(path);
  sgl::Checkpoint cp;
  for (auto _ : state) {
    if (!sgl::LoadCheckpointFile(path, &cp).ok()) {
      state.SkipWithError("load failed");
    }
    benchmark::DoNotOptimize(cp);
  }
  std::filesystem::remove(path);
  state.counters["file_bytes"] = static_cast<double>(file_bytes);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(file_bytes));
}

// --- Telemetry overhead (PR 9) -------------------------------------------
// Armed-vs-disarmed series at 16k units: a disarmed attached Telemetry must
// sit within noise of no telemetry at all (one branch per span site), and
// the armed delta is the full span+histogram record path. Counters report
// spans/tick and the tick-time percentiles the armed registry accumulated.

constexpr int kTelemetryUnits = 16384;

std::unique_ptr<sgl::Engine> BuildTelemetryRts(int units,
                                               sgl::Telemetry* tel) {
  sgl::RtsConfig config;
  config.num_units = units;
  sgl::EngineOptions options;
  options.exec.telemetry = tel;
  auto engine = sgl::RtsWorkload::Build(config, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  return std::move(engine).value();
}

void BM_TelemetryDetached(benchmark::State& state) {
  auto engine = BuildTelemetryRts(kTelemetryUnits, nullptr);
  sgl_bench::Warmup(engine.get());
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
}

void BM_TelemetryDisarmed(benchmark::State& state) {
  sgl::Telemetry tel;
  auto engine = BuildTelemetryRts(kTelemetryUnits, &tel);
  sgl_bench::Warmup(engine.get());
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
  }
  state.counters["spans_per_tick"] = 0;  // disarmed records nothing
}

void BM_TelemetryArmed(benchmark::State& state) {
  sgl::Telemetry tel;
  tel.set_armed(true);
  auto engine = BuildTelemetryRts(kTelemetryUnits, &tel);
  sgl_bench::Warmup(engine.get());
  // Phase boundary: drop the warmup's samples so the reported percentiles
  // describe the measured window only.
  tel.metrics().Reset();
  const int64_t spans_before = tel.total_spans();
  int64_t ticks = 0;
  for (auto _ : state) {
    if (!engine->Tick().ok()) state.SkipWithError("tick failed");
    ++ticks;
  }
  state.counters["spans_per_tick"] =
      ticks > 0 ? static_cast<double>(tel.total_spans() - spans_before) /
                      static_cast<double>(ticks)
                : 0;
  const sgl::MetricsSnapshot snap = tel.metrics().Snapshot();
  if (const sgl::HistogramSnapshot* h = snap.Find("tick.total_us")) {
    state.counters["tick_p50_us"] = h->Percentile(50);
    state.counters["tick_p95_us"] = h->Percentile(95);
    state.counters["tick_p99_us"] = h->Percentile(99);
  }
}

// Flight-recorder overhead. BM_FlightRecorderDisarmed: attached
// but never armed. BM_FlightRecorderArmed: armed and disarmed ticks
// interleave on one engine (set_armed flips between ticks), so both sides
// share the world and the machine state; an armed tick adds the capture
// path — one FrameRecord per effect write into a worker lane, the lane
// buffer swapped into the ring frame, one after-value per written
// (target, field). `armed_over_disarmed` is the ratio of the two sides'
// mean tick times; `frame_bytes` is the mean bytes a frame holds (records
// plus after-values), the memory side of the same trade.
void BM_FlightRecorderDisarmed(benchmark::State& state) {
  sgl::FlightRecorder rec;  // attached, never armed: one branch per tick
  sgl::RtsConfig config;
  config.num_units = kTelemetryUnits;
  sgl::EngineOptions options;
  options.exec.recorder = &rec;
  auto engine = sgl::RtsWorkload::Build(config, options);
  if (!engine.ok()) std::abort();
  sgl_bench::Warmup(engine->get());
  for (auto _ : state) {
    if (!(*engine)->Tick().ok()) state.SkipWithError("tick failed");
  }
}

void BM_FlightRecorderArmed(benchmark::State& state) {
  sgl::FlightRecorderOptions fo;
  fo.max_records_per_frame = size_t{1} << 20;  // 16k units: drop nothing
  sgl::FlightRecorder rec(fo);
  sgl::RtsConfig config;
  config.num_units = kTelemetryUnits;
  sgl::EngineOptions options;
  options.exec.recorder = &rec;
  auto engine = sgl::RtsWorkload::Build(config, options);
  if (!engine.ok()) std::abort();
  // Armed warmup past the ring depth: every frame slot and lane buffer has
  // grown once, so the timed ticks reuse pooled capacity.
  rec.set_armed(true);
  sgl_bench::WarmupSteadyState(engine->get());
  double ns[2] = {0, 0};  // [disarmed, armed]
  int64_t ticks[2] = {0, 0};
  int64_t records = 0;
  double frame_bytes = 0;
  int64_t i = 0;
  for (auto _ : state) {
    // ABBA order, so a period-2 rhythm in the simulation cancels out.
    const bool armed = ((i + i / 2) & 1) != 0;
    ++i;
    rec.set_armed(armed);
    const auto t0 = std::chrono::steady_clock::now();
    if (!(*engine)->Tick().ok()) state.SkipWithError("tick failed");
    ns[armed] += std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    ++ticks[armed];
    if (armed) {
      const sgl::TickFrame* f = rec.frame(rec.newest_tick());
      records += f->num_records;
      frame_bytes += static_cast<double>(
          f->num_records * sizeof(sgl::FrameRecord) +
          f->afters.size() * sizeof(sgl::AfterValue));
    }
  }
  if (ticks[0] == 0 || ticks[1] == 0) return;
  const double armed_mean = ns[1] / static_cast<double>(ticks[1]);
  const double disarmed_mean = ns[0] / static_cast<double>(ticks[0]);
  state.counters["armed_over_disarmed"] = armed_mean / disarmed_mean;
  state.counters["armed_tick_us"] = armed_mean * 1e-3;
  state.counters["disarmed_tick_us"] = disarmed_mean * 1e-3;
  state.counters["records_per_frame"] =
      static_cast<double>(records) / static_cast<double>(ticks[1]);
  state.counters["bytes_per_record"] = sizeof(sgl::FrameRecord);
  state.counters["frame_bytes"] = frame_bytes / static_cast<double>(ticks[1]);
  state.counters["dropped_records"] =
      static_cast<double>(rec.dropped_records());
}

// Isolated span-record cost: an armed ScopedSpan begin/end pair with
// nothing else on the loop body. real_time/iteration is ns per span.
void BM_SpanRecordArmed(benchmark::State& state) {
  sgl::Telemetry tel;
  tel.set_armed(true);
  uint16_t arg = 0;
  for (auto _ : state) {
    SGL_TRACE_SPAN(&tel, sgl::kSpanTickQuery, 1, 0, arg++);
  }
  // kIsRate divides by elapsed seconds, kInvert flips to seconds per
  // iteration; pre-dividing by 1e9 makes the reported value nanoseconds.
  state.counters["ns_per_span"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_DebugOff)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_TracerOneEntity)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_ReplayChecksum)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_CheckpointEveryTick)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1);
BENCHMARK(BM_CheckpointRestoreRoundTrip)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1);
BENCHMARK(BM_CheckpointFileLoad)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);
BENCHMARK(BM_TelemetryDetached)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_TelemetryDisarmed)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_TelemetryArmed)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_FlightRecorderDisarmed)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1);
BENCHMARK(BM_FlightRecorderArmed)  // enough alternations for a ratio
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);
BENCHMARK(BM_SpanRecordArmed)->MinTime(0.1);

}  // namespace

BENCHMARK_MAIN();
