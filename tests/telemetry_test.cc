// Telemetry subsystem tests (src/telemetry/): histogram math against a
// sorted reference, span nesting/ordering invariants, Chrome-trace JSON
// round-trip over a sharded + threaded + async run, checksum parity armed
// vs disarmed, the armed steady-state allocs_per_tick == 0 contract, and
// per-site attribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/common/alloc_hook.h"
#include "src/common/rng.h"
#include "src/debug/checkpoint.h"
#include "src/debug/inspector.h"
#include "src/debug/tracer.h"
#include "src/sim/armies.h"
#include "src/sim/rts.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/worker_lanes.h"

namespace sgl {
namespace {

// --- Histogram math ------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(HistogramBucketIndex(-5), 0);
  EXPECT_EQ(HistogramBucketIndex(0), 0);
  EXPECT_EQ(HistogramBucketIndex(1), 1);
  EXPECT_EQ(HistogramBucketIndex(2), 2);
  EXPECT_EQ(HistogramBucketIndex(3), 2);
  EXPECT_EQ(HistogramBucketIndex(4), 3);
  EXPECT_EQ(HistogramBucketIndex(1023), 10);
  EXPECT_EQ(HistogramBucketIndex(1024), 11);
  EXPECT_EQ(HistogramBucketIndex(std::numeric_limits<int64_t>::max()),
            kHistogramBuckets - 1);
  // Every bucket's [lo, hi] range maps back to itself.
  for (int b = 1; b < kHistogramBuckets - 1; ++b) {
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketLo(b)), b) << b;
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketHi(b)), b) << b;
  }
}

TEST(Histogram, PercentilesMatchSortedReferenceWithinBucketBounds) {
  MetricsRegistry reg;
  const MetricId h = reg.RegisterHistogram("test.series");
  std::vector<int64_t> values;
  Rng rng(123);
  for (int i = 0; i < 5000; ++i) {
    // Skewed latencies spanning many buckets.
    const int64_t v = static_cast<int64_t>(rng.Next() % 100000);
    values.push_back(v);
    reg.Record(h, v);
  }
  std::sort(values.begin(), values.end());
  const MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* hs = snap.Find("test.series");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 5000);
  EXPECT_EQ(hs->min, values.front());
  EXPECT_EQ(hs->max, values.back());
  for (double p : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    // Nearest-rank reference.
    size_t rank = static_cast<size_t>(p / 100.0 * 5000.0);
    rank = std::min(std::max<size_t>(rank, 1), values.size());
    const int64_t ref = values[rank - 1];
    int64_t lo = 0, hi = 0;
    ASSERT_TRUE(hs->PercentileBounds(p, &lo, &hi)) << p;
    EXPECT_GE(ref, lo) << "p" << p;
    EXPECT_LE(ref, hi) << "p" << p;
    // The interpolated estimate lands inside the same bucket bounds.
    const double est = hs->Percentile(p);
    EXPECT_GE(est, static_cast<double>(lo)) << "p" << p;
    EXPECT_LE(est, static_cast<double>(hi)) << "p" << p;
  }
}

TEST(Histogram, SingleValueAndEmpty) {
  MetricsRegistry reg;
  const MetricId h = reg.RegisterHistogram("one");
  MetricsSnapshot empty = reg.Snapshot();
  ASSERT_NE(empty.Find("one"), nullptr);
  EXPECT_EQ(empty.Find("one")->Percentile(50), 0.0);
  reg.Record(h, 777);
  const MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* hs = snap.Find("one");
  EXPECT_EQ(hs->count, 1);
  // Clamped to [min, max] = [777, 777] at every percentile.
  EXPECT_EQ(hs->Percentile(1), 777.0);
  EXPECT_EQ(hs->Percentile(50), 777.0);
  EXPECT_EQ(hs->Percentile(99), 777.0);
}

TEST(Metrics, CountersAndGauges) {
  MetricsRegistry reg;
  const MetricId c = reg.RegisterCounter("events");
  const MetricId g = reg.RegisterGauge("depth");
  reg.Count(c, 3);
  reg.Count(c, 4);
  reg.Set(g, 9);
  reg.Set(g, 2);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Counter("events"), 7);
  EXPECT_EQ(snap.Gauge("depth"), 2);
  EXPECT_EQ(snap.Counter("absent", -1), -1);
  EXPECT_NE(snap.Describe().find("events"), std::string::npos);
}

// --- Workload helpers ----------------------------------------------------

EngineOptions RtsOpts(Telemetry* tel, int threads = 1, int shards = 1) {
  EngineOptions options;
  options.exec.planner.mode = PlanMode::kStaticGrid;
  options.exec.num_threads = threads;
  options.exec.num_shards = shards;
  options.exec.telemetry = tel;
  return options;
}

std::unique_ptr<Engine> BuildRts(int units, const EngineOptions& options) {
  RtsConfig config;
  config.num_units = units;
  config.clustered = true;  // dense joins from tick 0 (see alloc test)
  auto engine = RtsWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

ArmiesConfig SmallArmies() {
  ArmiesConfig config;
  config.num_units = 256;
  config.map_w = 32;
  config.map_h = 32;
  config.num_armies = 4;
  config.num_rally = 4;
  config.async_pathfind = true;
  config.async.latency_ticks = 2;
  config.async.refresh_after_ticks = 4;  // keep jobs in flight
  return config;
}

// --- Span invariants -----------------------------------------------------

TEST(Spans, NestingAndOrderingInvariants) {
  Telemetry tel;
  tel.set_armed(true);
  auto engine = BuildRts(256, RtsOpts(&tel));
  for (int t = 0; t < 6; ++t) ASSERT_TRUE(engine->Tick().ok());

  const std::vector<SpanView> spans = tel.CollectSpans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(tel.dropped_threads(), 0);
  for (const SpanView& s : spans) {
    EXPECT_LE(s.begin_ns, s.end_ns);
    EXPECT_NE(std::string(s.name), "?") << "undeclared site " << s.site;
  }
  // Per lane, completion order is ring order: end_ns must be
  // non-decreasing (spans are written at scope exit).
  for (size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].lane != spans[i - 1].lane) continue;
    EXPECT_LE(spans[i - 1].end_ns, spans[i].end_ns);
  }
  // Every depth>0 span is strictly contained in some shallower span of the
  // same lane (its enclosing scope). O(n^2) is fine at test size.
  for (const SpanView& s : spans) {
    if (s.depth == 0) continue;
    bool contained = false;
    for (const SpanView& outer : spans) {
      if (outer.lane != s.lane || outer.depth >= s.depth) continue;
      if (outer.begin_ns <= s.begin_ns && s.end_ns <= outer.end_ns) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << s.name << " depth " << int{s.depth};
  }
  // tick.total spans exist for every tick and enclose that tick's phases.
  int totals = 0;
  for (const SpanView& s : spans) {
    if (std::string(s.name) == "tick.total") ++totals;
  }
  EXPECT_EQ(totals, 6);
}

TEST(Spans, RingWrapKeepsNewestAndCounts) {
  TelemetryOptions to;
  to.ring_spans = 8;  // tiny ring: guaranteed wrap
  Telemetry tel(to);
  tel.set_armed(true);
  for (int i = 0; i < 100; ++i) {
    ScopedSpan span(&tel, kSpanTickTotal, static_cast<Tick>(i));
  }
  EXPECT_EQ(tel.total_spans(), 100);
  EXPECT_GT(tel.dropped_spans(), 0);
  const std::vector<SpanView> spans = tel.CollectSpans();
  // Wrapped lane: the possibly-torn oldest slot is discarded.
  EXPECT_EQ(spans.size(), 7u);
  EXPECT_EQ(spans.back().tick, 99);  // newest spans win
}

TEST(Spans, DisarmedRecordsNothing) {
  Telemetry tel;  // never armed
  { ScopedSpan span(&tel, kSpanTickTotal, 1); }
  EXPECT_EQ(tel.total_spans(), 0);
  // Null telemetry is the one-branch path.
  { ScopedSpan span(nullptr, kSpanTickTotal, 1); }
}

// --- Chrome trace JSON round-trip ----------------------------------------

// Minimal JSON parser: validates syntax and collects every string value
// keyed "name" plus every number keyed "pid"/"tid". Enough to round-trip
// the trace without a JSON dependency.
struct MiniJson {
  const std::string& s;
  size_t i = 0;
  bool ok = true;
  std::set<std::string> names;
  std::set<int64_t> pids;
  std::set<int64_t> tids;

  explicit MiniJson(const std::string& str) : s(str) {}
  void Skip() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
  }
  bool Eat(char c) {
    Skip();
    if (i < s.size() && s[i] == c) { ++i; return true; }
    return false;
  }
  std::string String() {
    Skip();
    std::string out;
    if (i >= s.size() || s[i] != '"') { ok = false; return out; }
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\' && i + 1 < s.size()) { out += s[i + 1]; i += 2; }
      else { out += s[i]; ++i; }
    }
    if (i >= s.size()) { ok = false; return out; }
    ++i;
    return out;
  }
  void Value(const std::string& key) {
    Skip();
    if (i >= s.size()) { ok = false; return; }
    const char c = s[i];
    if (c == '{') {
      ++i;
      Skip();
      if (Eat('}')) return;
      do {
        const std::string k = String();
        if (!ok || !Eat(':')) { ok = false; return; }
        Value(k);
        if (!ok) return;
      } while (Eat(','));
      if (!Eat('}')) ok = false;
    } else if (c == '[') {
      ++i;
      Skip();
      if (Eat(']')) return;
      do {
        Value("");
        if (!ok) return;
      } while (Eat(','));
      if (!Eat(']')) ok = false;
    } else if (c == '"') {
      const std::string v = String();
      if (key == "name") names.insert(v);
    } else {
      size_t start = i;
      while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                              s[i] == '-' || s[i] == '+' || s[i] == '.' ||
                              s[i] == 'e' || s[i] == 'E')) {
        ++i;
      }
      if (i == start) { ok = false; return; }
      const double v = std::stod(s.substr(start, i - start));
      if (key == "pid") pids.insert(static_cast<int64_t>(v));
      if (key == "tid") tids.insert(static_cast<int64_t>(v));
    }
  }
};

TEST(ChromeTrace, ShardedAsyncRunCoversEveryPhase) {
  Telemetry tel;
  tel.set_armed(true);
  EngineOptions options;
  options.exec.num_shards = 4;
  options.exec.num_threads = 4;
  options.exec.jobs.num_workers = 2;
  options.exec.telemetry = &tel;
  auto engine = ArmiesWorkload::Build(SmallArmies(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->RunTicks(12).ok());

  const std::string json = tel.DumpChromeTrace();
  MiniJson parser(json);
  parser.Value("");
  parser.Skip();
  ASSERT_TRUE(parser.ok) << "invalid JSON near offset " << parser.i;
  EXPECT_EQ(parser.i, json.size()) << "trailing garbage";

  // Every sharded-pipeline phase shows up by name.
  for (const char* phase :
       {"tick.total", "tick.select", "tick.siteprep", "shard.run",
        "tick.barrier", "shard.mailbox.flip", "shard.mailbox.replay",
        "tick.finalize_sets", "tick.install", "tick.update",
        "async.worker.run"}) {
    EXPECT_TRUE(parser.names.count(phase)) << "missing phase " << phase;
  }
  // Process metadata names both track kinds.
  EXPECT_TRUE(parser.names.count("world"));
  EXPECT_TRUE(parser.names.count("shard 0"));
  EXPECT_TRUE(parser.names.count("shard 3"));
  // One pid per track: world + 4 shards.
  EXPECT_EQ(parser.pids, std::set<int64_t>({0, 1, 2, 3, 4}));
  // Multiple recording threads (barrier + pool workers + job workers).
  EXPECT_GT(parser.tids.size(), 1u);
}

TEST(ChromeTrace, SiteAndVmSpansOnRtsGrid) {
  Telemetry tel;
  tel.set_armed(true);
  auto engine = BuildRts(512, RtsOpts(&tel));
  for (int t = 0; t < 4; ++t) ASSERT_TRUE(engine->Tick().ok());
  const std::string json = tel.DumpChromeTrace();
  MiniJson parser(json);
  parser.Value("");
  ASSERT_TRUE(parser.ok);
  for (const char* phase :
       {"tick.total", "tick.select", "tick.siteprep", "tick.query",
        "tick.merge", "tick.finalize_sets", "tick.update",
        "exec.site.query", "exec.site.probe", "vm.compile"}) {
    EXPECT_TRUE(parser.names.count(phase)) << "missing phase " << phase;
  }
}

// --- Percentile series ---------------------------------------------------

TEST(Snapshot, ReportsTickProbeJobWaitAndBarrierPercentiles) {
  Telemetry tel;
  tel.set_armed(true);
  EngineOptions options;
  options.exec.num_shards = 4;
  options.exec.jobs.num_workers = 2;
  options.exec.telemetry = &tel;
  auto engine = ArmiesWorkload::Build(SmallArmies(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (int t = 0; t < 16; ++t) ASSERT_TRUE((*engine)->Tick().ok());

  const MetricsSnapshot snap = tel.metrics().Snapshot();
  for (const char* series :
       {"tick.total_us", "tick.query_us", "tick.merge_us", "tick.update_us",
        "job.wait_us", "barrier.stall_us", "shard.query_us"}) {
    const HistogramSnapshot* hs = snap.Find(series);
    ASSERT_NE(hs, nullptr) << series;
    EXPECT_GT(hs->count, 0) << series;
    const double p50 = hs->Percentile(50);
    const double p95 = hs->Percentile(95);
    const double p99 = hs->Percentile(99);
    EXPECT_LE(p50, p95) << series;
    EXPECT_LE(p95, p99) << series;
    EXPECT_LE(p99, static_cast<double>(hs->max)) << series;
  }
  EXPECT_EQ(snap.Find("tick.total_us")->count, 16);
  // shard.query_us records one sample per shard per tick.
  EXPECT_EQ(snap.Find("shard.query_us")->count, 16 * 4);
  EXPECT_GT(snap.Counter("jobs.submitted"), 0);
  EXPECT_GT(snap.Counter("jobs.installed"), 0);

  // Probe series comes from the RTS grid (range-indexed accum sites; the
  // armies workload has no accum loops).
  Telemetry rts_tel;
  rts_tel.set_armed(true);
  auto rts = BuildRts(512, RtsOpts(&rts_tel));
  for (int t = 0; t < 8; ++t) ASSERT_TRUE(rts->Tick().ok());
  const MetricsSnapshot rsnap = rts_tel.metrics().Snapshot();
  const HistogramSnapshot* probe = rsnap.Find("probe.us");
  ASSERT_NE(probe, nullptr);
  EXPECT_GT(probe->count, 0);
  EXPECT_LE(probe->Percentile(50), probe->Percentile(99));
}

// --- Per-site attribution -------------------------------------------------

TEST(SiteAttribution, SeriesPopulatedWithDecisions) {
  Telemetry tel;
  tel.set_armed(true);
  auto engine = BuildRts(512, RtsOpts(&tel));
  for (int t = 0; t < 8; ++t) ASSERT_TRUE(engine->Tick().ok());

  const std::vector<SiteSeries>& sites = tel.sites();
  ASSERT_FALSE(sites.empty());
  bool saw_active = false;
  for (const SiteSeries& s : sites) {
    if (s.ticks == 0) continue;
    saw_active = true;
    EXPECT_GE(s.site, 0);
    EXPECT_GT(s.outer_rows, 0);
    ASSERT_NE(s.strategy, nullptr);
    EXPECT_GE(s.decisions, 1);
    ASSERT_FALSE(s.history.empty());
    EXPECT_NE(s.history[0].strategy, nullptr);
    // kStaticGrid never switches: one recorded decision per site.
    EXPECT_EQ(s.decisions, 1);
  }
  EXPECT_TRUE(saw_active);
  // The battle-mode combat site applies damage effects every tick.
  int64_t total_effects = 0;
  for (const SiteSeries& s : sites) total_effects += s.effects;
  EXPECT_GT(total_effects, 0);
  EXPECT_FALSE(tel.DescribeSites().empty());
  EXPECT_FALSE(DescribeTickStats(engine->last_stats()).empty());
}

// --- Checksum parity ------------------------------------------------------

uint64_t RunRtsChecksum(Telemetry* tel, int threads, int shards,
                        bool interpreted = false) {
  EngineOptions options = RtsOpts(tel, threads, shards);
  options.exec.interpreted = interpreted;
  auto engine = BuildRts(384, options);
  for (int t = 0; t < 12; ++t) EXPECT_TRUE(engine->Tick().ok());
  return WorldChecksum(engine->world());
}

TEST(Parity, ChecksumBitIdenticalArmedVsDisarmed) {
  const uint64_t disarmed = RunRtsChecksum(nullptr, 1, 1);
  Telemetry tel;
  tel.set_armed(true);
  EXPECT_EQ(RunRtsChecksum(&tel, 1, 1), disarmed) << "serial armed";
  Telemetry tel_mt;
  tel_mt.set_armed(true);
  EXPECT_EQ(RunRtsChecksum(&tel_mt, 4, 1), disarmed) << "4-thread armed";
  Telemetry tel_sh;
  tel_sh.set_armed(true);
  EXPECT_EQ(RunRtsChecksum(&tel_sh, 1, 4), disarmed) << "4-shard armed";
  // Attached-but-unarmed is also bit-identical.
  Telemetry off;
  EXPECT_EQ(RunRtsChecksum(&off, 1, 1), disarmed) << "attached unarmed";
  // The armed scalar oracle reaches the fast path's state.
  Telemetry tel_oracle;
  tel_oracle.set_armed(true);
  EXPECT_EQ(RunRtsChecksum(&tel_oracle, 1, 1, /*interpreted=*/true),
            disarmed)
      << "armed oracle";
}

// --- Armed steady-state allocation contract -------------------------------

int64_t MeasureArmedSteadyState(Engine* engine, EffectTracer* tracer) {
  for (int t = 0; t < 24; ++t) {
    EXPECT_TRUE(engine->Tick().ok());
    if (tracer != nullptr) tracer->Clear();
  }
  int64_t total = 0;
  for (int t = 0; t < 10; ++t) {
    EXPECT_TRUE(engine->Tick().ok());
    const TickStats& stats = engine->last_stats();
    total += stats.allocs_per_tick;
    EXPECT_EQ(stats.allocs_per_tick, 0) << DescribeTickStats(stats);
    if (tracer != nullptr) tracer->Clear();
  }
  return total;
}

TEST(ArmedAllocs, SerialSteadyStateIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  Telemetry tel;
  tel.set_armed(true);
  auto engine = BuildRts(800, RtsOpts(&tel));
  EXPECT_EQ(MeasureArmedSteadyState(engine.get(), nullptr), 0);
  EXPECT_GT(tel.total_spans(), 0);
}

TEST(ArmedAllocs, Parallel4ThreadSteadyStateIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  Telemetry tel;
  tel.set_armed(true);
  auto engine = BuildRts(800, RtsOpts(&tel, /*threads=*/4));
  EXPECT_EQ(MeasureArmedSteadyState(engine.get(), nullptr), 0);
}

// Sharded variant uses the stationary battle (see alloc_steady_state_test):
// zeroed attack freezes the engagement geometry so the cross-shard mailbox
// lanes hit their high-water capacity inside the warmup window, while every
// matching pair still routes its damage write each tick.
TEST(ArmedAllocs, Sharded4SteadyStateIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  Telemetry tel;
  tel.set_armed(true);
  RtsConfig config;
  config.num_units = 800;
  config.clustered = true;
  config.cluster_radius = 10;  // dense: everyone engaged from tick 0
  auto engine =
      RtsWorkload::Build(config, RtsOpts(&tel, /*threads=*/1, /*shards=*/4));
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (EntityId id = 1; id <= 800; ++id) {
    ASSERT_TRUE((*engine)->Set(id, "attack", Value::Number(0)).ok());
  }
  EXPECT_EQ(MeasureArmedSteadyState(engine->get(), nullptr), 0);
  EXPECT_GT(tel.total_spans(), 0);
}

TEST(ArmedAllocs, PooledTracerHoldsTheContract) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  Telemetry tel;
  tel.set_armed(true);
  auto engine = BuildRts(800, RtsOpts(&tel, /*threads=*/4));
  EffectTracer tracer;
  for (EntityId id = 1; id <= 16; ++id) tracer.Watch(id);
  engine->SetTracer(&tracer);
  EXPECT_EQ(MeasureArmedSteadyState(engine.get(), &tracer), 0);
}

// --- Pooled tracer lanes --------------------------------------------------

TEST(PooledTracer, RecordsIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    auto engine = BuildRts(256, RtsOpts(nullptr, threads));
    EffectTracer tracer;
    for (EntityId id = 1; id <= 8; ++id) tracer.Watch(id);
    engine->SetTracer(&tracer);
    for (int t = 0; t < 6; ++t) EXPECT_TRUE(engine->Tick().ok());
    return tracer.Records();
  };
  const std::vector<TraceRecord> serial = run(1);
  const std::vector<TraceRecord> parallel = run(4);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].tick, parallel[i].tick);
    EXPECT_EQ(serial[i].target, parallel[i].target);
    EXPECT_EQ(serial[i].field, parallel[i].field);
    EXPECT_EQ(serial[i].order_key, parallel[i].order_key);
  }
}

TEST(WorkerLanes, AppendClearKeepsCapacityAndOrder) {
  WorkerLanes<int> lanes(4);
  for (int i = 0; i < 100; ++i) lanes.Append(i);
  EXPECT_EQ(lanes.size(), 100u);
  std::vector<int> seen;
  lanes.ForEach([&](int v) { seen.push_back(v); });
  ASSERT_EQ(seen.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
  lanes.Clear();
  EXPECT_EQ(lanes.size(), 0u);
  lanes.Append(7);
  EXPECT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes.dropped(), 0);
}

}  // namespace
}  // namespace sgl
