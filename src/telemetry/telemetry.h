// Telemetry: span tracing, the standard metric series, and per-site
// attribution (src/telemetry/) — the engine's observability layer (§3.3:
// developers must see what the engine decided and why).
//
// Span tracer
// -----------
// Named sites (`layer.object.effect`, constexpr FNV-1a ids — the
// src/fault/ naming scheme) mark every phase of the tick pipeline. The
// `SGL_TRACE_SPAN` RAII macro opens a span; at scope exit one flat
// 32-byte record lands in the calling thread's lock-free ring (a
// "complete" span: begin/end captured together, so a span costs exactly
// one slot). Rings are per-lane single-writer: a thread binds a
// preallocated lane on first use (thread-local cache, no lock) and only
// that thread writes it, so recording needs no CAS — just a release
// publish of the lane count. Slot fields are relaxed atomics purely so
// the exporter may read concurrently; the tolerable cost is that a
// wrapped ring's oldest slot may be mid-overwrite, which CollectSpans
// sidesteps by discarding the oldest slot of wrapped lanes.
//
// Cost contract:
//   * Disarmed (`Telemetry* == nullptr`, the default in ExecOptions): one
//     branch per span — identical shape to the fault injector's disarmed
//     sites. An attached-but-unarmed Telemetry adds one relaxed load.
//   * Armed steady state: allocation-free. Lanes and rings are sized at
//     construction (TelemetryOptions); overflow *wraps* — newest spans
//     win, dropped_spans() counts what the exporter lost; threads beyond
//     max_lanes record nothing (dropped_threads()).
//
// Export: DumpChromeTrace() renders the rings as Chrome trace-event JSON
// — pid = track (the engine records every span on track 0, "world"),
// tid = lane — so one tick reads as a real timeline in Perfetto (see
// README.md). Export and Snapshot() are off the hot path and may allocate.
//
// Per-site attribution surfaces what src/opt/ already measures instead
// of discarding it: cumulative µs / outer rows / candidates / matches /
// effects emitted per prepared accum site and a ring of join-strategy
// decision changes. Recorded from the barrier thread
// only (site preparation + the merge phase), so the cells are plain
// fields.

#ifndef SGL_TELEMETRY_TELEMETRY_H_
#define SGL_TELEMETRY_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/telemetry/metrics.h"

namespace sgl {

struct SiteFeedback;
struct TickStats;

/// Compile-time FNV-1a 64 over a span-site name (the src/fault/ scheme).
constexpr uint64_t SpanSiteHash(const char* s,
                                uint64_t h = 0xcbf29ce484222325ULL) {
  return *s == '\0'
             ? h
             : SpanSiteHash(s + 1,
                            (h ^ static_cast<uint64_t>(
                                     static_cast<unsigned char>(*s))) *
                                0x100000001b3ULL);
}

/// A named span site: the id is what the 32-byte record carries, the name
/// is kept for the exporter.
struct SpanSite {
  uint64_t id;
  const char* name;
};

constexpr SpanSite MakeSpanSite(const char* name) {
  return SpanSite{SpanSiteHash(name), name};
}

// --- The span sites wired into the engine -------------------------------
// tick: the pipeline's phases (src/exec/tick_executor.cc).
inline constexpr SpanSite kSpanTickTotal = MakeSpanSite("tick.total");
inline constexpr SpanSite kSpanTickSelect = MakeSpanSite("tick.select");
inline constexpr SpanSite kSpanTickSitePrep = MakeSpanSite("tick.siteprep");
inline constexpr SpanSite kSpanTickQuery = MakeSpanSite("tick.query");
inline constexpr SpanSite kSpanTickMerge = MakeSpanSite("tick.merge");
inline constexpr SpanSite kSpanTickFinalize =
    MakeSpanSite("tick.finalize_sets");
inline constexpr SpanSite kSpanTickInstall = MakeSpanSite("tick.install");
inline constexpr SpanSite kSpanTickUpdate = MakeSpanSite("tick.update");
// Never emitted: the shard schedule and mailboxes they timed are gone.
// Kept only because the tick-anatomy benchmark (perfbench/) still names
// them.
inline constexpr SpanSite kSpanShardRun = MakeSpanSite("shard.run");
inline constexpr SpanSite kSpanTickBarrier = MakeSpanSite("tick.barrier");
inline constexpr SpanSite kSpanMailboxReplay =
    MakeSpanSite("shard.mailbox.replay");
// exec: per-site work inside the query phase (src/exec/op_exec.cc);
// arg = site id.
inline constexpr SpanSite kSpanSiteQuery = MakeSpanSite("exec.site.query");
inline constexpr SpanSite kSpanSiteProbe = MakeSpanSite("exec.site.probe");
// async: background job execution (src/async/job_service.cc); arg =
// client id, tick = submit tick.
inline constexpr SpanSite kSpanJobRun = MakeSpanSite("async.worker.run");
// vm: one-time program lowering (src/vm/compile.cc).
inline constexpr SpanSite kSpanVmCompile = MakeSpanSite("vm.compile");

/// Exporter-facing name lookup over the declared sites ("?" for unknown
/// ids — a site someone forgot to add here still exports, just unnamed).
const char* SpanSiteName(uint64_t id);

/// One flat span record. All fields are relaxed atomics so the exporter
/// may read while the owning thread writes; the lane count's release
/// publish orders complete records, and CollectSpans discards the one
/// possibly-torn slot of wrapped rings.
struct SpanSlot {
  std::atomic<uint64_t> site{0};
  std::atomic<int64_t> begin_ns{0};
  std::atomic<int64_t> end_ns{0};
  std::atomic<uint32_t> tick{0};
  std::atomic<uint16_t> arg{0};
  std::atomic<uint8_t> depth{0};
  std::atomic<uint8_t> track{0};
};
static_assert(sizeof(SpanSlot) == 32, "span records are flat 32-byte slots");

/// Plain-struct copy of one span (CollectSpans output).
struct SpanView {
  uint64_t site = 0;
  const char* name = nullptr;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  Tick tick = 0;
  uint16_t arg = 0;
  uint8_t depth = 0;
  uint8_t track = 0;
  int lane = 0;
};

/// One thread's ring. Single-writer (the bound thread); `depth` is the
/// writer's private nesting counter, `count` the release-published total
/// of records ever written (ring position = count % capacity).
class SpanLane {
 public:
  void Write(uint64_t site, int64_t begin_ns, int64_t end_ns, Tick tick,
             uint16_t arg, uint8_t depth, uint8_t track) {
    const uint64_t i = count_.load(std::memory_order_relaxed);
    SpanSlot& s = slots_[static_cast<size_t>(i) & mask_];
    s.site.store(site, std::memory_order_relaxed);
    s.begin_ns.store(begin_ns, std::memory_order_relaxed);
    s.end_ns.store(end_ns, std::memory_order_relaxed);
    s.tick.store(static_cast<uint32_t>(tick), std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    s.depth.store(depth, std::memory_order_relaxed);
    s.track.store(track, std::memory_order_relaxed);
    count_.store(i + 1, std::memory_order_release);
  }

  uint32_t depth = 0;  ///< owner-thread span nesting (not atomic: 1 writer)

 private:
  friend class Telemetry;
  std::vector<SpanSlot> slots_;  ///< sized once at construction, never grown
  size_t mask_ = 0;
  std::atomic<uint64_t> count_{0};
};

/// Sizing knobs; everything is allocated up front in the constructor.
struct TelemetryOptions {
  /// Distinct recording threads (barrier + workers + job workers). Threads
  /// beyond this record nothing (counted in dropped_threads()).
  int max_lanes = 32;
  /// Ring capacity per lane, rounded up to a power of two. Overflow wraps
  /// (newest spans win); size for the window you intend to export.
  size_t ring_spans = 4096;
};

/// Decision-history ring length per site (recorded on change).
constexpr int kSiteHistory = 16;
/// Per-tick counter-sample ring length (the "ph":"C" counter lanes in
/// DumpChromeTrace). Overflow wraps, newest samples win.
constexpr int kCounterSamples = 256;

/// One join-strategy decision (recorded when it differs from the previous
/// one, so the ring holds the switch history, not every tick).
struct SiteDecision {
  Tick tick = 0;
  const char* strategy = nullptr;  ///< static string (JoinStrategyName)
};

/// Cumulative attribution for one prepared accum site.
struct SiteSeries {
  int site = -1;
  const char* strategy = nullptr;  ///< most recent decision
  int64_t ticks = 0;               ///< ticks this site executed
  int64_t micros = 0;
  int64_t probe_micros = 0;
  int64_t outer_rows = 0;
  int64_t candidates = 0;
  int64_t matches = 0;
  int64_t effects = 0;  ///< effect writes applied on behalf of this site
  /// Ring of decision *changes*; `decisions` counts all recorded entries
  /// (ring keeps the newest `history.size()`).
  std::vector<SiteDecision> history;
  int64_t decisions = 0;
};

/// The pre-registered series every executor records (ids into metrics()).
struct StdMetrics {
  // Histograms (µs), one sample per tick unless noted.
  MetricId tick_total_us;
  MetricId tick_query_us;
  MetricId tick_merge_us;
  MetricId tick_update_us;
  MetricId probe_us;          ///< per tick, only when a site probed batched
  MetricId job_wait_us;       ///< barrier time blocked on unfinished jobs
  // Counters.
  MetricId jobs_submitted;
  MetricId jobs_installed;
  // Gauges (latest tick).
  MetricId jobs_in_flight;
  MetricId vm_programs;
};

class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& options = TelemetryOptions());
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Armed = spans + metrics record; disarmed = every instrumented point
  /// is a branch or two. Flip between ticks (not during one).
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  void set_armed(bool on) { armed_.store(on, std::memory_order_relaxed); }

  MetricsRegistry& metrics() { return metrics_; }
  const StdMetrics& series() const { return std_; }

  /// Monotonic nanoseconds since this process's telemetry epoch.
  static int64_t NowNs();

  /// The calling thread's lane (bound on first use; nullptr once
  /// max_lanes threads have bound — those threads record nothing).
  SpanLane* Lane();

  /// Spans recorded / lost to ring wrap / threads beyond max_lanes.
  int64_t total_spans() const;
  int64_t dropped_spans() const;
  int64_t dropped_threads() const {
    return dropped_threads_.load(std::memory_order_relaxed);
  }

  /// Off-hot-path: copies every lane's readable window (oldest slot of
  /// wrapped lanes discarded), ordered by lane then ring position.
  std::vector<SpanView> CollectSpans() const;
  /// Chrome trace-event JSON ("X" complete events, pid = track, tid =
  /// lane; metadata names both). Load in Perfetto / chrome://tracing.
  std::string DumpChromeTrace() const;

  // --- Standard per-tick recording (executors, barrier thread) ----------
  /// Records one finished tick into the standard series, its site rows
  /// into the per-site table, and a counter-ring sample. `job.wait_us` is
  /// sampled only when `has_jobs` (a JobService exists), and `probe.us`
  /// only on ticks that probed.
  void RecordTick(const TickStats& st, bool has_jobs);

  // --- Per-site attribution (barrier thread only) -----------------------
  /// Pre-sizes the site table (executor constructors; allocates).
  void EnsureSites(int num_sites);
  /// Appends to the site's decision ring iff different from its last.
  void RecordSiteDecision(int site, Tick tick, const char* strategy);
  const std::vector<SiteSeries>& sites() const { return sites_; }
  /// Human-readable per-site table (off hot path).
  std::string DescribeSites() const;
  /// Machine-readable variant: a JSON array, one object per site, same
  /// fields as the text table (off hot path).
  std::string DescribeSitesJson() const;

 private:
  /// One counter-ring slot: the values DumpChromeTrace's "C" lanes plot.
  struct CounterSample {
    int64_t ts_ns = 0;
    int64_t total_us = 0;
    int64_t jobs_in_flight = 0;
  };

  SpanLane* BindLane();
  /// Accumulates one tick's aggregated feedback for its site.
  void RecordSiteTick(const SiteFeedback& fb);

  TelemetryOptions options_;
  uint64_t instance_id_ = 0;  ///< process-unique; keys the TLS lane cache
  std::atomic<bool> armed_{false};
  MetricsRegistry metrics_;
  StdMetrics std_{};
  std::vector<SpanLane> lanes_;  ///< sized once; SpanSlot is not movable
  std::atomic<int> next_lane_{0};
  std::atomic<int64_t> dropped_threads_{0};
  std::vector<SiteSeries> sites_;
  /// Counter-sample ring: single-writer (the barrier thread, via
  /// RecordTick) with a release-published count, SpanLane-style; the
  /// exporter reads the published window. Sized at construction.
  std::vector<CounterSample> counter_ring_;
  std::atomic<uint64_t> counter_count_{0};
};

/// RAII span. Constructing against a null Telemetry* costs one branch;
/// against a disarmed one, a branch and a relaxed load. Armed, it stamps
/// NowNs() at both ends and writes one ring slot at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Telemetry* tel, const SpanSite& site, Tick tick,
             uint8_t track = 0, uint16_t arg = 0) {
    if (tel == nullptr || !tel->armed()) return;
    lane_ = tel->Lane();
    if (lane_ == nullptr) return;
    site_ = site.id;
    tick_ = tick;
    track_ = track;
    arg_ = arg;
    depth_ = static_cast<uint8_t>(lane_->depth < 255 ? lane_->depth : 255);
    ++lane_->depth;
    begin_ns_ = Telemetry::NowNs();
  }
  ~ScopedSpan() {
    if (lane_ == nullptr) return;
    --lane_->depth;
    lane_->Write(site_, begin_ns_, Telemetry::NowNs(), tick_, arg_, depth_,
                 track_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLane* lane_ = nullptr;
  uint64_t site_ = 0;
  int64_t begin_ns_ = 0;
  Tick tick_ = 0;
  uint16_t arg_ = 0;
  uint8_t depth_ = 0;
  uint8_t track_ = 0;
};

#define SGL_TRACE_CONCAT_INNER(a, b) a##b
#define SGL_TRACE_CONCAT(a, b) SGL_TRACE_CONCAT_INNER(a, b)
/// Opens a span over the rest of the enclosing scope.
///   SGL_TRACE_SPAN(tel, kSpanTickQuery, tick_, /*track=*/0, /*arg=*/0);
#define SGL_TRACE_SPAN(tel, site, tick, track, arg)            \
  ::sgl::ScopedSpan SGL_TRACE_CONCAT(sgl_trace_span_, __LINE__)( \
      (tel), (site), (tick), (track), (arg))

}  // namespace sgl

#endif  // SGL_TELEMETRY_TELEMETRY_H_
