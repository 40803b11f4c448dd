#include "src/telemetry/telemetry.h"

#include <chrono>
#include <cstdio>

#include "src/exec/tick_executor.h"

namespace sgl {

namespace {

/// Per-thread lane cache. Keyed by a process-unique instance id (not the
/// Telemetry address: an address can be recycled across instances, and a
/// stale binding must never alias a new instance's lanes).
struct LaneBinding {
  uint64_t owner = 0;
  SpanLane* lane = nullptr;
};
thread_local LaneBinding g_lane_binding;

std::atomic<uint64_t> g_next_instance{1};

}  // namespace

const char* SpanSiteName(uint64_t id) {
  static constexpr SpanSite kSites[] = {
      kSpanTickTotal,     kSpanTickSelect,  kSpanTickSitePrep,
      kSpanTickQuery,     kSpanTickMerge,   kSpanTickFinalize,
      kSpanTickInstall,   kSpanTickUpdate,  kSpanShardRun,
      kSpanTickBarrier,   kSpanMailboxFlip, kSpanMailboxReplay,
      kSpanSiteQuery,     kSpanSiteProbe,   kSpanJobRun,
      kSpanVmCompile,
  };
  for (const SpanSite& s : kSites) {
    if (s.id == id) return s.name;
  }
  return "?";
}

Telemetry::Telemetry(const TelemetryOptions& options) : options_(options) {
  instance_id_ = g_next_instance.fetch_add(1, std::memory_order_relaxed);
  size_t ring = 1;
  while (ring < options_.ring_spans) ring <<= 1;
  const int n = options_.max_lanes > 0 ? options_.max_lanes : 1;
  lanes_ = std::vector<SpanLane>(static_cast<size_t>(n));
  for (SpanLane& lane : lanes_) {
    lane.slots_ = std::vector<SpanSlot>(ring);
    lane.mask_ = ring - 1;
  }
  NowNs();  // pin the process epoch before any worker races the init
  counter_ring_.resize(static_cast<size_t>(kCounterSamples));

  std_.tick_total_us = metrics_.RegisterHistogram("tick.total_us");
  std_.tick_query_us = metrics_.RegisterHistogram("tick.query_us");
  std_.tick_merge_us = metrics_.RegisterHistogram("tick.merge_us");
  std_.tick_update_us = metrics_.RegisterHistogram("tick.update_us");
  std_.probe_us = metrics_.RegisterHistogram("probe.us");
  std_.job_wait_us = metrics_.RegisterHistogram("job.wait_us");
  std_.barrier_stall_us = metrics_.RegisterHistogram("barrier.stall_us");
  std_.shard_query_us = metrics_.RegisterHistogram("shard.query_us");
  std_.cross_shard_records_total =
      metrics_.RegisterCounter("shard.cross_records_total");
  std_.jobs_submitted = metrics_.RegisterCounter("jobs.submitted");
  std_.jobs_installed = metrics_.RegisterCounter("jobs.installed");
  std_.jobs_in_flight = metrics_.RegisterGauge("jobs.in_flight");
  std_.shard_imbalance_bp = metrics_.RegisterGauge("shard.imbalance_bp");
  std_.cross_shard_records = metrics_.RegisterGauge("shard.cross_records");
  std_.vm_programs = metrics_.RegisterGauge("vm.programs");
}

int64_t Telemetry::NowNs() {
  static const std::chrono::steady_clock::time_point kEpoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

SpanLane* Telemetry::Lane() {
  LaneBinding& b = g_lane_binding;
  if (b.owner == instance_id_) return b.lane;
  return BindLane();
}

SpanLane* Telemetry::BindLane() {
  const int idx = next_lane_.fetch_add(1, std::memory_order_relaxed);
  LaneBinding& b = g_lane_binding;
  b.owner = instance_id_;
  if (idx < static_cast<int>(lanes_.size())) {
    b.lane = &lanes_[static_cast<size_t>(idx)];
  } else {
    b.lane = nullptr;
    dropped_threads_.fetch_add(1, std::memory_order_relaxed);
  }
  return b.lane;
}

int64_t Telemetry::total_spans() const {
  int64_t n = 0;
  for (const SpanLane& lane : lanes_) {
    n += static_cast<int64_t>(lane.count_.load(std::memory_order_acquire));
  }
  return n;
}

int64_t Telemetry::dropped_spans() const {
  int64_t n = 0;
  for (const SpanLane& lane : lanes_) {
    const uint64_t c = lane.count_.load(std::memory_order_acquire);
    const uint64_t cap = lane.slots_.size();
    if (c > cap) n += static_cast<int64_t>(c - cap);
  }
  return n;
}

std::vector<SpanView> Telemetry::CollectSpans() const {
  std::vector<SpanView> out;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    const SpanLane& lane = lanes_[l];
    const uint64_t c = lane.count_.load(std::memory_order_acquire);
    if (c == 0) continue;
    const uint64_t cap = lane.slots_.size();
    // Wrapped lanes: the oldest surviving slot may be mid-overwrite by the
    // owner thread — discard it and keep the provably complete window.
    const uint64_t start = c > cap ? c - cap + 1 : 0;
    for (uint64_t i = start; i < c; ++i) {
      const SpanSlot& s = lane.slots_[static_cast<size_t>(i) & lane.mask_];
      SpanView v;
      v.site = s.site.load(std::memory_order_relaxed);
      v.name = SpanSiteName(v.site);
      v.begin_ns = s.begin_ns.load(std::memory_order_relaxed);
      v.end_ns = s.end_ns.load(std::memory_order_relaxed);
      v.tick = static_cast<Tick>(s.tick.load(std::memory_order_relaxed));
      v.arg = s.arg.load(std::memory_order_relaxed);
      v.depth = s.depth.load(std::memory_order_relaxed);
      v.track = s.track.load(std::memory_order_relaxed);
      v.lane = static_cast<int>(l);
      out.push_back(v);
    }
  }
  return out;
}

void Telemetry::RecordTick(const TickStats& st, bool has_jobs) {
  for (const SiteFeedback& fb : st.sites) RecordSiteTick(fb);
  metrics_.Record(std_.tick_total_us, st.total_micros);
  metrics_.Record(std_.tick_query_us, st.query_effect_micros);
  metrics_.Record(std_.tick_merge_us, st.merge_micros);
  metrics_.Record(std_.tick_update_us, st.update_micros);
  if (st.probe_micros > 0) metrics_.Record(std_.probe_us, st.probe_micros);
  if (has_jobs) metrics_.Record(std_.job_wait_us, st.job_wait_micros);
  if (st.barrier_stall_us >= 0) {
    metrics_.Record(std_.barrier_stall_us, st.barrier_stall_us);
    metrics_.Set(std_.shard_imbalance_bp, st.imbalance_bp);
  }
  if (st.cross_shard_records > 0) {
    metrics_.Count(std_.cross_shard_records_total, st.cross_shard_records);
  }
  metrics_.Set(std_.cross_shard_records, st.cross_shard_records);
  if (st.jobs_submitted > 0) {
    metrics_.Count(std_.jobs_submitted, st.jobs_submitted);
  }
  if (st.jobs_installed > 0) {
    metrics_.Count(std_.jobs_installed, st.jobs_installed);
  }
  metrics_.Set(std_.jobs_in_flight, st.jobs_in_flight);
  metrics_.Set(std_.vm_programs, st.vm_programs);
  // Counter-sample ring (single writer: the barrier thread). Slot write,
  // then a release publish of the count — the exporter's read protocol
  // mirrors the span lanes.
  const uint64_t i = counter_count_.load(std::memory_order_relaxed);
  CounterSample& slot = counter_ring_[static_cast<size_t>(
      i % counter_ring_.size())];
  slot.ts_ns = NowNs();
  slot.total_us = st.total_micros;
  slot.imbalance_bp = st.imbalance_bp;
  slot.jobs_in_flight = st.jobs_in_flight;
  counter_count_.store(i + 1, std::memory_order_release);
}

void Telemetry::EnsureSites(int num_sites) {
  if (static_cast<int>(sites_.size()) >= num_sites) return;
  const size_t old = sites_.size();
  sites_.resize(static_cast<size_t>(num_sites));
  for (size_t i = old; i < sites_.size(); ++i) {
    sites_[i].history.resize(static_cast<size_t>(kSiteHistory));
  }
}

void Telemetry::RecordSiteDecision(int site, Tick tick,
                                   const char* strategy) {
  if (site < 0 || site >= static_cast<int>(sites_.size())) return;
  SiteSeries& s = sites_[static_cast<size_t>(site)];
  s.site = site;
  const bool changed = s.decisions == 0 || s.strategy != strategy;
  s.strategy = strategy;
  if (!changed) return;
  SiteDecision& d =
      s.history[static_cast<size_t>(s.decisions) % s.history.size()];
  d.tick = tick;
  d.strategy = strategy;
  ++s.decisions;
}

void Telemetry::RecordSiteTick(const SiteFeedback& fb) {
  if (fb.site < 0 || fb.site >= static_cast<int>(sites_.size())) return;
  SiteSeries& s = sites_[static_cast<size_t>(fb.site)];
  s.site = fb.site;
  ++s.ticks;
  s.micros += fb.micros;
  s.probe_micros += fb.probe_micros;
  s.outer_rows += fb.outer_rows;
  s.candidates += fb.candidates;
  s.matches += fb.matches;
  s.effects += fb.effects;
}

std::string Telemetry::DescribeSites() const {
  std::string out;
  char line[320];
  for (const SiteSeries& s : sites_) {
    if (s.site < 0) continue;
    std::snprintf(
        line, sizeof(line),
        "site %-3d %-12s ticks=%lld us=%lld probe_us=%lld outer=%lld "
        "cand=%lld match=%lld effects=%lld switches=%lld\n",
        s.site, s.strategy != nullptr ? s.strategy : "?",
        static_cast<long long>(s.ticks), static_cast<long long>(s.micros),
        static_cast<long long>(s.probe_micros),
        static_cast<long long>(s.outer_rows),
        static_cast<long long>(s.candidates),
        static_cast<long long>(s.matches),
        static_cast<long long>(s.effects),
        static_cast<long long>(s.decisions));
    out += line;
  }
  return out;
}

std::string Telemetry::DescribeSitesJson() const {
  std::string out = "[";
  char line[512];
  bool first = true;
  for (const SiteSeries& s : sites_) {
    if (s.site < 0) continue;
    std::snprintf(
        line, sizeof(line),
        "{\"site\":%d,\"strategy\":\"%s\",\"ticks\":%lld,\"us\":%lld,"
        "\"probe_us\":%lld,\"outer\":%lld,\"cand\":%lld,\"match\":%lld,"
        "\"effects\":%lld,\"switches\":%lld}",
        s.site, s.strategy != nullptr ? s.strategy : "?",
        static_cast<long long>(s.ticks), static_cast<long long>(s.micros),
        static_cast<long long>(s.probe_micros),
        static_cast<long long>(s.outer_rows),
        static_cast<long long>(s.candidates),
        static_cast<long long>(s.matches),
        static_cast<long long>(s.effects),
        static_cast<long long>(s.decisions));
    if (!first) out += ',';
    first = false;
    out += line;
  }
  out += "]";
  return out;
}

}  // namespace sgl
