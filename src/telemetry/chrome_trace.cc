// Chrome trace-event export (src/telemetry/): renders the span rings as
// the JSON Object Format chrome://tracing and Perfetto load directly.
//
// Mapping: pid = span track (0 = world/barrier thread, s+1 = shard s),
// tid = lane index (one per recording thread), "X" complete events with
// microsecond ts/dur, plus "M" metadata naming every process and thread.
// The per-tick counter ring renders as "C" counter events on pid 0 —
// Perfetto draws each name (tick.total_us, shard.imbalance_bp,
// jobs.in_flight) as its own counter lane over the timeline — and the
// final metrics snapshot contributes one trailing "C" event per gauge and
// per histogram p50. Entirely off the hot path — allocates freely.

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "src/telemetry/telemetry.h"

namespace sgl {

std::string Telemetry::DumpChromeTrace() const {
  std::vector<SpanView> spans = CollectSpans();
  // Stable render order: by begin time, ties by lane then depth, so equal
  // traces serialize identically.
  std::sort(spans.begin(), spans.end(),
            [](const SpanView& a, const SpanView& b) {
              if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
              if (a.lane != b.lane) return a.lane < b.lane;
              return a.depth < b.depth;
            });

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[320];
  auto emit = [&](const char* e) {
    if (!first) out += ',';
    first = false;
    out += e;
  };

  std::set<int> tracks;
  std::set<std::pair<int, int>> threads;  // (track, lane)
  for (const SpanView& s : spans) {
    tracks.insert(static_cast<int>(s.track));
    threads.emplace(static_cast<int>(s.track), s.lane);
  }
  for (int t : tracks) {
    if (t == 0) {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":"
                    "\"process_name\",\"args\":{\"name\":\"world\"}}");
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":"
                    "\"process_name\",\"args\":{\"name\":\"shard %d\"}}",
                    t, t - 1);
    }
    emit(buf);
  }
  for (const auto& tl : threads) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"lane %d\"}}",
                  tl.first, tl.second, tl.second);
    emit(buf);
  }

  for (const SpanView& s : spans) {
    const double ts_us = static_cast<double>(s.begin_ns) / 1000.0;
    const double dur_us =
        static_cast<double>(s.end_ns - s.begin_ns) / 1000.0;
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"tick\":%lld,"
                  "\"arg\":%u,\"depth\":%u}}",
                  static_cast<int>(s.track), s.lane, ts_us,
                  dur_us >= 0.0 ? dur_us : 0.0, s.name,
                  static_cast<long long>(s.tick),
                  static_cast<unsigned>(s.arg),
                  static_cast<unsigned>(s.depth));
    emit(buf);
  }

  // --- Counter lanes ("C" events) ---------------------------------------
  auto emit_counter = [&](double ts_us, const char* name, long long value) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":%.3f,"
                  "\"name\":\"%s\",\"args\":{\"value\":%lld}}",
                  ts_us, name, value);
    emit(buf);
  };
  // Per-tick samples from the counter ring (same wrapped-window read
  // protocol as the span lanes: discard the possibly-torn oldest slot).
  const uint64_t cc = counter_count_.load(std::memory_order_acquire);
  const uint64_t ccap = counter_ring_.size();
  const uint64_t cstart = cc > ccap ? cc - ccap + 1 : 0;
  int64_t last_ts_ns = 0;
  for (uint64_t i = cstart; i < cc; ++i) {
    const CounterSample& s =
        counter_ring_[static_cast<size_t>(i % ccap)];
    const double ts_us = static_cast<double>(s.ts_ns) / 1000.0;
    emit_counter(ts_us, "tick.total_us",
                 static_cast<long long>(s.total_us));
    emit_counter(ts_us, "shard.imbalance_bp",
                 static_cast<long long>(s.imbalance_bp));
    emit_counter(ts_us, "jobs.in_flight",
                 static_cast<long long>(s.jobs_in_flight));
    if (s.ts_ns > last_ts_ns) last_ts_ns = s.ts_ns;
  }
  // Final snapshot: every gauge, and every histogram's p50, once at the
  // last sample's timestamp.
  const MetricsSnapshot snap = metrics_.Snapshot();
  const double tail_us = static_cast<double>(last_ts_ns) / 1000.0;
  for (const auto& g : snap.gauges) {
    std::string name = "gauge." + g.first;
    emit_counter(tail_us, name.c_str(), static_cast<long long>(g.second));
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.count == 0) continue;
    std::string name = h.name + ".p50";
    emit_counter(tail_us, name.c_str(),
                 static_cast<long long>(h.Percentile(50.0)));
  }

  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace sgl
