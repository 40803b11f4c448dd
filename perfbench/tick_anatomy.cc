// Tick-anatomy benchmark harness: one workload per process, end-to-end
// tick metrics with tracing off, or per-layer metrics from a traced run.
//
//   tick_anatomy --workload battle --seed 1 --seconds 20 --trace 0
//   tick_anatomy --selftest
//
// Workloads (README.md has the reasons and the layer -> end-to-end map):
//   battle           RTS Combat + Flee, 2048 clustered units, driven in
//                    waves (heal + seeded re-cluster every kWaveTicks)
//   battle_recorded  battle's inputs with an armed FlightRecorder
//   market           8192 traders / 16384 items, contention 8, seeded
//                    AssignWants every tick
//   armies_sharded   16384 soldiers on a 128x128 map, async pathfinder,
//                    2 shards on 2 pool threads + 1 job worker, seeded
//                    Retarget every kArmiesPeriod ticks
//
// Every run: set up the engine several times (Engine::Create, population,
// fixed warm-up ticks; setup_s is their median), then measure ticks for
// --seconds on the last engine. Host input (waves, wants, retargets) is
// generated from --seed between ticks and never timed as tick time.
// Invariants are checked after every tick, outside the timer; a tick that
// returns a non-OK Status or breaks a check counts as failed.
//
// --trace 1 arms the engine's Telemetry in alternating blocks of ticks
// (untraced, traced, untraced, ...) so the traced and untraced tick_p50
// come from the same process; their ratio is trace.overhead_pct. Layer
// timings are self times (span minus child spans, per lane) from
// Telemetry::CollectSpans plus the benchmark's own spans around each
// Engine::Tick and each host-input step. Counts come from TickStats,
// JobService, the metrics registry and the FlightRecorder over a fixed
// window of ticks, so they repeat exactly for a seed.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/debug/checkpoint.h"
#include "src/engine/engine.h"
#include "src/sim/armies.h"
#include "src/sim/market.h"
#include "src/sim/rts.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

namespace {

using Clock = std::chrono::steady_clock;
using sgl::Engine;
using sgl::EngineOptions;
using sgl::Status;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

uint64_t Mix(uint64_t seed, uint64_t k) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- Workloads ---------------------------------------------------------------

/// One workload: the program, its default engine options, the population
/// and the host-side input step. `step` counts ticks since population
/// (warm-up ticks first, then measured ticks), so input periods run on
/// across the warm-up boundary.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string Source() const = 0;
  virtual EngineOptions Options() const { return EngineOptions(); }
  virtual Status Populate(Engine* engine) = 0;
  virtual void Input(Engine* engine, int64_t step) = 0;
  /// Invariants after tick `step`; false (with a reason) breaks the tick.
  virtual bool Check(Engine* engine, int64_t step, std::string* why) = 0;
  /// Fixed warm-up ticks inside setup_s.
  virtual int warmup_ticks() const = 0;
  /// Ticks per traced/untraced block: a whole number of input periods.
  virtual int block_ticks() const = 0;
  /// Measured ticks over which counts and the checksum are taken.
  virtual int count_window() const = 0;
  virtual bool recorded() const { return false; }
};

// Wave length of the battle input. Without waves the battle ends: at
// 2048 clustered units every unit is dead by tick ~20, the explore rule
// drifts the dead into one blob at the arena centre, candidate pairs
// grow from ~202k to 4.19M (all N^2) by tick ~180 with zero matches, and
// tick time rises from 16 ms to 100-200 ms. Healing and re-clustering
// every kWaveTicks keeps it a battle with a stationary cost. Longer
// waves re-enter the blob regime: by a wave's 10th tick few units are
// alive, the clusters collapse, and candidates climb again (200k -> 375k
// by tick 15 of a 16-tick wave).
constexpr int kWaveTicks = 10;

class Battle : public Workload {
 public:
  Battle(uint64_t seed, bool recorded, bool small)
      : seed_(seed), recorded_(recorded) {
    config_.num_units = small ? 256 : 2048;
    config_.clustered = true;
    config_.seed = seed;
  }

  std::string Source() const override { return sgl::RtsWorkload::Source(); }

  Status Populate(Engine* engine) override {
    // RtsWorkload::Build's population, spawned here so the benchmark can
    // time Engine::Create and population as separate spans.
    sgl::Rng rng(config_.seed);
    for (int i = 0; i < config_.num_units; ++i) {
      const double player = i % 2 == 0 ? 0.0 : 1.0;
      const int c = static_cast<int>(
          rng.NextBelow(static_cast<uint64_t>(config_.num_clusters)));
      const double cx =
          config_.world_size *
          (0.2 + 0.6 * c / std::max(1, config_.num_clusters - 1));
      const double cy = config_.world_size * 0.5;
      const double x =
          cx + rng.Uniform(-config_.cluster_radius, config_.cluster_radius);
      const double y =
          cy + rng.Uniform(-config_.cluster_radius, config_.cluster_radius);
      SGL_RETURN_IF_ERROR(
          engine
              ->Spawn("Unit", {{"player", sgl::Value::Number(player)},
                               {"x", sgl::Value::Number(x)},
                               {"y", sgl::Value::Number(y)},
                               {"range",
                                sgl::Value::Number(config_.attack_range)}})
              .status());
    }
    cls_ = engine->catalog().Find("Unit");
    const sgl::ClassDef& def = engine->catalog().Get(cls_);
    health_ = def.FindState("health");
    x_ = def.FindState("x");
    y_ = def.FindState("y");
    return Status::OK();
  }

  void Input(Engine* engine, int64_t step) override {
    if (step == 0 || step % kWaveTicks != 0) return;
    sgl::EntityTable& table = engine->world().table(cls_);
    sgl::NumberColumn health = table.Num(health_);
    for (size_t i = 0; i < table.size(); ++i) health.at(i) = 100.0;
    sgl::RtsWorkload::RepositionMode(
        engine, config_, /*clustered=*/true,
        Mix(seed_, static_cast<uint64_t>(step / kWaveTicks)));
  }

  bool Check(Engine* engine, int64_t step, std::string* why) override {
    const sgl::EntityTable& table = engine->world().table(cls_);
    sgl::ConstNumberColumn health = table.Num(health_);
    sgl::ConstNumberColumn x = table.Num(x_);
    sgl::ConstNumberColumn y = table.Num(y_);
    for (size_t i = 0; i < table.size(); ++i) {
      if (!(health[i] >= 0.0 && health[i] <= 100.0)) {
        *why = "health out of [0, 100]";
        return false;
      }
      if (!(x[i] >= 0.0 && x[i] <= config_.world_size && y[i] >= 0.0 &&
            y[i] <= config_.world_size)) {
        *why = "position out of [0, 1000]";
        return false;
      }
    }
    // The scalar oracle (interpreted) reports no site feedback; the
    // per-wave match check applies to the set-at-a-time executors.
    bool reported = false;
    for (const sgl::SiteFeedback& fb : engine->last_stats().sites) {
      reported = reported || fb.site >= 0;
      wave_matches_ += fb.matches;
    }
    if (reported && step % kWaveTicks == kWaveTicks - 1) {
      const int64_t matches = wave_matches_;
      wave_matches_ = 0;
      if (matches <= 0) {
        *why = "a wave ended with no matches";
        return false;
      }
    }
    return true;
  }

  int warmup_ticks() const override { return 3 * kWaveTicks; }
  int block_ticks() const override { return 5 * kWaveTicks; }
  int count_window() const override { return 20 * kWaveTicks; }
  bool recorded() const override { return recorded_; }

 private:
  uint64_t seed_;
  bool recorded_;
  sgl::RtsConfig config_;
  sgl::ClassId cls_ = sgl::kInvalidClass;
  sgl::FieldIdx health_ = sgl::kInvalidField;
  sgl::FieldIdx x_ = sgl::kInvalidField;
  sgl::FieldIdx y_ = sgl::kInvalidField;
  int64_t wave_matches_ = 0;
};

class Market : public Workload {
 public:
  Market(uint64_t seed, bool small) : rng_(Mix(seed, 0x6d6b74)) {
    config_.num_traders = small ? 512 : 8192;
    config_.num_items = small ? 1024 : 16384;
    config_.contention = 8;
    // Inventories are bounded by gold: bought - sold <= initial_gold /
    // item_value = 10 on top of the 2 items each trader starts with.
    config_.inventory_capacity = 16;
  }

  std::string Source() const override {
    return sgl::MarketWorkload::Source();
  }

  Status Populate(Engine* engine) override {
    // MarketWorkload::Build's population (round-robin ownership, pre-sized
    // inventories), spawned here for a separate population span.
    std::vector<sgl::EntityId> traders;
    traders.reserve(static_cast<size_t>(config_.num_traders));
    for (int i = 0; i < config_.num_traders; ++i) {
      SGL_ASSIGN_OR_RETURN(
          sgl::EntityId id,
          engine->Spawn("Trader",
                        {{"gold", sgl::Value::Number(config_.initial_gold)}}));
      traders.push_back(id);
    }
    trader_cls_ = engine->catalog().Find("Trader");
    const sgl::FieldIdx items_field =
        engine->catalog().Get(trader_cls_).FindState("items");
    for (int i = 0; i < config_.num_items; ++i) {
      const sgl::EntityId owner =
          traders[static_cast<size_t>(i) % traders.size()];
      SGL_ASSIGN_OR_RETURN(
          sgl::EntityId item,
          engine->Spawn("Item",
                        {{"value", sgl::Value::Number(config_.item_value)},
                         {"owner", sgl::Value::Ref(owner)}}));
      // Owners are the first num_traders spawns, so row == spawn index.
      sgl::EntitySet* sets =
          engine->world().table(trader_cls_).SetCol(items_field);
      sets[static_cast<size_t>(i) % traders.size()].Insert(item);
    }
    sgl::EntitySet* sets =
        engine->world().table(trader_cls_).SetCol(items_field);
    for (size_t t = 0; t < traders.size(); ++t) {
      sets[t].Reserve(static_cast<size_t>(config_.inventory_capacity));
    }
    total_gold_ = sgl::MarketWorkload::TotalGold(engine);
    return Status::OK();
  }

  void Input(Engine* engine, int64_t /*step*/) override {
    sgl::MarketWorkload::AssignWants(engine, config_, &rng_);
  }

  bool Check(Engine* engine, int64_t step, std::string* why) override {
    if (sgl::MarketWorkload::TotalGold(engine) != total_gold_) {
      *why = "gold not conserved";
      return false;
    }
    if (!sgl::MarketWorkload::NoNegativeGold(engine)) {
      *why = "negative gold";
      return false;
    }
    // The ownership walk builds a map over every item, which evicts the
    // tick's working set from cache and slows the next tick. Every 256th
    // tick keeps those ticks under 1% of samples, out of tick_p99_ms.
    if (step % 256 == 255 &&
        !sgl::MarketWorkload::OwnershipConsistent(engine)) {
      *why = "ownership inconsistent";
      return false;
    }
    return true;
  }

  int warmup_ticks() const override { return 64; }
  int block_ticks() const override { return 64; }
  int count_window() const override { return 256; }

 private:
  sgl::MarketConfig config_;
  sgl::Rng rng_;
  sgl::ClassId trader_cls_ = sgl::kInvalidClass;
  double total_gold_ = 0.0;
};

// Order period of armies_sharded: every kArmiesPeriod ticks each army is
// re-deployed to a seeded camp (its soldiers scattered within
// kCampRadius cells) and given a new seeded rally rotation. Without the
// re-deploy the armies converge onto their rally cells and the install
// ticks after a retarget fade from ~1 s to ~1 ms within ~15 retargets, so
// the cost would depend on the run length. With it the tick cost is
// stationary and bimodal: ~1.5 ms on steady ticks, ~130 ms (50-270) on
// the one install tick of each period, 1 tick in 48 (2.1%). So
// tick_p50_ms sits in the fast mode and tick_p99_ms near the middle of
// the slow one, neither on the boundary between them.
constexpr int kArmiesPeriod = 48;
constexpr int kCampRadius = 3;

class Armies : public Workload {
 public:
  Armies(uint64_t seed, bool small) : rng_(Mix(seed, 0x61726d)) {
    config_.num_units = small ? 1024 : 16384;
    config_.map_w = small ? 48 : 128;
    config_.map_h = small ? 48 : 128;
    config_.num_armies = small ? 8 : 64;
    config_.num_rally = 12;
    config_.wall_density = 0.08;
    config_.seed = 42;  // the map is fixed; the seed moves camps and orders
    config_.async_pathfind = true;
    config_.async.cls = "Soldier";
    config_.async.latency_ticks = 2;
    config_.async.result_ttl_ticks = 24;
    config_.async.crowd_penalty = 0.25;
    config_.async.cache_reserve = 1u << 15;
  }

  std::string Source() const override {
    return sgl::ArmiesWorkload::Source();
  }

  EngineOptions Options() const override {
    // 4 threads in all: main + 2 ThreadPool threads + 1 JobService worker.
    EngineOptions options;
    options.exec.num_shards = 2;
    options.exec.num_threads = 2;
    options.exec.jobs.num_workers = 1;
    return options;
  }

  Status Populate(Engine* engine) override {
    // ArmiesWorkload::Build's population, with soldiers spawned at their
    // army's camp.
    sgl::GridMap map = sgl::ArmiesWorkload::BuildMap(config_);
    const auto rallies = sgl::ArmiesWorkload::RallyCells(config_);
    PickCamps(map);
    for (int i = 0; i < config_.num_units; ++i) {
      const int army = i % config_.num_armies;
      const auto cell = CampCell(map, army);
      const double x = map.CenterX(cell.first);
      const double y = map.CenterY(cell.second);
      const auto& rally =
          rallies[static_cast<size_t>(army % config_.num_rally)];
      SGL_RETURN_IF_ERROR(
          engine
              ->Spawn("Soldier",
                      {{"army", sgl::Value::Number(army)},
                       {"x", sgl::Value::Number(x)},
                       {"y", sgl::Value::Number(y)},
                       {"waypoint_x", sgl::Value::Number(x)},
                       {"waypoint_y", sgl::Value::Number(y)},
                       {"tx", sgl::Value::Number(map.CenterX(rally.first))},
                       {"ty", sgl::Value::Number(map.CenterY(rally.second))}})
              .status());
    }
    map_ = std::make_unique<sgl::GridMap>(map);
    SGL_RETURN_IF_ERROR(engine->AddAsyncPathfinder(config_.async,
                                                   std::move(map)));
    cls_ = engine->catalog().Find("Soldier");
    const sgl::ClassDef& def = engine->catalog().Get(cls_);
    army_ = def.FindState("army");
    x_ = def.FindState("x");
    y_ = def.FindState("y");
    wx_ = def.FindState("waypoint_x");
    wy_ = def.FindState("waypoint_y");
    return Status::OK();
  }

  void Input(Engine* engine, int64_t step) override {
    if (step == 0 || step % kArmiesPeriod != 0) return;
    // Re-deploy: new camps, soldiers scattered around them, standing still
    // (waypoint = position) until their new paths install.
    PickCamps(*map_);
    sgl::EntityTable& table = engine->world().table(cls_);
    sgl::ConstNumberColumn army = table.Num(army_);
    sgl::NumberColumn x = table.Num(x_);
    sgl::NumberColumn y = table.Num(y_);
    sgl::NumberColumn wx = table.Num(wx_);
    sgl::NumberColumn wy = table.Num(wy_);
    for (size_t i = 0; i < table.size(); ++i) {
      const auto cell = CampCell(*map_, static_cast<int>(army[i]));
      x.at(i) = wx.at(i) = map_->CenterX(cell.first);
      y.at(i) = wy.at(i) = map_->CenterY(cell.second);
    }
    // A seeded new rally rotation, never the current one.
    int next = round_;
    while (next == round_) {
      next = static_cast<int>(
          rng_.NextBelow(static_cast<uint64_t>(config_.num_rally)));
    }
    round_ = next;
    sgl::ArmiesWorkload::Retarget(engine, config_, round_);
  }

  bool Check(Engine* engine, int64_t /*step*/, std::string* why) override {
    const sgl::EntityTable& table = engine->world().table(cls_);
    sgl::ConstNumberColumn x = table.Num(x_);
    sgl::ConstNumberColumn y = table.Num(y_);
    const double w = config_.map_w * config_.cell;
    const double h = config_.map_h * config_.cell;
    for (size_t i = 0; i < table.size(); ++i) {
      if (!(x[i] >= 0.0 && x[i] <= w && y[i] >= 0.0 && y[i] <= h)) {
        *why = "soldier out of map bounds";
        return false;
      }
    }
    return true;
  }

  int warmup_ticks() const override { return 2 * kArmiesPeriod; }
  int block_ticks() const override { return 2 * kArmiesPeriod; }
  int count_window() const override { return 6 * kArmiesPeriod; }

 private:
  /// One seeded open camp centre per army.
  void PickCamps(const sgl::GridMap& map) {
    camps_.resize(static_cast<size_t>(config_.num_armies));
    for (auto& camp : camps_) {
      do {
        camp.first = static_cast<int>(
            rng_.NextBelow(static_cast<uint64_t>(map.width())));
        camp.second = static_cast<int>(
            rng_.NextBelow(static_cast<uint64_t>(map.height())));
      } while (map.Blocked(camp.first, camp.second));
    }
  }

  /// A seeded open cell in the (2r+1)^2 square around the army's camp
  /// (r = kCampRadius), which always holds its open centre.
  std::pair<int, int> CampCell(const sgl::GridMap& map, int army) {
    const auto& camp = camps_[static_cast<size_t>(army)];
    const uint64_t span = static_cast<uint64_t>(2 * kCampRadius + 1);
    for (;;) {
      const int x =
          camp.first - kCampRadius + static_cast<int>(rng_.NextBelow(span));
      const int y =
          camp.second - kCampRadius + static_cast<int>(rng_.NextBelow(span));
      if (!map.Blocked(x, y)) return {x, y};
    }
  }

  sgl::ArmiesConfig config_;
  sgl::Rng rng_;
  std::unique_ptr<sgl::GridMap> map_;
  std::vector<std::pair<int, int>> camps_;
  int round_ = 0;
  sgl::ClassId cls_ = sgl::kInvalidClass;
  sgl::FieldIdx army_ = sgl::kInvalidField;
  sgl::FieldIdx x_ = sgl::kInvalidField;
  sgl::FieldIdx y_ = sgl::kInvalidField;
  sgl::FieldIdx wx_ = sgl::kInvalidField;
  sgl::FieldIdx wy_ = sgl::kInvalidField;
};

const char* const kWorkloads[] = {"battle", "battle_recorded", "market",
                                  "armies_sharded"};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool small) {
  if (name == "battle") return std::make_unique<Battle>(seed, false, small);
  if (name == "battle_recorded") {
    return std::make_unique<Battle>(seed, true, small);
  }
  if (name == "market") return std::make_unique<Market>(seed, small);
  if (name == "armies_sharded") return std::make_unique<Armies>(seed, small);
  return nullptr;
}

// --- Setup -------------------------------------------------------------------

/// One set-up engine with everything it borrows. Members destroy in
/// reverse order: the engine first, then the recorder and telemetry it
/// points at.
struct Instance {
  std::unique_ptr<sgl::Telemetry> telemetry;
  std::unique_ptr<sgl::FlightRecorder> recorder;
  std::unique_ptr<Engine> engine;
  double create_s = 0, populate_s = 0, warmup_s = 0;
};

sgl::TelemetryOptions TracedTelemetryOptions() {
  sgl::TelemetryOptions o;
  o.max_lanes = 8;
  // One drain window of spans per lane, including a retarget's burst of
  // async.worker.run spans (one per path search).
  o.ring_spans = size_t{1} << 17;
  return o;
}

sgl::FlightRecorderOptions RecorderOptions() {
  sgl::FlightRecorderOptions o;
  // A wave's first tick writes ~102k damage effects plus the per-unit
  // velocity/foes effects; the default 65536-record budget would drop.
  o.max_records_per_frame = size_t{1} << 19;
  return o;
}

/// Engine::Create, population and the fixed warm-up ticks, each timed.
Status SetUp(Workload* w, bool with_telemetry, bool oracle, Instance* out) {
  if (with_telemetry) {
    out->telemetry = std::make_unique<sgl::Telemetry>(TracedTelemetryOptions());
  }
  EngineOptions options = w->Options();
  if (oracle) {
    options = EngineOptions();
    options.exec.interpreted = true;
  } else if (w->recorded()) {
    out->recorder = std::make_unique<sgl::FlightRecorder>(RecorderOptions());
    out->recorder->set_armed(true);
    options.exec.recorder = out->recorder.get();
  }
  options.exec.telemetry = out->telemetry.get();

  const Clock::time_point t0 = Clock::now();
  auto created = Engine::Create(w->Source(), options);
  if (!created.ok()) return created.status();
  out->engine = std::move(created).value();
  const Clock::time_point t1 = Clock::now();
  SGL_RETURN_IF_ERROR(w->Populate(out->engine.get()));
  const Clock::time_point t2 = Clock::now();
  std::string why;
  for (int64_t step = 0; step < w->warmup_ticks(); ++step) {
    w->Input(out->engine.get(), step);
    SGL_RETURN_IF_ERROR(out->engine->Tick());
    if (!w->Check(out->engine.get(), step, &why)) {
      return Status::Internal("warm-up tick " + std::to_string(step) + ": " +
                              why);
    }
  }
  const Clock::time_point t3 = Clock::now();
  out->create_s = SecondsBetween(t0, t1);
  out->populate_s = SecondsBetween(t1, t2);
  out->warmup_s = SecondsBetween(t2, t3);
  return Status::OK();
}

// --- Statistics --------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of a copy of `v`.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- Span self times ---------------------------------------------------------

// The benchmark's own spans, recorded into the same rings as the engine's.
constexpr sgl::SpanSite kSpanBenchTick = sgl::MakeSpanSite("bench.tick");
constexpr sgl::SpanSite kSpanBenchInput = sgl::MakeSpanSite("bench.input");

/// Per-tick layer values (µs) of one traced tick.
struct TickLayers {
  double total_self = 0, facade = 0, input = 0, select = 0, siteprep = 0,
         query = 0, eval = 0, probe = 0, merge = 0, finalize = 0,
         update = 0, install = 0, inline_run = 0, worker_busy = 0,
         shard_run = 0, barrier = 0, replay = 0;
};

/// Adds one span's self time to its layer. Job runs (tick = submit tick)
/// split by where they ran: nested under tick.install means the barrier
/// ran it inline at its install tick (deadline fallback), top-level means
/// a JobService worker did.
void AddSelfTime(const sgl::SpanView& s, double self_us, bool nested,
                 TickLayers* t) {
  const uint64_t id = s.site;
  if (id == kSpanBenchTick.id) {
    t->facade += self_us;
  } else if (id == kSpanBenchInput.id) {
    t->input += self_us;
  } else if (id == sgl::kSpanTickTotal.id) {
    t->total_self += self_us;
  } else if (id == sgl::kSpanTickSelect.id) {
    t->select += self_us;
  } else if (id == sgl::kSpanTickSitePrep.id) {
    t->siteprep += self_us;
  } else if (id == sgl::kSpanTickQuery.id) {
    t->query += self_us;
  } else if (id == sgl::kSpanSiteQuery.id) {
    t->eval += self_us;
  } else if (id == sgl::kSpanSiteProbe.id) {
    t->probe += self_us;
  } else if (id == sgl::kSpanTickMerge.id) {
    t->merge += self_us;
  } else if (id == sgl::kSpanTickFinalize.id) {
    t->finalize += self_us;
  } else if (id == sgl::kSpanTickUpdate.id) {
    t->update += self_us;
  } else if (id == sgl::kSpanTickInstall.id) {
    t->install += self_us;
  } else if (id == sgl::kSpanJobRun.id) {
    (nested ? t->inline_run : t->worker_busy) += self_us;
  } else if (id == sgl::kSpanShardRun.id) {
    t->shard_run = std::max(t->shard_run, self_us);  // slowest shard
  } else if (id == sgl::kSpanTickBarrier.id) {
    t->barrier += self_us;
  } else if (id == sgl::kSpanMailboxReplay.id) {
    t->replay += self_us;
  }
}

/// Turns ring contents into per-tick layer rows. Self time = duration
/// minus the direct children on the same lane. A job span carries its
/// submit tick but may nest under the install span of a later tick, so
/// nesting is resolved over a window `kLag` ticks wider than the ticks
/// being finalized on each side. Spans of tick t are final once the
/// engine is kLag ticks past t (jobs install latency_ticks after
/// submission, and the barrier waits for them).
class SpanDrain {
 public:
  static constexpr sgl::Tick kLag = 8;

  void MarkTraced(sgl::Tick t) { traced_.push_back(t); }

  /// Finalizes every traced tick <= upto not finalized yet. The engine
  /// must be at least kLag ticks past `upto`.
  void Drain(const sgl::Telemetry& tel, sgl::Tick upto) {
    if (upto <= done_) return;
    std::vector<sgl::SpanView> spans;
    for (const sgl::SpanView& s : tel.CollectSpans()) {
      if (s.tick > done_ - kLag && s.tick <= upto + kLag) spans.push_back(s);
    }
    std::sort(spans.begin(), spans.end(),
              [](const sgl::SpanView& a, const sgl::SpanView& b) {
                if (a.lane != b.lane) return a.lane < b.lane;
                if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
                return a.depth < b.depth;  // parent before same-start child
              });
    std::vector<int64_t> child_ns(spans.size(), 0);
    std::vector<uint8_t> nested(spans.size(), 0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < spans.size(); ++i) {
      const sgl::SpanView& s = spans[i];
      while (!stack.empty()) {
        const sgl::SpanView& top = spans[stack.back()];
        if (top.lane == s.lane && s.begin_ns >= top.begin_ns &&
            s.end_ns <= top.end_ns && s.depth > top.depth) {
          break;
        }
        stack.pop_back();
      }
      if (!stack.empty()) {
        child_ns[stack.back()] += s.end_ns - s.begin_ns;
        nested[i] = 1;
      }
      stack.push_back(i);
    }
    std::map<sgl::Tick, TickLayers> rows;
    for (sgl::Tick t : traced_) {
      if (t > done_ && t <= upto) rows[t] = TickLayers();
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      auto it = rows.find(spans[i].tick);
      if (it == rows.end()) continue;
      const double self_us = static_cast<double>(spans[i].end_ns -
                                                 spans[i].begin_ns -
                                                 child_ns[i]) /
                             1000.0;
      AddSelfTime(spans[i], self_us, nested[i] != 0, &it->second);
    }
    for (const auto& [tick, row] : rows) rows_.push_back(row);
    done_ = upto;
  }

  /// p50 and mean of one layer across the finalized traced ticks.
  template <typename F>
  std::pair<double, double> Stat(F field) const {
    std::vector<double> v;
    v.reserve(rows_.size());
    for (const TickLayers& r : rows_) v.push_back(field(r));
    return {Median(v), Mean(v)};
  }

 private:
  std::vector<sgl::Tick> traced_;
  sgl::Tick done_ = -1;
  std::vector<TickLayers> rows_;
};

/// Deterministic per-tick counts summed over the count window.
struct WindowCounts {
  int64_t ticks = 0;
  int64_t outer_rows = 0, candidates = 0, matches = 0, effects = 0;
  int64_t vm_programs = 0, vm_fallbacks = 0;
  int64_t txn_issued = 0, txn_committed = 0, txn_aborted = 0;
  int64_t jobs_submitted = 0, jobs_installed = 0;
  int64_t allocs = 0, bytes = 0, index_memory = 0;
  int64_t recorder_records = 0, recorder_dropped = 0;
  int64_t traced_ticks = 0;

  void Add(const sgl::TickStats& st, const sgl::TickFrame* frame) {
    ++ticks;
    for (const sgl::SiteFeedback& fb : st.sites) {
      outer_rows += fb.outer_rows;
      candidates += fb.candidates;
      matches += fb.matches;
      effects += fb.effects;
    }
    vm_programs += st.vm_programs;
    vm_fallbacks += st.vm_fallbacks;
    txn_issued += st.txn.issued;
    txn_committed += st.txn.committed;
    txn_aborted += st.txn.aborted;
    jobs_submitted += st.jobs_submitted;
    jobs_installed += st.jobs_installed;
    allocs += st.allocs_per_tick;
    bytes += st.bytes_per_tick;
    index_memory += st.index_memory_bytes;
    if (frame != nullptr) {
      recorder_records += static_cast<int64_t>(frame->num_records);
      recorder_dropped += frame->dropped_records;
    }
  }
};

sgl::JobService* JobsOf(Engine* engine) {
  return engine->sharded() ? engine->shard_executor().jobs_or_null()
                           : engine->executor().jobs_or_null();
}

// --- Runs --------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

/// Everything one run measured.
struct RunState {
  int64_t attempted = 0, failed = 0;
  std::vector<double> untraced_ms, traced_ms;
  uint64_t checksum = 0;
  bool have_checksum = false;
};

bool RunOneTick(Workload* w, Engine* engine, int64_t step,
                sgl::Telemetry* tel, double* ms) {
  {
    SGL_TRACE_SPAN(tel, kSpanBenchInput, engine->tick(), 0, 0);
    w->Input(engine, step);
  }
  Status st;
  const Clock::time_point t0 = Clock::now();
  {
    SGL_TRACE_SPAN(tel, kSpanBenchTick, engine->tick(), 0, 0);
    st = engine->Tick();
  }
  const Clock::time_point t1 = Clock::now();
  *ms = SecondsBetween(t0, t1) * 1000.0;
  std::string why;
  if (!st.ok()) {
    why = st.ToString();
  } else if (w->Check(engine, step, &why)) {
    return true;
  }
  std::fprintf(stderr, "tick %" PRId64 " failed: %s\n", step, why.c_str());
  return false;
}

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

int Run(const Args& args) {
  // Set-up: several identical engines; the last one is measured.
  std::vector<double> setup_s, create_ms, populate_ms, warmup_ms;
  std::unique_ptr<Workload> w;
  Instance inst;
  for (int k = 0; k < kSetups; ++k) {
    inst.engine.reset();  // before the telemetry/recorder it borrows
    inst = Instance();
    w = MakeWorkload(args.workload, args.seed, /*small=*/false);
    const Status st = SetUp(w.get(), args.trace, /*oracle=*/false, &inst);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(inst.create_s + inst.populate_s + inst.warmup_s);
    create_ms.push_back(inst.create_s * 1000.0);
    populate_ms.push_back(inst.populate_s * 1000.0);
    warmup_ms.push_back(inst.warmup_s * 1000.0);
  }
  Engine* engine = inst.engine.get();
  sgl::Telemetry* tel = inst.telemetry.get();
  sgl::JobService* jobs = JobsOf(engine);

  RunState rs;
  WindowCounts counts;
  SpanDrain drain;
  int64_t fallback_before = jobs != nullptr ? jobs->total_fallback_runs() : 0;
  double fallback_per_tick = 0;
  double cross_records_per_tick = 0;
  std::vector<double> imbalance_bp, index_build_us, job_wait_us;
  const int window = w->count_window();
  const int block = w->block_ticks();
  const int64_t min_ticks = std::max<int64_t>(1000, window);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  // Ticks past the deadline continue until the count window, 1000 samples
  // for tick_p99 (and, traced, one traced block) exist, under a hard cap.
  const double hard_cap_s = 3.0 * args.seconds + 60.0;
  int64_t step = w->warmup_ticks();
  int64_t measured = 0;
  for (;;) {
    const bool traced_block = args.trace && (measured / block) % 2 == 1;
    if (measured % block == 0) {
      const double elapsed = SecondsBetween(start, Clock::now());
      const bool enough = measured >= (args.trace ? std::max<int64_t>(
                                                        window, 2 * block)
                                                  : min_ticks);
      if ((Clock::now() >= deadline && enough) || elapsed > hard_cap_s) break;
      if (tel != nullptr) tel->set_armed(traced_block);
    }
    const sgl::Tick tick = engine->tick();
    double ms = 0;
    const bool ok = RunOneTick(w.get(), engine, step, tel, &ms);
    ++rs.attempted;
    if (!ok) ++rs.failed;
    (traced_block ? rs.traced_ms : rs.untraced_ms).push_back(ms);
    if (traced_block) {
      drain.MarkTraced(tick);
      const sgl::TickStats& ts = engine->last_stats();
      index_build_us.push_back(static_cast<double>(ts.index_build_micros));
      job_wait_us.push_back(static_cast<double>(ts.job_wait_micros));
      if (engine->sharded()) {
        imbalance_bp.push_back(static_cast<double>(
            tel->metrics().Snapshot().Gauge("shard.imbalance_bp")));
      }
    }
    if (measured < window) {
      const sgl::TickFrame* frame =
          inst.recorder != nullptr ? inst.recorder->frame(tick) : nullptr;
      counts.Add(engine->last_stats(), frame);
      if (traced_block) ++counts.traced_ticks;
      if (frame != nullptr && frame->dropped_records > 0) {
        std::fprintf(stderr, "tick %" PRId64 ": recorder dropped records\n",
                     step);
        ++rs.failed;
      }
    }
    ++measured;
    ++step;
    if (measured == window) {
      rs.checksum = sgl::CanonicalWorldChecksum(engine->world());
      rs.have_checksum = true;
      if (jobs != nullptr) {
        fallback_per_tick =
            static_cast<double>(jobs->total_fallback_runs() - fallback_before) /
            window;
      }
      if (tel != nullptr && counts.traced_ticks > 0) {
        cross_records_per_tick =
            static_cast<double>(tel->metrics().Snapshot().Counter(
                "shard.cross_records_total")) /
            static_cast<double>(counts.traced_ticks);
      }
    }
    if (tel != nullptr && traced_block && measured % 32 == 0) {
      drain.Drain(*tel, engine->tick() - 1 - SpanDrain::kLag);
    }
  }
  if (tel != nullptr) {
    tel->set_armed(false);
    drain.Drain(*tel, engine->tick() - 1 - SpanDrain::kLag);
  }

  if (rs.have_checksum) {
    std::printf("checksum@%d 0x%016" PRIx64 "\n", window, rs.checksum);
  }
  const std::vector<double>& samples = rs.untraced_ms;
  const double p99 = Quantile(samples, 0.99);
  int64_t above = 0;
  for (double v : samples) above += v > p99 ? 1 : 0;
  std::printf("tick samples: %zu untraced, %zu traced; %" PRId64
              " above p99\n",
              rs.untraced_ms.size(), rs.traced_ms.size(), above);

  std::vector<Metric> m;
  if (!args.trace) {
    double sum_ms = 0;
    for (double v : rs.untraced_ms) sum_ms += v;
    m.push_back({"tick_p50_ms", Median(rs.untraced_ms), "ms"});
    m.push_back({"tick_p99_ms", p99, "ms"});
    m.push_back({"ticks_per_s",
                 sum_ms > 0 ? 1000.0 * static_cast<double>(
                                           rs.untraced_ms.size()) /
                                  sum_ms
                            : 0.0,
                 "1/s"});
    m.push_back({"setup_s", Median(setup_s), "s"});
    m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  } else {
    const double n = counts.ticks > 0 ? static_cast<double>(counts.ticks) : 1;
    auto per_tick = [n](int64_t v) { return static_cast<double>(v) / n; };
    auto stat = [&](const char* name, auto field) {
      m.push_back({name, drain.Stat(field).first, "us"});
    };
    auto mean = [&](const char* name, auto field) {
      m.push_back({name, drain.Stat(field).second, "us"});
    };
    m.push_back({"lang.compile_ms", Median(create_ms), "ms"});
    m.push_back({"storage.populate_ms", Median(populate_ms), "ms"});
    m.push_back({"exec.warmup_ms", Median(warmup_ms), "ms"});
    stat("host.input_us", [](const TickLayers& r) { return r.input; });
    stat("engine.facade_us", [](const TickLayers& r) { return r.facade; });
    stat("exec.select_us", [](const TickLayers& r) { return r.select; });
    stat("opt.siteprep_us", [](const TickLayers& r) { return r.siteprep; });
    mean("opt.siteprep_mean_us",
         [](const TickLayers& r) { return r.siteprep; });
    stat("exec.query_us", [](const TickLayers& r) { return r.query; });
    stat("ra.eval_us", [](const TickLayers& r) { return r.eval; });
    stat("index.probe_us", [](const TickLayers& r) { return r.probe; });
    stat("exec.merge_us", [](const TickLayers& r) { return r.merge; });
    stat("storage.finalize_sets_us",
         [](const TickLayers& r) { return r.finalize; });
    stat("update.update_us", [](const TickLayers& r) { return r.update; });
    mean("update.update_mean_us",
         [](const TickLayers& r) { return r.update; });
    // Async work lands on one tick per order period, so its per-tick p50
    // is ~0; the async timings are per-tick means instead.
    mean("async.install_us", [](const TickLayers& r) { return r.install; });
    mean("async.worker_busy_us",
         [](const TickLayers& r) { return r.worker_busy; });
    mean("async.inline_run_us",
         [](const TickLayers& r) { return r.inline_run; });
    stat("shard.run_us", [](const TickLayers& r) { return r.shard_run; });
    stat("shard.barrier_us", [](const TickLayers& r) { return r.barrier; });
    stat("shard.mailbox_replay_us",
         [](const TickLayers& r) { return r.replay; });
    stat("telemetry.unattributed_us",
         [](const TickLayers& r) { return r.total_self; });
    // Registry (recorded while armed) and TickStats timings of the traced
    // ticks.
    const sgl::MetricsSnapshot snap = tel->metrics().Snapshot();
    const sgl::HistogramSnapshot* stall = snap.Find("barrier.stall_us");
    m.push_back({"shard.barrier_stall_us",
                 stall != nullptr && stall->count > 0 ? stall->Percentile(50)
                                                      : 0.0,
                 "us"});
    m.push_back({"index.build_us", Median(index_build_us), "us"});
    m.push_back({"index.build_mean_us", Mean(index_build_us), "us"});
    m.push_back({"async.job_wait_us", Mean(job_wait_us), "us"});
    m.push_back({"ra.outer_rows", per_tick(counts.outer_rows), "count"});
    m.push_back({"ra.candidates", per_tick(counts.candidates), "count"});
    m.push_back({"ra.matches", per_tick(counts.matches), "count"});
    m.push_back({"ra.effects", per_tick(counts.effects), "count"});
    m.push_back({"ra.match_ratio",
                 counts.candidates > 0
                     ? static_cast<double>(counts.matches) /
                           static_cast<double>(counts.candidates)
                     : 0.0,
                 "ratio"});
    m.push_back({"vm.programs", per_tick(counts.vm_programs), "count"});
    m.push_back({"vm.fallbacks", per_tick(counts.vm_fallbacks), "count"});
    m.push_back({"txn.issued", per_tick(counts.txn_issued), "count"});
    m.push_back({"txn.committed", per_tick(counts.txn_committed), "count"});
    m.push_back({"txn.aborted", per_tick(counts.txn_aborted), "count"});
    m.push_back({"txn.commit_ratio",
                 counts.txn_issued > 0
                     ? static_cast<double>(counts.txn_committed) /
                           static_cast<double>(counts.txn_issued)
                     : 0.0,
                 "ratio"});
    m.push_back(
        {"async.jobs_submitted", per_tick(counts.jobs_submitted), "count"});
    m.push_back(
        {"async.jobs_installed", per_tick(counts.jobs_installed), "count"});
    m.push_back({"async.fallback_runs", fallback_per_tick, "count"});
    m.push_back({"shard.cross_records", cross_records_per_tick, "count"});
    m.push_back({"shard.imbalance_bp", Mean(imbalance_bp), "bp"});
    m.push_back({"exec.allocs_per_tick", per_tick(counts.allocs), "count"});
    m.push_back({"exec.bytes_per_tick", per_tick(counts.bytes), "bytes"});
    m.push_back(
        {"index.memory_bytes", per_tick(counts.index_memory), "bytes"});
    m.push_back({"telemetry.records_per_tick",
                 per_tick(counts.recorder_records), "count"});
    m.push_back({"telemetry.dropped_records",
                 static_cast<double>(counts.recorder_dropped), "count"});
    m.push_back({"telemetry.dropped_spans",
                 static_cast<double>(tel->dropped_spans()), "count"});
    const double p50_untraced = Median(rs.untraced_ms);
    const double p50_traced = Median(rs.traced_ms);
    m.push_back({"trace.overhead_pct",
                 p50_untraced > 0 ? (p50_traced / p50_untraced - 1.0) * 100.0
                                  : 0.0,
                 "%"});
  }
  PrintResult(rs.failed == 0 && rs.attempted > 0, rs.attempted, rs.failed,
              m);
  return 0;
}

// --- Self-test: checksums against the scalar oracle ----------------------------

/// Runs `ticks` ticks after set-up and returns the canonical checksum.
Status ChecksumAfter(const std::string& name, uint64_t seed, bool oracle,
                     int ticks, uint64_t* out) {
  std::unique_ptr<Workload> w = MakeWorkload(name, seed, /*small=*/true);
  Instance inst;
  SGL_RETURN_IF_ERROR(SetUp(w.get(), false, oracle, &inst));
  int64_t step = w->warmup_ticks();
  for (int i = 0; i < ticks; ++i, ++step) {
    double ms = 0;
    if (!RunOneTick(w.get(), inst.engine.get(), step, nullptr, &ms)) {
      return Status::Internal(name + ": tick failed");
    }
  }
  *out = sgl::CanonicalWorldChecksum(inst.engine->world());
  return Status::OK();
}

int SelfTest(uint64_t seed) {
  int failures = 0;
  for (const char* name : kWorkloads) {
    const int ticks = 3 * kArmiesPeriod;
    uint64_t a = 0, b = 0, oracle = 0;
    Status st = ChecksumAfter(name, seed, false, ticks, &a);
    if (st.ok()) st = ChecksumAfter(name, seed, false, ticks, &b);
    if (st.ok()) st = ChecksumAfter(name, seed, true, ticks, &oracle);
    const bool pass = st.ok() && a == b && a == oracle;
    std::printf("%-16s fast 0x%016" PRIx64 " repeat 0x%016" PRIx64
                " oracle 0x%016" PRIx64 "  %s%s\n",
                name, a, b, oracle, pass ? "ok" : "MISMATCH",
                st.ok() ? "" : (" " + st.ToString()).c_str());
    if (!pass) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--selftest") {
      a->selftest = true;
    } else if (k == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a->seconds = std::atof(argv[++i]);
    } else if (k == "--trace" && has_value) {
      a->trace = std::atoi(argv[++i]) != 0;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", k.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.selftest) return SelfTest(args.seed);
  if (MakeWorkload(args.workload, args.seed, false) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; one of:",
                 args.workload.c_str());
    for (const char* name : kWorkloads) std::fprintf(stderr, " %s", name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  return Run(args);
}
