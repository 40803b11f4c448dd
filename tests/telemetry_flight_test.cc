// Flight recorder + provenance tests (src/telemetry/flight_recorder.h,
// src/telemetry/provenance.h, black-box dumps in src/debug/checkpoint_file):
//
//   * WhyDidChange / ExplainTick verified differentially — against an
//     independent watch-all EffectTracer stream on fuzzed random programs,
//     and against a brute-force linear scan of the recorder's own frames
//     (the CSR index path vs no index at all).
//   * Transaction write-back chains on the contested-market workload
//     (is_txn steps carrying intent order keys).
//   * After- and before-values against an eager per-record resolution,
//     with despawns and spawns between ticks.
//   * Chain determinism: serialized chains bit-identical across
//     {serial, 4-thread, 4-thread × 64-row morsels} and across eval /
//     probe modes, and a market run's provenance tail byte-identical at 1
//     and 4 threads — nothing in a record depends on the topology.
//   * Eviction honesty: a wrapped-out tick reports kEvicted, a frame that
//     dropped records reports kTruncated — never a wrong chain.
//   * Capture order: multi-lane frames equal an independent tracer record
//     for record; the provenance tail never depends on a slot's history.
//   * Black-box dumps: fault-fire trigger, cooldown suppression, rotation,
//     corruption rejection with fallback-to-previous-good, Chrome-trace
//     JSON round-trip of the dump payload, the never-crashed vs
//     crash/recover differential producing byte-identical dump files, and
//     the provenance section's bytes pinned by hash.
//   * The armed steady-state contract: allocs_per_tick == 0 with the
//     recorder capturing every effect write (serial / threaded / small
//     morsels,
//     with and without a user tracer sharing the fan-out), and world
//     checksums bit-identical armed vs disarmed.
//   * Satellites: counter ("C") lanes in DumpChromeTrace,
//     DescribeSitesJson round-trip, MetricsRegistry::Reset.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/alloc_hook.h"
#include "src/common/rng.h"
#include "src/debug/checkpoint.h"
#include "src/debug/checkpoint_file.h"
#include "src/debug/tracer.h"
#include "src/engine/engine.h"
#include "src/fault/fault_injector.h"
#include "src/sim/market.h"
#include "src/sim/rts.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/provenance.h"
#include "src/telemetry/telemetry.h"

namespace sgl {
namespace {

// --- helpers ---------------------------------------------------------------

// A fresh per-test scratch directory under the gtest temp root.
std::string FreshDir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("sgl_flight_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  EXPECT_TRUE(out.good()) << path;
}

EngineOptions RecorderOpts(FlightRecorder* rec, Telemetry* tel = nullptr,
                           int threads = 1, size_t morsel = 2048) {
  EngineOptions options;
  options.exec.planner.mode = PlanMode::kStaticGrid;
  options.exec.num_threads = threads;
  options.exec.morsel_size = morsel;
  options.exec.telemetry = tel;
  options.exec.recorder = rec;
  return options;
}

std::unique_ptr<Engine> BuildRts(int units, const EngineOptions& options) {
  RtsConfig config;
  config.num_units = units;
  config.clustered = true;
  auto engine = RtsWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

// Minimal JSON parser (same shape as tests/telemetry_test.cc): validates
// syntax and collects every string value keyed "name".
struct MiniJson {
  const std::string& s;
  size_t i = 0;
  bool ok = true;
  std::set<std::string> names;

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
    }
  }
};

void ExpectValidJson(const std::string& json, MiniJson* parser) {
  parser->Value("");
  parser->Skip();
  ASSERT_TRUE(parser->ok) << "invalid JSON near offset " << parser->i;
  EXPECT_EQ(parser->i, json.size()) << "trailing garbage";
}

// --- fuzzed-program generator (modeled on tests/fuzz_equivalence_test) -----

std::string FuzzNumExpr(Rng* rng, const std::vector<std::string>& fields,
                        int depth) {
  if (depth <= 0 || rng->Bernoulli(0.3)) {
    if (rng->Bernoulli(0.5)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", rng->Uniform(-4, 4));
      return buf;
    }
    return fields[rng->NextBelow(fields.size())];
  }
  switch (rng->NextBelow(4)) {
    case 0:
      return "(" + FuzzNumExpr(rng, fields, depth - 1) + " + " +
             FuzzNumExpr(rng, fields, depth - 1) + ")";
    case 1:
      return "(" + FuzzNumExpr(rng, fields, depth - 1) + " * " +
             FuzzNumExpr(rng, fields, depth - 1) + ")";
    case 2:
      return "min(" + FuzzNumExpr(rng, fields, depth - 1) + ", " +
             FuzzNumExpr(rng, fields, depth - 1) + ")";
    default:
      return "clamp(" + FuzzNumExpr(rng, fields, depth - 1) + ", -9, 9)";
  }
}

std::string FuzzBoolExpr(Rng* rng, const std::vector<std::string>& fields) {
  const char* cmps[] = {"<", "<=", ">", ">=", "==", "!="};
  return "(" + FuzzNumExpr(rng, fields, 1) + " " + cmps[rng->NextBelow(6)] +
         " " + FuzzNumExpr(rng, fields, 1) + ")";
}

// A random well-typed program: numeric state + effects, guarded assigns,
// cross-entity writes through a ref, and (usually) an accum loop with a box
// predicate, so chains span plan-level and site-attributed records.
std::string FuzzProgram(Rng* rng) {
  const int nfields = 3 + static_cast<int>(rng->NextBelow(2));
  std::vector<std::string> fields;
  std::string src = "class Thing {\n  state:\n";
  for (int f = 0; f < nfields; ++f) {
    std::string name = "s" + std::to_string(f);
    fields.push_back(name);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "    number %s = %.1f;\n", name.c_str(),
                  rng->Uniform(-5, 5));
    src += buf;
  }
  src += "    ref<Thing> pal = null;\n";
  src += "  effects:\n";
  const char* combs[] = {"sum", "avg", "min", "max", "last"};
  std::vector<std::string> effects;
  for (int f = 0; f < nfields; ++f) {
    std::string name = "e" + std::to_string(f);
    effects.push_back(name);
    src += "    number " + name + " : " + combs[rng->NextBelow(5)] + ";\n";
  }
  src += "  update:\n";
  for (int f = 0; f < nfields; ++f) {
    src += "    " + fields[static_cast<size_t>(f)] + " = clamp(" +
           fields[static_cast<size_t>(f)] + " + " +
           effects[static_cast<size_t>(f)] + ", -50, 50);\n";
  }
  src += "}\n\nscript Fuzz for Thing {\n";
  const int stmts = 2 + static_cast<int>(rng->NextBelow(3));
  for (int s = 0; s < stmts; ++s) {
    std::string target = effects[rng->NextBelow(effects.size())];
    std::string value = FuzzNumExpr(rng, fields, 2);
    switch (rng->NextBelow(3)) {
      case 0:
        src += "  " + target + " <- " + value + ";\n";
        break;
      case 1:
        src += "  if (" + FuzzBoolExpr(rng, fields) + ") { " + target +
               " <- " + value + "; }\n";
        break;
      default:
        src += "  if (pal != null) { pal." + target + " <- " + value +
               "; }\n";
        break;
    }
  }
  if (rng->Bernoulli(0.7)) {
    std::string dim = fields[rng->NextBelow(fields.size())];
    char radius[32];
    std::snprintf(radius, sizeof(radius), "%.1f", rng->Uniform(1, 8));
    src += "  accum number acc with sum over Thing w from Thing {\n";
    src += "    if (w." + dim + " >= " + dim + " - " + radius + " && w." +
           dim + " <= " + dim + " + " + radius + ") {\n";
    src += "      acc <- w." + fields[rng->NextBelow(fields.size())] +
           ";\n";
    src += "      w." + effects[rng->NextBelow(effects.size())] +
           " <- 0.1;\n";
    src += "    }\n  } in {\n";
    src += "    if (acc > 1) { " + effects[rng->NextBelow(effects.size())] +
           " <- clamp(acc, -3, 3); }\n  }\n";
  }
  src += "}\n";
  return src;
}

std::unique_ptr<Engine> BuildFuzz(const std::string& src,
                                  const EngineOptions& options,
                                  uint64_t spawn_seed) {
  auto engine = Engine::Create(src, options);
  EXPECT_TRUE(engine.ok()) << engine.status() << "\nprogram:\n" << src;
  if (!engine.ok()) return nullptr;
  Rng rng(spawn_seed);
  std::vector<EntityId> ids;
  for (int i = 0; i < 40; ++i) {
    auto id = (*engine)->Spawn("Thing", {});
    EXPECT_TRUE(id.ok());
    ids.push_back(*id);
    for (int f = 0;; ++f) {
      std::string field = "s" + std::to_string(f);
      auto v = (*engine)->Get(*id, field);
      if (!v.ok()) break;
      EXPECT_TRUE((*engine)
                      ->Set(*id, field, Value::Number(rng.Uniform(-10, 10)))
                      .ok());
    }
  }
  for (size_t i = 0; i + 1 < ids.size(); i += 3) {
    EXPECT_TRUE((*engine)->Set(ids[i], "pal", Value::Ref(ids[i + 1])).ok());
  }
  return std::move(engine).value();
}

// Serializes a chain into a comparable/loggable string.
std::string ChainToString(const WhyResult& why) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf), "t%lld e%lld f%d %s:",
                static_cast<long long>(why.tick),
                static_cast<long long>(why.entity), why.field,
                ProvStatusName(why.status));
  out += buf;
  for (const ProvStep& s : why.steps) {
    std::snprintf(buf, sizeof(buf),
                  " [site=%d assign=%d key=%llu txn=%lld "
                  "src=%lld/%lld v=%.17g]",
                  s.site, s.assign_id,
                  static_cast<unsigned long long>(s.order_key),
                  static_cast<long long>(s.is_txn ? s.txn : -1),
                  static_cast<long long>(s.src_outer),
                  static_cast<long long>(s.src_inner), s.contrib_num);
    out += buf;
  }
  if (why.after.known) {
    std::snprintf(buf, sizeof(buf), " after=%.17g/%lld", why.after.num,
                  static_cast<long long>(why.after.ref));
    out += buf;
  }
  if (why.before.known) {
    std::snprintf(buf, sizeof(buf), " before=%.17g", why.before.num);
    out += buf;
  }
  return out;
}

// --- eager after-value reference --------------------------------------------

// The after-value of record `r` resolved eagerly against `world`, as the
// recorder once did for every record at capture: one World::Find plus one
// effect-buffer or state-column read. An independent reference for the
// recorder's per-pair after-values; only meaningful while `world` is still
// at the end of the record's tick.
ProvValue EagerAfter(const World& world, const FrameRecord& r) {
  ProvValue v;
  const World::Locator* loc = world.Find(r.target);
  if (loc == nullptr) return v;
  const EntityTable& table = world.table(loc->cls);
  if (loc->row >= static_cast<RowIdx>(table.size())) return v;
  const ClassDef& cls = table.cls();
  if (r.is_txn) {
    if (r.field < 0 ||
        static_cast<size_t>(r.field) >= cls.state_fields().size()) {
      return v;
    }
    v.kind = cls.state_field(r.field).type.kind;
    switch (v.kind) {
      case TypeKind::kNumber:
        v.num = table.Num(r.field)[loc->row];
        break;
      case TypeKind::kBool:
        v.b = table.BoolCol(r.field)[loc->row] != 0;
        break;
      case TypeKind::kRef:
        v.ref = table.RefCol(r.field)[loc->row];
        break;
      case TypeKind::kSet:
        v.set_size =
            static_cast<int64_t>(table.SetCol(r.field)[loc->row].size());
        break;
    }
  } else {
    if (r.field < 0 ||
        static_cast<size_t>(r.field) >= cls.effect_fields().size()) {
      return v;
    }
    const EffectBuffer& eb = world.effects(loc->cls);
    if (!eb.Assigned(r.field, loc->row)) return v;
    v.kind = cls.effect_field(r.field).type.kind;
    switch (v.kind) {
      case TypeKind::kNumber:
        v.num = eb.FinalNumber(r.field, loc->row);
        break;
      case TypeKind::kBool:
        v.b = eb.FinalBool(r.field, loc->row);
        break;
      case TypeKind::kRef:
        v.ref = eb.FinalRef(r.field, loc->row);
        break;
      case TypeKind::kSet:
        v.set_size =
            static_cast<int64_t>(eb.FinalSet(r.field, loc->row).size());
        break;
    }
  }
  v.known = true;
  return v;
}

std::string DescribeValue(const ProvValue& v) {
  if (!v.known) return "unknown";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "kind=%d num=%.17g b=%d ref=%lld set=%lld",
                static_cast<int>(v.kind), v.num, v.b ? 1 : 0,
                static_cast<long long>(v.ref),
                static_cast<long long>(v.set_size));
  return buf;
}

using PairKey = std::tuple<Tick, EntityId, FieldIdx>;

// Records the eager after-value of every (target, field) the newest frame
// wrote, into `ref`. Call right after the tick, before the world changes.
// Frames are canonical, so the last record of a pair — the one
// WhyDidChange reads — is the last one assigned.
void RecordEagerAfters(const FlightRecorder& rec, const World& world,
                       std::map<PairKey, ProvValue>* ref) {
  const Tick t = rec.newest_tick();
  const TickFrame* f = rec.frame(t);
  ASSERT_NE(f, nullptr);
  for (size_t i = 0; i < f->num_records; ++i) {
    const FrameRecord& r = f->records[i];
    (*ref)[{t, r.target, r.field}] = EagerAfter(world, r);
  }
}

// --- frame capture basics --------------------------------------------------

// Field-for-field TickStats equality, site rows included. The alloc
// counters are skipped: a frame copies the record before the executor
// closes the allocation window.
void ExpectSameTickStats(const TickStats& want, const TickStats& got) {
#define SGL_EXPECT_SAME(f) EXPECT_EQ(got.f, want.f) << #f
  SGL_EXPECT_SAME(tick);
  SGL_EXPECT_SAME(query_effect_micros);
  SGL_EXPECT_SAME(merge_micros);
  SGL_EXPECT_SAME(update_micros);
  SGL_EXPECT_SAME(index_build_micros);
  SGL_EXPECT_SAME(index_memory_bytes);
  SGL_EXPECT_SAME(total_micros);
  SGL_EXPECT_SAME(vm_programs);
  SGL_EXPECT_SAME(vm_compile_micros);
  SGL_EXPECT_SAME(vm_fallbacks);
  SGL_EXPECT_SAME(probe_micros);
  SGL_EXPECT_SAME(simd_lanes_used);
  SGL_EXPECT_SAME(jobs_submitted);
  SGL_EXPECT_SAME(jobs_installed);
  SGL_EXPECT_SAME(jobs_in_flight);
  SGL_EXPECT_SAME(job_wait_micros);
  SGL_EXPECT_SAME(txn.issued);
  SGL_EXPECT_SAME(txn.committed);
  SGL_EXPECT_SAME(txn.aborted);
  ASSERT_EQ(got.sites.size(), want.sites.size());
  for (size_t i = 0; i < want.sites.size(); ++i) {
    SGL_EXPECT_SAME(sites[i].site);
    SGL_EXPECT_SAME(sites[i].strategy);
    SGL_EXPECT_SAME(sites[i].outer_rows);
    SGL_EXPECT_SAME(sites[i].candidates);
    SGL_EXPECT_SAME(sites[i].matches);
    SGL_EXPECT_SAME(sites[i].micros);
    SGL_EXPECT_SAME(sites[i].probe_micros);
    SGL_EXPECT_SAME(sites[i].effects);
  }
#undef SGL_EXPECT_SAME
}

TEST(FlightRecorder, CapturesFramesScalarsAndSites) {
  FlightRecorderOptions fo;
  fo.ring_ticks = 16;
  FlightRecorder rec(fo);
  rec.set_armed(true);
  Telemetry tel;
  tel.set_armed(true);
  auto engine = BuildRts(256, RecorderOpts(&rec, &tel, /*threads=*/4,
                                           /*morsel=*/64));
  for (int t = 0; t < 6; ++t) ASSERT_TRUE(engine->Tick().ok());

  EXPECT_EQ(rec.frames_captured(), 6);
  EXPECT_EQ(rec.evicted_frames(), 0);
  const Tick newest = rec.newest_tick();
  ASSERT_GE(newest, 0);
  EXPECT_EQ(newest - rec.oldest_tick(), 5);
  const TickFrame* f = rec.frame(newest);
  ASSERT_NE(f, nullptr);
  EXPECT_GT(f->num_records, 0u) << "battle damage must be recorded";
  EXPECT_FALSE(f->stats.sites.empty());
  EXPECT_GE(f->stats.total_micros, 0);
  // Canonical order within the frame.
  for (size_t i = 1; i < f->num_records; ++i) {
    EXPECT_FALSE(TraceRecordCanonicalLess(f->records[i],
                                          f->records[i - 1]))
        << "frame records out of canonical order at " << i;
  }

  ProvenanceIndex prov(&rec);
  const ExplainResult ex = prov.ExplainTick(newest);
  ASSERT_EQ(ex.status, ProvStatus::kOk);
  EXPECT_EQ(ex.num_records, static_cast<int64_t>(f->num_records));
  int64_t site_records = 0;
  for (const ExplainSiteRow& r : ex.sites) site_records += r.records;
  EXPECT_EQ(site_records, ex.num_records)
      << "per-site attribution must partition the record count";

  // One tick reads the same everywhere: the executor's record, the frame's
  // copy, ExplainTick's copy, and the registry's gauges.
  const TickStats& live = engine->last_stats();
  ASSERT_EQ(live.tick, newest);
  ExpectSameTickStats(live, f->stats);
  ExpectSameTickStats(live, ex.stats);
  EXPECT_EQ(f->stats.allocs_per_tick, 0);
  EXPECT_EQ(f->stats.bytes_per_tick, 0);
  const MetricsSnapshot snap = tel.metrics().Snapshot();
  EXPECT_EQ(snap.Gauge("jobs.in_flight", -1), live.jobs_in_flight);
  EXPECT_EQ(snap.Gauge("vm.programs", -1), live.vm_programs);
}

// Several worker lanes per tick (4 threads, 64-row morsels): the
// capture appends lanes after the swapped-in first one and must sort them
// into the exact order an independent watch-all tracer reports.
TEST(FlightRecorder, MultiLaneFramesMatchIndependentTracer) {
  FlightRecorderOptions fo;
  fo.ring_ticks = 16;
  FlightRecorder rec(fo);
  rec.set_armed(true);
  EngineOptions options = RecorderOpts(&rec, nullptr, /*threads=*/4,
                                       /*morsel=*/64);
  auto engine = BuildRts(512, options);
  EffectTracer reference;
  reference.set_watch_all(true);
  engine->SetTracer(&reference);
  ASSERT_TRUE(engine->RunTicks(10).ok());

  std::map<Tick, std::vector<TraceRecord>> by_tick;
  for (const TraceRecord& r : reference.Records()) {
    by_tick[r.tick].push_back(r);
  }
  ASSERT_EQ(by_tick.size(), 10u);
  for (const auto& [tick, expect] : by_tick) {
    const TickFrame* f = rec.frame(tick);
    ASSERT_NE(f, nullptr) << "tick " << tick;
    EXPECT_EQ(f->dropped_records, 0);
    ASSERT_EQ(f->num_records, expect.size()) << "tick " << tick;
    for (size_t i = 0; i < expect.size(); ++i) {
      const TraceRecord& want = expect[i];
      const FrameRecord& got = f->records[i];
      SCOPED_TRACE(testing::Message() << "tick " << tick << " record " << i);
      ASSERT_EQ(got.target, want.target);
      EXPECT_EQ(got.target_cls, want.target_cls);
      ASSERT_EQ(got.field, want.field);
      ASSERT_EQ(got.assign_id, want.assign_id);
      ASSERT_EQ(got.order_key, want.order_key);
      EXPECT_EQ(got.is_txn, want.prov.txn >= 0);
      EXPECT_EQ(got.site, want.prov.site);
      EXPECT_EQ(got.src_outer, want.prov.src_outer);
      EXPECT_EQ(got.src_inner, want.prov.src_inner);
      ASSERT_EQ(static_cast<ValueKind>(got.contrib_kind), ValueKind::kNumber);
      EXPECT_EQ(got.contrib.num, want.value.AsNumber());
    }
  }
}

// --- differential: index path vs independent stream ------------------------

TEST(Provenance, WhyMatchesIndependentTracerOnFuzzedPrograms) {
  for (uint64_t seed : {11u, 23u, 57u}) {
    Rng rng(seed);
    const std::string src = FuzzProgram(&rng);
    FlightRecorderOptions fo;
    fo.ring_ticks = 16;
    FlightRecorder rec(fo);
    rec.set_armed(true);
    auto engine = BuildFuzz(src, RecorderOpts(&rec), seed * 7 + 1);
    ASSERT_NE(engine, nullptr);
    // Independent reference stream: a user watch-all tracer fed by the
    // same fan-out but drained/sorted by a different code path.
    EffectTracer reference;
    reference.set_watch_all(true);
    engine->SetTracer(&reference);
    const int kTicks = 10;
    ASSERT_TRUE(engine->RunTicks(kTicks).ok());

    const std::vector<TraceRecord> stream = reference.Records();
    ASSERT_FALSE(stream.empty()) << "program wrote nothing:\n" << src;

    // Group the reference stream by (tick, target, field).
    std::map<std::tuple<Tick, EntityId, FieldIdx>, std::vector<TraceRecord>>
        groups;
    for (const TraceRecord& r : stream) {
      groups[{r.tick, r.target, r.field}].push_back(r);
    }

    ProvenanceIndex prov(&rec);
    size_t checked = 0;
    for (const auto& [key, expect] : groups) {
      const auto [tick, target, field] = key;
      const WhyResult why = prov.WhyDidChange(target, field, tick);
      ASSERT_EQ(why.status, ProvStatus::kOk)
          << ChainToString(why) << "\nprogram:\n" << src;
      // The fuzz grammar has no atomic regions, so the recorder stream for
      // this (tick, entity, field) must equal the reference exactly.
      ASSERT_EQ(why.steps.size(), expect.size()) << ChainToString(why);
      for (size_t i = 0; i < expect.size(); ++i) {
        const TraceRecord& r = expect[i];
        const ProvStep& s = why.steps[i];
        EXPECT_EQ(s.site, r.prov.site);
        EXPECT_EQ(s.assign_id, r.assign_id);
        EXPECT_EQ(s.order_key, r.order_key);
        EXPECT_EQ(s.src_outer, r.prov.src_outer);
        EXPECT_EQ(s.src_inner, r.prov.src_inner);
        EXPECT_FALSE(s.is_txn);
        ASSERT_EQ(s.contrib_kind, ValueKind::kNumber);
        EXPECT_EQ(s.contrib_num, r.value.AsNumber());
      }
      EXPECT_TRUE(why.after.known);
      ++checked;
    }
    EXPECT_GT(checked, 0u);

    // ExplainTick totals agree with the reference stream per tick.
    std::map<Tick, int64_t> per_tick;
    for (const TraceRecord& r : stream) ++per_tick[r.tick];
    for (const auto& [tick, count] : per_tick) {
      const ExplainResult ex = prov.ExplainTick(tick);
      ASSERT_EQ(ex.status, ProvStatus::kOk);
      EXPECT_EQ(ex.num_records, count) << "tick " << tick;
    }

    // Pairs never written in a recorded tick answer kNoWrites, and the
    // before-value chains to the previous tick's after-value.
    const Tick probe_tick = rec.newest_tick();
    const WhyResult none =
        prov.WhyDidChange(static_cast<EntityId>(1 << 20), 0, probe_tick);
    EXPECT_EQ(none.status, ProvStatus::kNoWrites);
    int before_checked = 0;
    for (const auto& [key, expect] : groups) {
      const auto [tick, target, field] = key;
      if (tick <= rec.oldest_tick()) continue;
      if (groups.count({tick - 1, target, field}) == 0) continue;
      const WhyResult cur = prov.WhyDidChange(target, field, tick);
      const WhyResult prev = prov.WhyDidChange(target, field, tick - 1);
      if (!cur.before.known || !prev.after.known) continue;
      EXPECT_EQ(cur.before.num, prev.after.num)
          << ChainToString(cur) << "\n" << ChainToString(prev);
      if (++before_checked >= 32) break;
    }
    EXPECT_GT(before_checked, 0);
  }
}

// The CSR/binary-search path vs a brute-force linear scan of the same
// frames — on every (entity, field) the newest frame wrote.
TEST(Provenance, IndexMatchesBruteForceLinearScan) {
  FlightRecorderOptions fo;
  fo.ring_ticks = 8;
  FlightRecorder rec(fo);
  rec.set_armed(true);
  auto engine = BuildRts(256, RecorderOpts(&rec));
  ASSERT_TRUE(engine->RunTicks(10).ok());

  ProvenanceIndex prov(&rec);
  const Tick t = rec.newest_tick();
  const TickFrame* f = rec.frame(t);
  ASSERT_NE(f, nullptr);
  std::map<PairKey, ProvValue> eager;
  RecordEagerAfters(rec, engine->world(), &eager);
  std::set<std::pair<EntityId, FieldIdx>> keys;
  for (size_t i = 0; i < f->num_records; ++i) {
    keys.emplace(f->records[i].target, f->records[i].field);
  }
  ASSERT_FALSE(keys.empty());
  for (const auto& [target, field] : keys) {
    const WhyResult why = prov.WhyDidChange(target, field, t);
    ASSERT_EQ(why.status, ProvStatus::kOk);
    // Brute force: scan the frame in canonical order.
    std::vector<const FrameRecord*> expect;
    for (size_t i = 0; i < f->num_records; ++i) {
      const FrameRecord& fr = f->records[i];
      if (fr.target == target && fr.field == field) {
        expect.push_back(&fr);
      }
    }
    ASSERT_EQ(why.steps.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(why.steps[i].order_key, expect[i]->order_key);
      EXPECT_EQ(why.steps[i].assign_id, expect[i]->assign_id);
      EXPECT_EQ(why.steps[i].site, expect[i]->site);
    }
    EXPECT_EQ(DescribeValue(why.after),
              DescribeValue(eager.at({t, target, field})));
  }
}

// --- transaction write-back chains -----------------------------------------

TEST(Provenance, TxnWritebackChainsOnContestedMarket) {
  FlightRecorderOptions fo;
  fo.ring_ticks = 16;
  FlightRecorder rec(fo);
  rec.set_armed(true);
  MarketConfig config;
  config.num_traders = 32;
  config.num_items = 64;
  auto engine = MarketWorkload::Build(config, RecorderOpts(&rec));
  ASSERT_TRUE(engine.ok()) << engine.status();
  Rng rng(21);
  int64_t committed = 0;
  for (int t = 0; t < 8; ++t) {
    MarketWorkload::AssignWants(engine->get(), config, &rng);
    ASSERT_TRUE((*engine)->Tick().ok());
    committed += (*engine)->last_stats().txn.committed;
  }
  ASSERT_GT(committed, 0) << "contested market must commit purchases";

  // Find transaction write-back records in the ring and check their chains.
  ProvenanceIndex prov(&rec);
  int txn_chains = 0;
  for (Tick t = rec.oldest_tick(); t <= rec.newest_tick(); ++t) {
    const TickFrame* f = rec.frame(t);
    ASSERT_NE(f, nullptr);
    std::set<std::pair<EntityId, FieldIdx>> txn_keys;
    for (size_t i = 0; i < f->num_records; ++i) {
      if (f->records[i].is_txn) {
        txn_keys.emplace(f->records[i].target, f->records[i].field);
      }
    }
    for (const auto& [target, field] : txn_keys) {
      const WhyResult why = prov.WhyDidChange(target, field, t);
      ASSERT_EQ(why.status, ProvStatus::kOk);
      bool saw_txn = false;
      for (const ProvStep& s : why.steps) {
        if (!s.is_txn) continue;
        saw_txn = true;
        EXPECT_GE(s.txn, 0);
        EXPECT_NE(s.src_outer, kNullEntity)
            << "txn steps must name the issuing row";
      }
      EXPECT_TRUE(saw_txn);
      // Write-backs resolve against state columns after UPDATE.
      EXPECT_TRUE(why.after.known) << ChainToString(why);
      ++txn_chains;
    }
  }
  EXPECT_GT(txn_chains, 0) << "no transaction write-backs were recorded";
}

// --- after-values against the eager reference ------------------------------

// Runs `tick` (one engine tick plus its inputs) `ticks` times, recording the
// eager after-value reference after each; between ticks `churn` despawns
// and spawns. Then checks every in-ring frame's WhyDidChange after- and
// before-values against the reference.
void ExpectAftersMatchEager(FlightRecorder* rec, Engine* engine, int ticks,
                            const std::function<void(int)>& tick,
                            const std::function<void()>& churn,
                            const std::string& what) {
  SCOPED_TRACE(what);
  std::map<PairKey, ProvValue> eager;
  for (int i = 0; i < ticks; ++i) {
    tick(i);
    RecordEagerAfters(*rec, engine->world(), &eager);
    if (i + 1 < ticks) churn();
  }
  ProvenanceIndex prov(rec);
  const Tick oldest = rec->oldest_tick();
  ASSERT_GE(oldest, 0);
  size_t checked = 0, known = 0, befores = 0;
  for (const auto& [key, after] : eager) {
    const auto [t, target, field] = key;
    if (t < oldest) continue;
    const WhyResult why = prov.WhyDidChange(target, field, t);
    ASSERT_EQ(why.status, ProvStatus::kOk) << ChainToString(why);
    EXPECT_EQ(DescribeValue(why.after), DescribeValue(after))
        << ChainToString(why);
    // Before: the latest earlier in-ring tick that wrote the pair.
    ProvValue before;
    for (Tick u = t - 1; u >= oldest; --u) {
      const auto it = eager.find({u, target, field});
      if (it == eager.end()) continue;
      before = it->second;
      break;
    }
    EXPECT_EQ(DescribeValue(why.before), DescribeValue(before))
        << ChainToString(why);
    ++checked;
    known += after.known ? 1 : 0;
    befores += before.known ? 1 : 0;
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(known, 0u);
  EXPECT_GT(befores, 0u);
}

TEST(Provenance, AfterValuesMatchEagerReference) {
  // RTS, serial and 4 threads with 64-row morsels: each tick despawns a
  // unit the last frame wrote and spawns one inside the battle.
  for (int threads : {1, 4}) {
    FlightRecorderOptions fo;
    fo.ring_ticks = 8;
    FlightRecorder rec(fo);
    rec.set_armed(true);
    EngineOptions options = RecorderOpts(&rec, nullptr, threads);
    options.exec.morsel_size = 64;
    auto engine = BuildRts(256, options);
    auto churn = [&] {
      const TickFrame* f = rec.frame(rec.newest_tick());
      ASSERT_TRUE(f != nullptr && f->num_records > 0);
      const EntityId victim = f->records[f->num_records / 2].target;
      const Value x = *engine->Get(victim, "x");
      const Value y = *engine->Get(victim, "y");
      ASSERT_TRUE(engine->Despawn(victim).ok());
      ASSERT_TRUE(engine->Spawn("Unit", {{"x", x}, {"y", y}}).ok());
    };
    ExpectAftersMatchEager(
        &rec, engine.get(), 10,
        [&](int) { ASSERT_TRUE(engine->Tick().ok()); }, churn,
        "rts threads=" + std::to_string(threads));
  }

  // Contested market: transaction write-backs (state-field after-values).
  {
    FlightRecorderOptions fo;
    fo.ring_ticks = 8;
    FlightRecorder rec(fo);
    rec.set_armed(true);
    MarketConfig config;
    config.num_traders = 32;
    config.num_items = 64;
    auto built = MarketWorkload::Build(config, RecorderOpts(&rec));
    ASSERT_TRUE(built.ok()) << built.status();
    Engine* engine = built->get();
    Rng rng(21);
    EntityId next_victim = 3;
    auto churn = [&] {
      ASSERT_TRUE(engine->Despawn(next_victim).ok());
      next_victim += 5;
      ASSERT_TRUE(engine->Spawn("Trader", {}).ok());
    };
    ExpectAftersMatchEager(
        &rec, engine, 10,
        [&](int) {
          MarketWorkload::AssignWants(engine, config, &rng);
          ASSERT_TRUE(engine->Tick().ok());
        },
        churn, "market");
  }

  // Fuzzed programs: plan-level, site-attributed and cross-entity writes.
  for (uint64_t seed : {11u, 23u, 57u}) {
    Rng rng(seed);
    const std::string src = FuzzProgram(&rng);
    FlightRecorderOptions fo;
    fo.ring_ticks = 8;
    FlightRecorder rec(fo);
    rec.set_armed(true);
    auto engine = BuildFuzz(src, RecorderOpts(&rec), seed * 7 + 1);
    ASSERT_NE(engine, nullptr);
    EntityId next_victim = 2;
    auto churn = [&] {
      ASSERT_TRUE(engine->Despawn(next_victim).ok());
      next_victim += 3;
      ASSERT_TRUE(engine->Spawn("Thing", {}).ok());
    };
    ExpectAftersMatchEager(
        &rec, engine.get(), 10,
        [&](int) { ASSERT_TRUE(engine->Tick().ok()); }, churn,
        "fuzz seed=" + std::to_string(seed) + "\n" + src);
  }
}

// --- chain determinism across topologies and modes --------------------------

// Serializes every chain of every in-ring frame.
std::string AllChains(FlightRecorder* rec) {
  ProvenanceIndex prov(rec);
  std::string out;
  for (Tick t = rec->oldest_tick(); t <= rec->newest_tick(); ++t) {
    const TickFrame* f = rec->frame(t);
    if (f == nullptr) continue;
    std::set<std::pair<EntityId, FieldIdx>> keys;
    for (size_t i = 0; i < f->num_records; ++i) {
      keys.emplace(f->records[i].target, f->records[i].field);
    }
    for (const auto& [target, field] : keys) {
      out += ChainToString(prov.WhyDidChange(target, field, t));
      out += '\n';
    }
  }
  return out;
}

TEST(Provenance, ChainsBitIdenticalAcrossTopologiesAndOracle) {
  auto run = [](int threads, size_t morsel, bool interpreted) {
    FlightRecorderOptions fo;
    fo.ring_ticks = 8;
    FlightRecorder rec(fo);
    rec.set_armed(true);
    EngineOptions options = RecorderOpts(&rec, nullptr, threads, morsel);
    options.exec.interpreted = interpreted;
    auto engine = BuildRts(256, options);
    EXPECT_TRUE(engine->RunTicks(10).ok());
    return AllChains(&rec);
  };
  const std::string base = run(1, 2048, false);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(run(4, 2048, false), base) << "4-thread chains diverged";
  EXPECT_EQ(run(4, 64, false), base)
      << "4-thread x 64-row-morsel chains diverged";
  EXPECT_EQ(run(1, 2048, true), base) << "oracle chains diverged";
}

// A contested market's transaction write-backs come from every worker's
// intent log. Their records carry nothing of the worker that issued them,
// so the provenance tail is the same bytes at 1 thread and at 4 threads
// in 8-row morsels, compared as is.
TEST(Provenance, MarketTailBytesIdenticalAcrossThreadCounts) {
  auto tail = [](int threads, size_t morsel) {
    FlightRecorder rec;
    rec.set_armed(true);
    MarketConfig config;
    config.num_traders = 32;
    config.num_items = 64;
    auto market = MarketWorkload::Build(
        config, RecorderOpts(&rec, nullptr, threads, morsel));
    EXPECT_TRUE(market.ok()) << market.status();
    if (!market.ok()) return std::string();
    Rng rng(21);
    int64_t committed = 0;
    for (int t = 0; t < 8; ++t) {
      MarketWorkload::AssignWants(market->get(), config, &rng);
      EXPECT_TRUE((*market)->Tick().ok());
      committed += (*market)->last_stats().txn.committed;
    }
    EXPECT_GT(committed, 0) << "the market must commit purchases";
    std::string out;
    rec.SerializeProvenanceTail(&out);
    return out;
  };
  const std::string serial = tail(1, 2048);
  ASSERT_FALSE(serial.empty());
  EXPECT_TRUE(tail(4, 8) == serial)
      << "the 4-thread provenance tail differs from the serial one";
}

// --- eviction and truncation honesty ---------------------------------------

TEST(Provenance, RingWrapReportsEvictedNeverAWrongChain) {
  FlightRecorderOptions fo;
  fo.ring_ticks = 4;
  FlightRecorder rec(fo);
  rec.set_armed(true);
  auto engine = BuildRts(256, RecorderOpts(&rec));
  ASSERT_TRUE(engine->RunTicks(12).ok());

  EXPECT_EQ(rec.frames_captured(), 12);
  EXPECT_EQ(rec.evicted_frames(), 8);
  EXPECT_EQ(rec.newest_tick() - rec.oldest_tick(), 3);

  ProvenanceIndex prov(&rec);
  const Tick evicted = rec.oldest_tick() - 2;
  ASSERT_GE(evicted, 0);
  const WhyResult why = prov.WhyDidChange(1, 0, evicted);
  EXPECT_EQ(why.status, ProvStatus::kEvicted);
  EXPECT_TRUE(why.steps.empty()) << "an evicted tick must not fake a chain";
  EXPECT_EQ(prov.ExplainTick(evicted).status, ProvStatus::kEvicted);
  // A tick never run is not "evicted" — it was never recorded.
  EXPECT_EQ(prov.ExplainTick(rec.newest_tick() + 50).status,
            ProvStatus::kNotRecorded);
  // In-window ticks still answer.
  EXPECT_EQ(prov.ExplainTick(rec.newest_tick()).status, ProvStatus::kOk);
}

TEST(Provenance, RecordOverflowReportsTruncated) {
  FlightRecorderOptions fo;
  fo.ring_ticks = 4;
  fo.max_records_per_frame = 8;  // far below the battle's write volume
  FlightRecorder rec(fo);
  rec.set_armed(true);
  auto engine = BuildRts(256, RecorderOpts(&rec));
  ASSERT_TRUE(engine->RunTicks(4).ok());

  EXPECT_GT(rec.dropped_records(), 0);
  ProvenanceIndex prov(&rec);
  const Tick t = rec.newest_tick();
  const TickFrame* f = rec.frame(t);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->num_records, 8u);
  EXPECT_GT(f->dropped_records, 0);
  const ExplainResult ex = prov.ExplainTick(t);
  EXPECT_EQ(ex.status, ProvStatus::kTruncated);
  EXPECT_GT(ex.dropped_records, 0);
  // Any chain out of a truncated frame is flagged, present or not.
  const WhyResult hit = prov.WhyDidChange(f->records[0].target,
                                          f->records[0].field, t);
  EXPECT_EQ(hit.status, ProvStatus::kTruncated);
  const WhyResult miss =
      prov.WhyDidChange(static_cast<EntityId>(1 << 20), 0, t);
  EXPECT_EQ(miss.status, ProvStatus::kTruncated);
}

// --- black-box dumps --------------------------------------------------------

TEST(BlackBox, FaultTriggerWritesDumpAndCooldownSuppresses) {
  const std::string dir = FreshDir("fault_trigger");
  BlackBoxStore store(dir, /*keep=*/4);
  Telemetry tel;
  tel.set_armed(true);
  FaultPlan plan;
  plan.seed = 5;
  FaultRule rule;
  rule.site = kFaultAsyncWorkerStall.name;
  rule.rate = 1.0;
  plan.rules.push_back(rule);
  FaultInjector fault(plan);

  FlightRecorderOptions fo;
  fo.ring_ticks = 8;
  fo.dump_on_fault = true;
  fo.dump_cooldown_ticks = 16;
  FlightRecorder rec(fo);
  rec.set_armed(true);
  rec.set_telemetry(&tel);
  rec.set_fault(&fault);
  rec.AttachStore(&store);

  auto engine = BuildRts(256, RecorderOpts(&rec, &tel));
  for (int t = 0; t < 8; ++t) {
    // Fire the injector at ticks 3 and 5: the first advance triggers a
    // dump at the next capture, the second lands inside the cooldown.
    if (t == 3 || t == 5) {
      ASSERT_TRUE(fault.Fires(kFaultAsyncWorkerStall,
                              static_cast<Tick>(t), 0));
    }
    ASSERT_TRUE(engine->Tick().ok());
  }

  EXPECT_EQ(rec.dumps_written(), 1);
  EXPECT_GE(rec.dumps_suppressed(), 1);
  EXPECT_EQ(rec.last_trigger(), "fault.fired");
  ASSERT_EQ(store.ListFiles().size(), 1u);

  auto dump = store.LoadLatestGood();
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_EQ(dump->reason, "fault.fired");
  EXPECT_NE(dump->world_checksum, 0u);
  EXPECT_FALSE(dump->provenance.empty());
  EXPECT_FALSE(dump->metrics.empty());
  // The embedded Chrome trace and site table are valid JSON.
  MiniJson trace(dump->chrome_trace);
  ExpectValidJson(dump->chrome_trace, &trace);
  EXPECT_TRUE(trace.names.count("tick.total"));
  MiniJson sites(dump->sites);
  ExpectValidJson(dump->sites, &sites);
}

// The tick-time trigger, fed synthetic frames so the timings are exact: a
// slow tick fires only once kMinFramesForAnomaly other frames are in the
// ring, writes one "anomaly.tick_time" dump, and the cooldown suppresses
// the next slow tick.
TEST(BlackBox, SlowTickWritesAnomalyDumpAndCooldownSuppresses) {
  const std::string dir = FreshDir("anomaly");
  BlackBoxStore store(dir, /*keep=*/4);
  FlightRecorderOptions fo;
  fo.ring_ticks = 16;
  fo.anomaly_p95_factor = 3.0;
  fo.dump_cooldown_ticks = 16;
  FlightRecorder rec(fo);
  rec.set_armed(true);
  rec.AttachStore(&store);
  auto engine = BuildRts(64, RecorderOpts(nullptr));
  auto capture = [&](Tick tick, int64_t micros) {
    TickStats stats;
    stats.Reset(tick);
    stats.total_micros = micros;
    rec.CaptureTick(stats, engine->world());
  };

  // Too few frames: a slow tick with kMinFramesForAnomaly - 1 others in
  // the ring does not fire.
  Tick t = 0;
  for (; t < kMinFramesForAnomaly - 1; ++t) capture(t, 1000);
  capture(t++, 100000);
  EXPECT_EQ(rec.dumps_written(), 0);
  EXPECT_EQ(rec.dumps_suppressed(), 0);

  // Refill the ring with ordinary ticks, so the earlier slow one is gone
  // from every later p95.
  for (int i = 0; i < fo.ring_ticks; ++i) capture(t++, 1000);
  EXPECT_EQ(rec.dumps_written(), 0);

  const Tick slow = t;
  capture(t++, 10000);  // > 3 x p95 (1000)
  EXPECT_EQ(rec.dumps_written(), 1);
  EXPECT_EQ(rec.last_trigger(), "anomaly.tick_time");
  auto dump = store.LoadLatestGood();
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_EQ(dump->reason, "anomaly.tick_time");
  EXPECT_EQ(dump->tick, slow);

  capture(t++, 1000000);  // slower still, but inside the cooldown
  EXPECT_EQ(rec.dumps_written(), 1);
  EXPECT_EQ(rec.dumps_suppressed(), 1);
  EXPECT_EQ(store.ListFiles().size(), 1u);
}

TEST(BlackBox, CorruptDumpIsRejectedAndStoreFallsBack) {
  const std::string dir = FreshDir("corrupt");
  BlackBoxStore store(dir, /*keep=*/4);
  FlightRecorderOptions fo;
  fo.ring_ticks = 4;
  FlightRecorder rec(fo);
  rec.set_armed(true);
  rec.AttachStore(&store);
  auto engine = BuildRts(256, RecorderOpts(&rec));
  ASSERT_TRUE(engine->RunTicks(4).ok());
  ASSERT_TRUE(
      rec.DumpNow("first", engine->tick(), &engine->world()).ok());
  ASSERT_TRUE(engine->RunTicks(4).ok());
  ASSERT_TRUE(
      rec.DumpNow("second", engine->tick(), &engine->world()).ok());
  std::vector<std::string> files = store.ListFiles();
  ASSERT_EQ(files.size(), 2u);

  // Flip one payload byte of the newest dump: the load must reject it and
  // the store must fall back to the previous good file.
  const std::string newest = dir + "/" + files.back();
  std::string bytes = ReadFileBytes(newest);
  ASSERT_GT(bytes.size(), 200u);
  bytes[bytes.size() / 2] ^= 0x40;
  WriteFileBytes(newest, bytes);
  BlackBoxDump out;
  const Status corrupt = LoadBlackBoxFile(newest, &out);
  EXPECT_FALSE(corrupt.ok());
  auto good = store.LoadLatestGood();
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->reason, "first");
}

// A restore abandons the timeline the last dump was written on: its dump
// tick may lie ahead of the restored tick and must not hold the recovered
// run's triggers in cooldown.
TEST(BlackBox, RestoreForgetsTheAbandonedTimelinesCooldown) {
  const std::string dir = FreshDir("restore_cooldown");
  BlackBoxStore store(dir, /*keep=*/4);
  FaultPlan plan;
  plan.seed = 5;
  FaultRule rule;
  rule.site = kFaultAsyncWorkerStall.name;
  rule.rate = 1.0;
  plan.rules.push_back(rule);
  FaultInjector fault(plan);

  FlightRecorderOptions fo;
  fo.ring_ticks = 8;
  fo.dump_on_fault = true;
  fo.dump_cooldown_ticks = 16;
  FlightRecorder rec(fo);
  rec.set_armed(true);
  rec.set_fault(&fault);
  rec.AttachStore(&store);

  auto engine = BuildRts(256, RecorderOpts(&rec));
  ASSERT_TRUE(engine->RunTicks(10).ok());
  const Checkpoint cp = engine->TakeCheckpoint();
  ASSERT_TRUE(engine->RunTicks(30).ok());
  ASSERT_TRUE(fault.Fires(kFaultAsyncWorkerStall, engine->tick(), 0));
  ASSERT_TRUE(engine->Tick().ok());  // tick 40: fault.fired dump
  ASSERT_EQ(rec.dumps_written(), 1);

  ASSERT_TRUE(engine->Restore(cp).ok());
  ASSERT_TRUE(engine->RunTicks(5).ok());
  ASSERT_TRUE(fault.Fires(kFaultAsyncWorkerStall, engine->tick(), 0));
  ASSERT_TRUE(engine->Tick().ok());  // tick 15 of the recovered run
  EXPECT_EQ(rec.dumps_written(), 2)
      << "the recovered run's first fault must dump";
  EXPECT_EQ(rec.dumps_suppressed(), 0);
}

TEST(BlackBox, RotationKeepsTheNewestFiles) {
  const std::string dir = FreshDir("rotate");
  BlackBoxStore store(dir, /*keep=*/2);
  FlightRecorderOptions fo;
  fo.ring_ticks = 4;
  FlightRecorder rec(fo);
  rec.set_armed(true);
  rec.AttachStore(&store);
  auto engine = BuildRts(256, RecorderOpts(&rec));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine->RunTicks(2).ok());
    ASSERT_TRUE(
        rec.DumpNow("rotate", engine->tick(), &engine->world()).ok());
  }
  EXPECT_EQ(rec.dumps_written(), 4);
  const std::vector<std::string> files = store.ListFiles();
  ASSERT_EQ(files.size(), 2u) << "rotation must prune beyond the budget";
  auto latest = store.LoadLatestGood();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->tick, engine->tick());
}

// The recovery differential: a crash/restore run must produce a dump
// byte-identical to the never-crashed run's (no telemetry attached, so
// every section of the file is deterministic).
TEST(BlackBox, RecoveredRunDumpMatchesNeverCrashedByteForByte) {
  auto dump_file = [](const std::string& dir, bool crash) {
    BlackBoxStore store(dir, /*keep=*/4);
    FlightRecorderOptions fo;
    fo.ring_ticks = 8;
    fo.dump_on_restore = true;
    FlightRecorder rec(fo);
    rec.set_armed(true);
    rec.AttachStore(&store);
    auto engine = BuildRts(256, RecorderOpts(&rec));
    if (crash) {
      EXPECT_TRUE(engine->RunTicks(10).ok());
      const Checkpoint cp = engine->TakeCheckpoint();
      // Keep running past the checkpoint, then "crash" back onto it.
      EXPECT_TRUE(engine->RunTicks(8).ok());
      EXPECT_TRUE(engine->Restore(cp).ok());
      // NotifyRestore wrote the pre-crash window as a crash.restore dump.
      EXPECT_EQ(rec.dumps_written(), 1);
      auto crash_dump = store.LoadLatestGood();
      EXPECT_TRUE(crash_dump.ok());
      EXPECT_EQ(crash_dump->reason, "crash.restore");
      EXPECT_TRUE(engine->RunTicks(20).ok());
    } else {
      EXPECT_TRUE(engine->RunTicks(30).ok());
    }
    EXPECT_TRUE(
        rec.DumpNow("differential", engine->tick(), &engine->world()).ok());
    const std::vector<std::string> files = store.ListFiles();
    EXPECT_FALSE(files.empty());
    return dir + "/" + files.back();
  };
  const std::string clean =
      dump_file(FreshDir("diff_clean"), /*crash=*/false);
  const std::string recovered =
      dump_file(FreshDir("diff_recovered"), /*crash=*/true);
  EXPECT_EQ(std::filesystem::path(clean).filename(),
            std::filesystem::path(recovered).filename())
      << "both runs must dump at the same tick";
  const std::string a = ReadFileBytes(clean);
  const std::string b = ReadFileBytes(recovered);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "recovered-run dump diverged from the clean run";
}

// The provenance tail must not depend on what a pooled frame slot held
// before. Two recorders see the same last two ticks through different slot
// histories (one armed from tick 0, one from tick 3). The program's record
// count grows tick by tick, so the same position holds number, bool, ref
// and set-insert records in different ticks.
TEST(BlackBox, ProvenanceTailIgnoresSlotHistory) {
  const char* src = R"sgl(
class U {
  state:
    number age = 0;
    number hp = 10;
    bool alert = false;
    ref<U> pal = null;
    set<U> crew;
  effects:
    number dmg : sum;
    bool warn : or;
    ref<U> pick : last;
    set<U> joins : union;
  update:
    age = age + 1;
    hp = if(assigned(dmg), hp - dmg, hp);
    alert = if(assigned(warn), warn, alert);
    pal = if(assigned(pick), pick, pal);
    crew = if(assigned(joins), joins, crew);
}
script S for U {
  if (age > 3) { dmg <- 1; }
  warn <- hp > 5;
  if (pal != null) { pick <- pal; joins <- pal; }
}
)sgl";
  auto tail = [&](Tick arm_at) {
    FlightRecorderOptions fo;
    fo.ring_ticks = 2;
    FlightRecorder rec(fo);
    EngineOptions options;
    options.exec.recorder = &rec;
    auto engine = Engine::Create(src, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    std::vector<EntityId> ids;
    for (int i = 0; i < 16; ++i) {
      auto id = (*engine)->Spawn("U", {{"age", Value::Number(i)}});
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (size_t i = 0; i + 1 < ids.size(); ++i) {
      EXPECT_TRUE((*engine)->Set(ids[i], "pal", Value::Ref(ids[i + 1])).ok());
    }
    for (Tick t = 0; t < 6; ++t) {
      if (t == arm_at) rec.set_armed(true);
      EXPECT_TRUE((*engine)->Tick().ok());
    }
    EXPECT_EQ(rec.oldest_tick(), 4);
    EXPECT_EQ(rec.newest_tick(), 5);
    std::string out;
    rec.SerializeProvenanceTail(&out);
    return out;
  };
  const std::string from_start = tail(0);
  const std::string from_tick3 = tail(3);
  ASSERT_FALSE(from_start.empty());
  EXPECT_EQ(from_start, from_tick3)
      << "the tail serialized bytes left over from earlier ticks";
}

// FNV-1a over a byte string.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The SGLPROV1 bytes are a file format: hashes of the provenance tail of a
// seeded 64-unit RTS run and a small contested-market run, pinned to the
// values the format had when after-values were still stored per record.
// A change here breaks every dump written before it.
TEST(BlackBox, ProvenanceTailBytesArePinned) {
  FlightRecorder rts_rec;
  rts_rec.set_armed(true);
  auto rts = BuildRts(64, RecorderOpts(&rts_rec));
  ASSERT_TRUE(rts->RunTicks(12).ok());
  std::string rts_tail;
  rts_rec.SerializeProvenanceTail(&rts_tail);

  FlightRecorder market_rec;
  market_rec.set_armed(true);
  MarketConfig config;
  config.num_traders = 32;
  config.num_items = 64;
  auto market = MarketWorkload::Build(config, RecorderOpts(&market_rec));
  ASSERT_TRUE(market.ok()) << market.status();
  Rng rng(21);
  for (int t = 0; t < 8; ++t) {
    MarketWorkload::AssignWants(market->get(), config, &rng);
    ASSERT_TRUE((*market)->Tick().ok());
  }
  std::string market_tail;
  market_rec.SerializeProvenanceTail(&market_tail);

  char got[64];
  std::snprintf(got, sizeof(got), "%016llx %zu",
                static_cast<unsigned long long>(Fnv1a(rts_tail)),
                rts_tail.size());
  EXPECT_STREQ(got, "2207e80749b182b2 239920") << "rts provenance tail";
  std::snprintf(got, sizeof(got), "%016llx %zu",
                static_cast<unsigned long long>(Fnv1a(market_tail)),
                market_tail.size());
  EXPECT_STREQ(got, "7faeb85c98d796d6 50648") << "market provenance tail";
}

// --- armed steady-state allocation contract ---------------------------------

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

TEST(RecorderAllocs, SerialSteadyStateIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  Telemetry tel;
  tel.set_armed(true);
  FlightRecorder rec;  // ring 16 < 24 warmup ticks: every slot hits high water
  rec.set_armed(true);
  rec.set_telemetry(&tel);
  auto engine = BuildRts(800, RecorderOpts(&rec, &tel));
  EXPECT_EQ(MeasureArmedSteadyState(engine.get(), nullptr), 0);
  EXPECT_EQ(rec.frames_captured(), 34);
  EXPECT_GT(rec.frame(rec.newest_tick())->num_records, 0u);
}

TEST(RecorderAllocs, Parallel4ThreadSteadyStateIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  FlightRecorder rec;
  rec.set_armed(true);
  auto engine = BuildRts(800, RecorderOpts(&rec, nullptr, /*threads=*/4));
  EXPECT_EQ(MeasureArmedSteadyState(engine.get(), nullptr), 0);
}

// The small-morsel variant uses the stationary battle (see telemetry_test):
// zeroed attack freezes the engagement geometry so the pooled lane hits
// its high-water capacity inside the warmup window. One thread runs every
// 64-row morsel, so each frame is several runs in one lane.
TEST(RecorderAllocs, Morsel64SteadyStateIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  FlightRecorder rec;
  rec.set_armed(true);
  RtsConfig config;
  config.num_units = 800;
  config.clustered = true;
  config.cluster_radius = 10;  // dense: everyone engaged from tick 0
  auto engine = RtsWorkload::Build(
      config, RecorderOpts(&rec, nullptr, /*threads=*/1, /*morsel=*/64));
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (EntityId id = 1; id <= 800; ++id) {
    ASSERT_TRUE((*engine)->Set(id, "attack", Value::Number(0)).ok());
  }
  EXPECT_EQ(MeasureArmedSteadyState(engine->get(), nullptr), 0);
  EXPECT_GT(rec.frames_captured(), 0);
}

// A user tracer and the recorder share the effect fan-out: both pooled,
// both allocation-free, no lane thrash between the two live instances.
TEST(RecorderAllocs, UserTracerAndRecorderTogetherHoldTheContract) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "alloc hook compiled out";
  FlightRecorder rec;
  rec.set_armed(true);
  auto engine = BuildRts(800, RecorderOpts(&rec, nullptr, /*threads=*/4));
  EffectTracer tracer;
  for (EntityId id = 1; id <= 16; ++id) tracer.Watch(id);
  engine->SetTracer(&tracer);
  EXPECT_EQ(MeasureArmedSteadyState(engine.get(), &tracer), 0);
}

// --- checksum parity --------------------------------------------------------

uint64_t RunRtsChecksum(FlightRecorder* rec, int threads, size_t morsel) {
  auto engine = BuildRts(384, RecorderOpts(rec, nullptr, threads, morsel));
  for (int t = 0; t < 12; ++t) EXPECT_TRUE(engine->Tick().ok());
  return WorldChecksum(engine->world());
}

TEST(RecorderParity, ChecksumBitIdenticalArmedVsDisarmed) {
  const uint64_t disarmed = RunRtsChecksum(nullptr, 1, 2048);
  FlightRecorder rec;
  rec.set_armed(true);
  EXPECT_EQ(RunRtsChecksum(&rec, 1, 2048), disarmed) << "serial armed";
  FlightRecorder rec_mt;
  rec_mt.set_armed(true);
  EXPECT_EQ(RunRtsChecksum(&rec_mt, 4, 2048), disarmed) << "4-thread armed";
  FlightRecorder rec_small;
  rec_small.set_armed(true);
  EXPECT_EQ(RunRtsChecksum(&rec_small, 4, 64), disarmed)
      << "4-thread, morsel-64 armed";
  // Attached-but-disarmed is also bit-identical.
  FlightRecorder off;
  EXPECT_EQ(RunRtsChecksum(&off, 1, 2048), disarmed) << "attached disarmed";
}

// --- satellites: counter lanes, sites JSON, metrics reset -------------------

TEST(ChromeTrace, CounterLanesRenderTickSeriesAndSnapshotTail) {
  Telemetry tel;
  tel.set_armed(true);
  auto engine = BuildRts(256, RecorderOpts(nullptr, &tel));
  ASSERT_TRUE(engine->RunTicks(8).ok());
  const std::string json = tel.DumpChromeTrace();
  MiniJson parser(json);
  ExpectValidJson(json, &parser);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos)
      << "no counter events in the trace";
  for (const char* lane :
       {"tick.total_us", "jobs.in_flight"}) {
    EXPECT_TRUE(parser.names.count(lane)) << "missing counter lane " << lane;
  }
  // The metrics-snapshot tail contributes per-histogram p50 lanes.
  EXPECT_TRUE(parser.names.count("tick.total_us.p50"));
}

TEST(SitesJson, DescribesActiveSitesAsValidJson) {
  Telemetry tel;
  tel.set_armed(true);
  auto engine = BuildRts(512, RecorderOpts(nullptr, &tel));
  ASSERT_TRUE(engine->RunTicks(8).ok());
  const std::string json = tel.DescribeSitesJson();
  MiniJson parser(json);
  ExpectValidJson(json, &parser);
  EXPECT_NE(json.find("\"site\":"), std::string::npos);
  EXPECT_NE(json.find("\"strategy\":"), std::string::npos);
  EXPECT_NE(json.find("\"switches\":"), std::string::npos);
  // Machine- and human-readable views agree on having content.
  EXPECT_FALSE(tel.DescribeSites().empty());
}

TEST(Metrics, ResetClearsEveryCellAndKeepsIds) {
  MetricsRegistry reg;
  const MetricId c = reg.RegisterCounter("events");
  const MetricId g = reg.RegisterGauge("depth");
  const MetricId h = reg.RegisterHistogram("lat");
  reg.Count(c, 7);
  reg.Set(g, 9);
  reg.Record(h, 100);
  reg.Record(h, 200);
  reg.Reset();
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Counter("events"), 0);
  EXPECT_EQ(snap.Gauge("depth"), 0);
  const HistogramSnapshot* hs = snap.Find("lat");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 0);
  EXPECT_EQ(hs->Percentile(50), 0.0);
  // The ids survive: recording after Reset works without re-registering.
  reg.Count(c, 1);
  reg.Record(h, 50);
  const MetricsSnapshot again = reg.Snapshot();
  EXPECT_EQ(again.Counter("events"), 1);
  EXPECT_EQ(again.Find("lat")->count, 1);
}

}  // namespace
}  // namespace sgl
