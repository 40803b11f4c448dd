// Randomized differential testing: generate random (but well-typed) SGL
// programs — random class shapes, guarded effect assignments, expression
// trees, accum loops with box predicates, update rules over number, bool,
// ref and set effects — and assert that the compiled set-at-a-time engine
// (the bytecode VM) and the object-at-a-time oracle produce identical
// worlds, across every index strategy, thread count and shard count: every
// random program runs under forced nested-loop and grid access paths plus
// the cost-based picker, with 1 or 4 threads and 1 or 4 shards,
// and all must agree bit-for-bit. This is the
// wide-net version of the hand-written equivalence tests: any divergence in
// predicate extraction, guard rebuilding, ⊕ order keys, fold order, or an
// index returning a wrong candidate set shows up here. Accum loops also
// draw inner-only conjuncts and an `it.kind != kind` conjunct over a field
// valued in {0, 1} or {0, 1, 2} (some zeros negative), which the grid
// answers by its build filter and by key partitions or, past
// kMaxKeyPartitions keys, a per-row key check.

#include <gtest/gtest.h>

#include <iterator>

#include "src/common/cpu_features.h"
#include "src/common/rng.h"
#include "src/debug/checkpoint.h"
#include "src/engine/engine.h"

namespace sgl {
namespace {

/// Emits a random well-typed numeric expression over the in-scope numeric
/// state fields (depth-bounded).
std::string RandomNumExpr(Rng* rng, const std::vector<std::string>& fields,
                          int depth) {
  if (depth <= 0 || rng->Bernoulli(0.3)) {
    if (rng->Bernoulli(0.5)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", rng->Uniform(-4, 4));
      return buf;
    }
    return fields[rng->NextBelow(fields.size())];
  }
  switch (rng->NextBelow(8)) {
    case 0:
      return "(" + RandomNumExpr(rng, fields, depth - 1) + " + " +
             RandomNumExpr(rng, fields, depth - 1) + ")";
    case 1:
      return "(" + RandomNumExpr(rng, fields, depth - 1) + " - " +
             RandomNumExpr(rng, fields, depth - 1) + ")";
    case 2:
      return "(" + RandomNumExpr(rng, fields, depth - 1) + " * " +
             RandomNumExpr(rng, fields, depth - 1) + ")";
    case 3:
      // Divisors hit zero often (integer-valued state, literal 0.0 below):
      // the guarded div-by-zero = 0 semantics must hold in every backend.
      return "(" + RandomNumExpr(rng, fields, depth - 1) + " / " +
             RandomNumExpr(rng, fields, depth - 1) + ")";
    case 4:
      // Negative arguments are routine; sqrt of a negative is pinned to 0.
      return "sqrt(" + RandomNumExpr(rng, fields, depth - 1) + ")";
    case 5:
      return "min(" + RandomNumExpr(rng, fields, depth - 1) + ", " +
             RandomNumExpr(rng, fields, depth - 1) + ")";
    case 6:
      return "abs(" + RandomNumExpr(rng, fields, depth - 1) + ")";
    default:
      return "clamp(" + RandomNumExpr(rng, fields, depth - 1) + ", -9, 9)";
  }
}

std::string RandomBoolExpr(Rng* rng, const std::vector<std::string>& fields,
                           int depth) {
  if (depth <= 0 || rng->Bernoulli(0.4)) {
    const char* cmps[] = {"<", "<=", ">", ">=", "==", "!="};
    return "(" + RandomNumExpr(rng, fields, 1) + " " +
           cmps[rng->NextBelow(6)] + " " + RandomNumExpr(rng, fields, 1) +
           ")";
  }
  switch (rng->NextBelow(3)) {
    case 0:
      return "(" + RandomBoolExpr(rng, fields, depth - 1) + " && " +
             RandomBoolExpr(rng, fields, depth - 1) + ")";
    case 1:
      return "(" + RandomBoolExpr(rng, fields, depth - 1) + " || " +
             RandomBoolExpr(rng, fields, depth - 1) + ")";
    default:
      return "!" + RandomBoolExpr(rng, fields, depth - 1);
  }
}

/// Builds a whole random program: one class with `nfields` numeric state
/// fields and matching sum/avg/min/max/last effects, a script with nested
/// conditionals, cross-entity writes, and (optionally) an accum loop, plus
/// update rules wiring every effect back into state.
std::string RandomProgram(Rng* rng) {
  const int nfields = 3 + static_cast<int>(rng->NextBelow(3));
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
  // The accum key field: low-cardinality, set at spawn, never updated.
  src += "    number kind = 0;\n";
  src += "    ref<Thing> pal = null;\n";
  // Non-numeric state, fed by the bool / ref / set effects below.
  src += "    bool flagged = false;\n";
  src += "    ref<Thing> target = null;\n";
  src += "    set<Thing> crew;\n";
  src += "    number tally = 0;\n";
  src += "  effects:\n";
  const char* combs[] = {"sum", "avg", "min", "max", "last"};
  std::vector<std::string> effects;
  for (int f = 0; f < nfields; ++f) {
    std::string name = "e" + std::to_string(f);
    effects.push_back(name);
    src += "    number " + name + " : " +
           combs[rng->NextBelow(5)] + ";\n";
  }
  src += std::string("    bool flag : ") +
         (rng->Bernoulli(0.5) ? "or" : "and") + ";\n";
  src += std::string("    ref<Thing> pick : ") +
         (rng->Bernoulli(0.5) ? "first" : "last") + ";\n";
  src += "    set<Thing> seen : union;\n";
  src += "  update:\n";
  for (int f = 0; f < nfields; ++f) {
    // Keep state bounded so long runs do not diverge to inf.
    src += "    " + fields[static_cast<size_t>(f)] + " = clamp(" +
           fields[static_cast<size_t>(f)] + " + " +
           effects[static_cast<size_t>(f)] + ", -50, 50);\n";
  }
  // Effect reads behind assigned() (the rts.cc `engaged` shape), and set
  // effects read through size / contains inside an `if`.
  const std::string& probed = effects[rng->NextBelow(effects.size())];
  src += "    flagged = if(assigned(flag), flag, flagged);\n";
  src += "    target = if(assigned(pick), pick, target);\n";
  src += "    crew = if(assigned(flag), seen, crew);\n";
  src += "    tally = clamp(if(assigned(" + probed + "), min(" + probed +
         ", 1), 0) + size(if(flagged, seen, crew)) + " +
         "if(contains(if(" + (rng->Bernoulli(0.5) ? "flag" : "!flagged") +
         ", seen, crew), target), 1, 0), -50, 50);\n";
  src += "}\n\nscript Fuzz for Thing {\n";

  // A few guarded straight-line assignments (self, pal, conditionals).
  const int stmts = 2 + static_cast<int>(rng->NextBelow(4));
  for (int s = 0; s < stmts; ++s) {
    std::string target =
        effects[rng->NextBelow(effects.size())];
    std::string value = RandomNumExpr(rng, fields, 2);
    switch (rng->NextBelow(3)) {
      case 0:
        src += "  " + target + " <- " + value + ";\n";
        break;
      case 1:
        src += "  if (" + RandomBoolExpr(rng, fields, 2) + ") { " + target +
               " <- " + value + "; } else { " + target + " <- " +
               RandomNumExpr(rng, fields, 1) + "; }\n";
        break;
      default:
        src += "  if (pal != null) { pal." + target + " <- " + value +
               "; }\n";
        break;
    }
  }

  // Bool, ref and set effects: guarded, sometimes cross-entity.
  src += "  if (" + RandomBoolExpr(rng, fields, 1) + ") { flag <- " +
         RandomBoolExpr(rng, fields, 1) + "; }\n";
  src += std::string("  pick <- ") +
         (rng->Bernoulli(0.5) ? "pal" : "if(" +
                                            RandomBoolExpr(rng, fields, 1) +
                                            ", self, target)") +
         ";\n";
  src += "  if (" + RandomBoolExpr(rng, fields, 1) + ") { seen <- self; }\n";
  src += "  if (pal != null) { pal.seen <- self; }\n";

  // Half the programs get an accum loop with an indexable box predicate
  // plus a residual conjunct.
  if (rng->Bernoulli(0.7)) {
    std::string dim1 = fields[rng->NextBelow(fields.size())];
    std::string dim2 = fields[rng->NextBelow(fields.size())];
    char radius[32];
    std::snprintf(radius, sizeof(radius), "%.1f", rng->Uniform(1, 8));
    src += "  accum number acc with " +
           std::string(rng->Bernoulli(0.5) ? "sum" : "min") +
           " over Thing w from Thing {\n";
    src += "    if (w." + dim1 + " >= " + dim1 + " - " + radius + " && w." +
           dim1 + " <= " + dim1 + " + " + radius;
    if (dim2 != dim1) {
      src += " && w." + dim2 + " >= " + dim2 + " - " + radius + " && w." +
             dim2 + " <= " + dim2 + " + " + radius;
    }
    if (rng->Bernoulli(0.5)) {
      src += " && w != self";
    }
    if (rng->Bernoulli(0.5)) {
      src += " && " + RandomBoolExpr(rng, fields, 1);
    }
    if (rng->Bernoulli(0.5)) {
      // Reads only the inner row: the grid's build filter.
      std::vector<std::string> inner_fields;
      for (const std::string& f : fields) inner_fields.push_back("w." + f);
      src += " && " + RandomBoolExpr(rng, inner_fields, 1);
    }
    if (rng->Bernoulli(0.5)) {
      // The grid's key partitions.
      src += rng->Bernoulli(0.5) ? " && w.kind != kind" : " && kind != w.kind";
    }
    src += ") {\n      acc <- w." + fields[rng->NextBelow(fields.size())] +
           ";\n";
    if (rng->Bernoulli(0.4)) {
      src += "      w." + effects[rng->NextBelow(effects.size())] +
             " <- 0.1;\n";
    }
    src += "    }\n  } in {\n";
    src += "    if (acc > 1) { " + effects[rng->NextBelow(effects.size())] +
           " <- clamp(acc, -3, 3); }\n";
    src += "  }\n";
  }
  src += "}\n";
  return src;
}

uint64_t RunProgram(const std::string& src, uint64_t spawn_seed,
                    bool interpreted, PlanMode mode, int ticks,
                    int threads = 1, int shards = 1) {
  EngineOptions options;
  options.exec.interpreted = interpreted;
  options.exec.planner.mode = mode;
  options.exec.num_threads = threads;
  options.exec.num_shards = shards;
  auto engine = Engine::Create(src, options);
  EXPECT_TRUE(engine.ok()) << engine.status() << "\nprogram:\n" << src;
  if (!engine.ok()) return 0;
  Rng rng(spawn_seed);
  // Its own stream, so the key values leave the numeric state's draws be.
  Rng kind_rng(spawn_seed ^ 0x6b696e64ULL);
  const uint64_t num_kinds = 2 + kind_rng.NextBelow(2);
  std::vector<EntityId> ids;
  for (int i = 0; i < 60; ++i) {
    auto id = (*engine)->Spawn("Thing", {});
    EXPECT_TRUE(id.ok());
    ids.push_back(*id);
    // Randomize the numeric state a little.
    for (int f = 0;; ++f) {
      std::string field = "s" + std::to_string(f);
      auto v = (*engine)->Get(*id, field);
      if (!v.ok()) break;
      EXPECT_TRUE((*engine)
                      ->Set(*id, field, Value::Number(rng.Uniform(-10, 10)))
                      .ok());
    }
    // Key values 0 .. num_kinds - 1, with some zeros written as -0.0,
    // which must share 0.0's key partition.
    double kind = static_cast<double>(kind_rng.NextBelow(num_kinds));
    if (kind == 0 && kind_rng.Bernoulli(0.5)) kind = -0.0;
    EXPECT_TRUE((*engine)->Set(*id, "kind", Value::Number(kind)).ok());
  }
  for (size_t i = 0; i + 1 < ids.size(); i += 3) {
    EXPECT_TRUE(
        (*engine)->Set(ids[i], "pal", Value::Ref(ids[i + 1])).ok());
  }
  EXPECT_TRUE((*engine)->RunTicks(ticks).ok());
  return WorldChecksum((*engine)->world());
}

/// The plan modes every random program is swept under.
constexpr PlanMode kSweptModes[] = {PlanMode::kStaticNL, PlanMode::kStaticGrid,
                                    PlanMode::kCostBased};

/// Thread and shard counts the fast path is swept under.
constexpr int kSweptThreads[] = {1, 4};
constexpr int kSweptShards[] = {1, 4};

/// Kernel tables to sweep: scalar always, AVX2 when the CPU has it. Both
/// tables promise bit-identical per-lane results, so every swept
/// combination must reproduce the reference checksum under either one.
std::vector<KernelDispatch> SweptDispatches() {
  std::vector<KernelDispatch> out = {KernelDispatch::kScalar};
  if (CpuHasAvx2()) out.push_back(KernelDispatch::kAvx2);
  return out;
}

/// RAII override so a failing EXPECT cannot leak a pinned dispatch into
/// later tests.
struct ScopedDispatch {
  explicit ScopedDispatch(KernelDispatch d) { SetKernelDispatch(d); }
  ~ScopedDispatch() { ResetKernelDispatch(); }
};

class FuzzEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzEquivalence, CompiledMatchesInterpretedOnRandomProgram) {
  Rng rng(GetParam());
  std::string program = RandomProgram(&rng);
  SCOPED_TRACE(program);
  // One oracle run per shard count: across shard counts, sum/avg effects
  // over inexact summands are only associativity-equivalent (determinism
  // rule 2 of src/exec/tick_executor.h), while a fixed shard count is
  // bit-exact.
  uint64_t oracle[std::size(kSweptShards)];
  for (size_t k = 0; k < std::size(kSweptShards); ++k) {
    oracle[k] = RunProgram(program, GetParam(), true, PlanMode::kStaticNL, 6,
                           1, kSweptShards[k]);
  }
  for (KernelDispatch dispatch : SweptDispatches()) {
    ScopedDispatch pin(dispatch);
    for (PlanMode mode : kSweptModes) {
      for (int threads : kSweptThreads) {
        for (size_t k = 0; k < std::size(kSweptShards); ++k) {
          const int shards = kSweptShards[k];
          EXPECT_EQ(oracle[k], RunProgram(program, GetParam(), false, mode,
                                          6, threads, shards))
              << "strategy " << PlanModeName(mode) << ", threads " << threads
              << ", shards " << shards << ", kernels "
              << KernelDispatchName(dispatch);
        }
      }
    }
  }
}

TEST_P(FuzzEquivalence, StrategiesAgreeOnRandomProgram) {
  Rng rng(GetParam() ^ 0xf00dULL);
  std::string program = RandomProgram(&rng);
  SCOPED_TRACE(program);
  uint64_t nl =
      RunProgram(program, GetParam(), false, PlanMode::kStaticNL, 6);
  for (KernelDispatch dispatch : SweptDispatches()) {
    ScopedDispatch pin(dispatch);
    for (PlanMode mode : kSweptModes) {
      if (mode == PlanMode::kStaticNL && dispatch == KernelDispatch::kScalar) {
        continue;
      }
      EXPECT_EQ(nl, RunProgram(program, GetParam(), false, mode, 6))
          << "strategy " << PlanModeName(mode) << ", kernels "
          << KernelDispatchName(dispatch);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalence,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace sgl
