// Storage layer: entity tables (column groups, swap-remove), effect buffers
// (⊕ semantics + shard merge determinism), world directory, serialization.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/storage/world.h"

namespace sgl {
namespace {

Catalog MakeCatalog() {
  Catalog catalog;
  ClassDef unit("Unit");
  EXPECT_TRUE(unit.AddState("x", SglType::Number(),
                            Value::Number(1.5)).ok());
  EXPECT_TRUE(unit.AddState("y", SglType::Number()).ok());
  EXPECT_TRUE(unit.AddState("z", SglType::Number()).ok());
  EXPECT_TRUE(unit.AddState("alive", SglType::Bool(),
                            Value::Bool(true)).ok());
  EXPECT_TRUE(unit.AddState("buddy", SglType::Ref("Unit")).ok());
  EXPECT_TRUE(unit.AddState("friends", SglType::Set("Unit")).ok());
  EXPECT_TRUE(unit.AddEffect("d", SglType::Number(),
                             Combinator::kSum).ok());
  EXPECT_TRUE(unit.AddEffect("a", SglType::Number(),
                             Combinator::kAvg).ok());
  EXPECT_TRUE(unit.AddEffect("f", SglType::Number(),
                             Combinator::kFirst).ok());
  EXPECT_TRUE(unit.AddEffect("o", SglType::Bool(), Combinator::kOr).ok());
  EXPECT_TRUE(unit.AddEffect("s", SglType::Set("Unit"),
                             Combinator::kUnion).ok());
  EXPECT_TRUE(catalog.Register(std::move(unit)).ok());
  EXPECT_TRUE(catalog.Finalize().ok());
  return catalog;
}

TEST(EntityTable, DefaultsApplyOnAdd) {
  Catalog catalog = MakeCatalog();
  World world(&catalog);
  EntityId id = world.Spawn(0);
  EXPECT_DOUBLE_EQ(1.5, world.Get(id, "x")->AsNumber());
  EXPECT_TRUE(world.Get(id, "alive")->AsBool());
  EXPECT_EQ(kNullEntity, world.Get(id, "buddy")->AsRef());
  EXPECT_TRUE(world.Get(id, "friends")->AsSet().empty());
}

TEST(EntityTable, SwapRemoveKeepsDirectoryConsistent) {
  Catalog catalog = MakeCatalog();
  World world(&catalog);
  std::vector<EntityId> ids;
  for (int i = 0; i < 10; ++i) {
    EntityId id = world.Spawn(0);
    EXPECT_TRUE(world.Set(id, "y", Value::Number(i)).ok());
    ids.push_back(id);
  }
  // Remove from the middle; the last row moves into its slot.
  EXPECT_TRUE(world.Despawn(ids[3]).ok());
  EXPECT_EQ(nullptr, world.Find(ids[3]));
  for (int i = 0; i < 10; ++i) {
    if (i == 3) continue;
    ASSERT_NE(nullptr, world.Find(ids[static_cast<size_t>(i)]));
    EXPECT_DOUBLE_EQ(
        static_cast<double>(i),
        world.Get(ids[static_cast<size_t>(i)], "y")->AsNumber());
  }
  EXPECT_EQ(9u, world.TotalEntities());
}

TEST(EntityTable, GroupedLayoutRoundTripsValues) {
  Catalog catalog = MakeCatalog();
  World world(&catalog);
  Rng rng(1);
  std::vector<EntityId> ids;
  std::vector<double> expected;
  for (int i = 0; i < 50; ++i) {
    EntityId id = world.Spawn(0);
    double v = rng.Uniform(-10, 10);
    EXPECT_TRUE(world.Set(id, "z", Value::Number(v)).ok());
    ids.push_back(id);
    expected.push_back(v);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_DOUBLE_EQ(expected[i], world.Get(ids[i], "z")->AsNumber());
  }
}

TEST(EntityTable, StridedColumnViewsSeeSameData) {
  Catalog catalog = MakeCatalog();
  World world(&catalog);
  EntityId id = world.Spawn(0);
  (void)id;
  EntityTable& table = world.table(0);
  const ClassDef& def = catalog.Get(0);
  NumberColumn x = table.Num(def.FindState("x"));
  NumberColumn y = table.Num(def.FindState("y"));
  // One interleaved block: same base, different offsets.
  x.at(0) = 42;
  y.at(0) = 43;
  EXPECT_DOUBLE_EQ(42, world.Get(world.table(0).id_at(0), "x")->AsNumber());
  EXPECT_DOUBLE_EQ(43, world.Get(world.table(0).id_at(0), "y")->AsNumber());
}

TEST(World, TypeMismatchOnSetRejected) {
  Catalog catalog = MakeCatalog();
  World world(&catalog);
  EntityId id = world.Spawn(0);
  EXPECT_FALSE(world.Set(id, "x", Value::Bool(true)).ok());
  EXPECT_FALSE(world.Set(id, "alive", Value::Number(1)).ok());
  EXPECT_FALSE(world.Set(id, "nope", Value::Number(1)).ok());
  EXPECT_FALSE(world.Get(id, "nope").ok());
}

// --- EffectBuffer ⊕ semantics ------------------------------------------------

TEST(EffectBuffer, SumAvgFirstSemantics) {
  Catalog catalog = MakeCatalog();
  const ClassDef& def = catalog.Get(0);
  EffectBuffer buf(&def);
  buf.Reset(2);
  FieldIdx d = def.FindEffect("d");
  FieldIdx a = def.FindEffect("a");
  FieldIdx f = def.FindEffect("f");
  buf.AddNumber(d, 0, 2, 1);
  buf.AddNumber(d, 0, 3, 2);
  buf.AddNumber(a, 0, 10, 1);
  buf.AddNumber(a, 0, 20, 2);
  buf.AddNumber(f, 0, 7, /*key=*/5);
  buf.AddNumber(f, 0, 9, /*key=*/2);  // smaller key: becomes "first"
  EXPECT_DOUBLE_EQ(5, buf.FinalNumber(d, 0));
  EXPECT_DOUBLE_EQ(15, buf.FinalNumber(a, 0));
  EXPECT_DOUBLE_EQ(9, buf.FinalNumber(f, 0));
  EXPECT_FALSE(buf.Assigned(d, 1));
}

TEST(EffectBuffer, MergeEqualsDirectAccumulation) {
  Catalog catalog = MakeCatalog();
  const ClassDef& def = catalog.Get(0);
  Rng rng(3);
  // Random assignment stream applied (a) directly and (b) split across two
  // shards then merged — results must match exactly for all combinators.
  for (int trial = 0; trial < 20; ++trial) {
    EffectBuffer direct(&def);
    EffectBuffer shard_a(&def);
    EffectBuffer shard_b(&def);
    const size_t rows = 8;
    direct.Reset(rows);
    shard_a.Reset(rows);
    shard_b.Reset(rows);
    for (int i = 0; i < 100; ++i) {
      FieldIdx field = static_cast<FieldIdx>(rng.NextBelow(4));
      RowIdx row = static_cast<RowIdx>(rng.NextBelow(rows));
      uint64_t key = rng.Next() >> 16;
      EffectBuffer* shard = rng.Bernoulli(0.5) ? &shard_a : &shard_b;
      const FieldDef& fd = def.effect_field(field);
      if (fd.type.is_number()) {
        double v = rng.Uniform(-5, 5);
        direct.AddNumber(field, row, v, key);
        shard->AddNumber(field, row, v, key);
      } else if (fd.type.is_bool()) {
        bool v = rng.Bernoulli(0.5);
        direct.AddBool(field, row, v, key);
        shard->AddBool(field, row, v, key);
      }
    }
    EffectBuffer merged(&def);
    merged.Reset(rows);
    merged.MergeFrom(shard_a);
    merged.MergeFrom(shard_b);
    for (FieldIdx field = 0; field < 4; ++field) {
      for (RowIdx row = 0; row < rows; ++row) {
        ASSERT_EQ(direct.Assigned(field, row), merged.Assigned(field, row));
        if (!direct.Assigned(field, row)) continue;
        const FieldDef& fd = def.effect_field(field);
        if (fd.type.is_number()) {
          // Sums may differ in FP rounding across groupings; compare with a
          // tight tolerance (first/min/max/avg-of-few are near-exact).
          EXPECT_NEAR(direct.FinalNumber(field, row),
                      merged.FinalNumber(field, row), 1e-9);
        } else if (fd.type.is_bool()) {
          EXPECT_EQ(direct.FinalBool(field, row),
                    merged.FinalBool(field, row));
        }
      }
    }
  }
}

TEST(EffectBuffer, SetUnionAccumulates) {
  Catalog catalog = MakeCatalog();
  const ClassDef& def = catalog.Get(0);
  EffectBuffer buf(&def);
  buf.Reset(1);
  FieldIdx s = def.FindEffect("s");
  buf.AddSetInsert(s, 0, 5);
  buf.AddSetInsert(s, 0, 3);
  buf.AddSetInsert(s, 0, 5);  // dup
  EntitySet other({7, 3});
  buf.AddSetUnion(s, 0, other);
  buf.FinalizeSets();  // canonicalizes the CSR log before reads
  const EntitySet& result = buf.FinalSet(s, 0);
  EXPECT_EQ(3u, result.size());
  EXPECT_TRUE(result.Contains(3));
  EXPECT_TRUE(result.Contains(5));
  EXPECT_TRUE(result.Contains(7));
}

// Shard merge concatenates set logs; finalization canonicalizes, so the
// result is identical no matter how assignments were split across shards.
TEST(EffectBuffer, SetMergeIsShardOrderInsensitive) {
  Catalog catalog = MakeCatalog();
  const ClassDef& def = catalog.Get(0);
  FieldIdx s = def.FindEffect("s");

  EffectBuffer merged(&def), shard_a(&def), shard_b(&def);
  merged.Reset(2);
  shard_a.Reset(2);
  shard_b.Reset(2);
  shard_a.AddSetInsert(s, 0, 9);
  shard_a.AddSetInsert(s, 1, 2);
  shard_b.AddSetInsert(s, 0, 4);
  shard_b.AddSetInsert(s, 0, 9);  // duplicate across shards
  merged.MergeFrom(shard_b);      // reversed shard order on purpose
  merged.MergeFrom(shard_a);
  merged.FinalizeSets();

  EffectBuffer direct(&def);
  direct.Reset(2);
  direct.AddSetInsert(s, 0, 9);
  direct.AddSetInsert(s, 1, 2);
  direct.AddSetInsert(s, 0, 4);
  direct.AddSetInsert(s, 0, 9);
  direct.FinalizeSets();

  for (RowIdx row = 0; row < 2; ++row) {
    EXPECT_EQ(direct.Count(s, row), merged.Count(s, row));
    EXPECT_EQ(direct.FinalSet(s, row), merged.FinalSet(s, row));
  }
  EXPECT_TRUE(merged.FinalSet(s, 0) == EntitySet({4, 9}));
  EXPECT_TRUE(merged.FinalSet(s, 1) == EntitySet({2}));
}

// --- Serialization -----------------------------------------------------------

TEST(World, SerializeRoundTrip) {
  Catalog catalog = MakeCatalog();
  World world(&catalog);
  Rng rng(9);
  std::vector<EntityId> ids;
  for (int i = 0; i < 30; ++i) {
    EntityId id = world.Spawn(0);
    EXPECT_TRUE(
        world.Set(id, "x", Value::Number(rng.Uniform(0, 100))).ok());
    EXPECT_TRUE(world.Set(id, "alive", Value::Bool(rng.Bernoulli(0.5))).ok());
    if (!ids.empty()) {
      EXPECT_TRUE(world.Set(id, "buddy", Value::Ref(ids[0])).ok());
      EntitySet friends({ids[0], id});
      EXPECT_TRUE(world.Set(id, "friends", Value::Set(friends)).ok());
    }
    ids.push_back(id);
  }
  std::string blob;
  world.Serialize(&blob);

  World restored(&catalog);
  ASSERT_TRUE(restored.Deserialize(blob).ok());
  ASSERT_EQ(world.TotalEntities(), restored.TotalEntities());
  for (EntityId id : ids) {
    for (const char* field : {"x", "y", "z"}) {
      EXPECT_EQ(world.Get(id, field)->AsNumber(),
                restored.Get(id, field)->AsNumber());
    }
    EXPECT_EQ(world.Get(id, "alive")->AsBool(),
              restored.Get(id, "alive")->AsBool());
    EXPECT_EQ(world.Get(id, "buddy")->AsRef(),
              restored.Get(id, "buddy")->AsRef());
    EXPECT_TRUE(world.Get(id, "friends")->AsSet() ==
                restored.Get(id, "friends")->AsSet());
  }
  // New spawns continue from the preserved id counter.
  EntityId next = restored.Spawn(0);
  EXPECT_GT(next, ids.back());
}

TEST(World, DeserializeRejectsGarbage) {
  Catalog catalog = MakeCatalog();
  World world(&catalog);
  EXPECT_FALSE(world.Deserialize("garbage").ok());
}

TEST(World, MemoryBytesGrowsWithRows) {
  Catalog catalog = MakeCatalog();
  World world(&catalog);
  size_t empty = world.MemoryBytes();
  for (int i = 0; i < 1000; ++i) world.Spawn(0);
  EXPECT_GT(world.MemoryBytes(), empty + 1000 * 3 * sizeof(double) / 2);
}

}  // namespace
}  // namespace sgl
