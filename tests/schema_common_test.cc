// Foundations: Status/StatusOr, Value/EntitySet, Rng determinism, thread
// pool, SGL types, combinators, class definitions and catalog resolution.

#include <gtest/gtest.h>

#include <atomic>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/schema/catalog.h"

namespace sgl {
namespace {

// --- Status -----------------------------------------------------------------

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status err = Status::ParseError("bad token");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(StatusCode::kParseError, err.code());
  EXPECT_EQ("ParseError: bad token", err.ToString());
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  SGL_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(Status, StatusOrMacros) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(5, out);
  EXPECT_EQ(StatusCode::kInvalidArgument, UseHalf(7, &out).code());
}

// --- Value / EntitySet --------------------------------------------------------

TEST(Value, KindsAndEquality) {
  EXPECT_TRUE(Value::Number(3).is_number());
  EXPECT_TRUE(Value::Bool(true).is_bool());
  EXPECT_TRUE(Value::Ref(7).is_ref());
  EXPECT_TRUE(Value::Set(EntitySet({1, 2})).is_set());
  EXPECT_EQ(Value::Number(3), Value::Number(3));
  EXPECT_FALSE(Value::Number(3) == Value::Number(4));
  EXPECT_EQ("3.5", Value::Number(3.5).ToString());
  EXPECT_EQ("@7", Value::Ref(7).ToString());
  EXPECT_EQ("{1,2}", Value::Set(EntitySet({2, 1, 2})).ToString());
}

TEST(EntitySet, InsertEraseContains) {
  EntitySet s;
  EXPECT_TRUE(s.Insert(5));
  EXPECT_TRUE(s.Insert(3));
  EXPECT_FALSE(s.Insert(5));
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(4));
  EXPECT_TRUE(s.Erase(3));
  EXPECT_FALSE(s.Erase(3));
  EXPECT_EQ(1u, s.size());
}

TEST(EntitySet, UnionIntersect) {
  EntitySet a({1, 2, 3});
  EntitySet b({3, 4});
  std::vector<EntityId> scratch;
  EntitySet u = a;
  u.UnionWith(b, &scratch);
  EXPECT_EQ(EntitySet({1, 2, 3, 4}), u);
  EntitySet i = a;
  i.IntersectWith(b);
  EXPECT_EQ(EntitySet({3}), i);
}

// The small-size-optimized representation: sets at or below the inline
// capacity never touch the heap; spilling preserves contents and order; a
// spilled set keeps its heap buffer (capacity is a high-water mark), so
// copy-assigning a similarly sized value back in is allocation-free.
TEST(EntitySet, InlineAndSpillRepresentation) {
  EntitySet s;
  for (size_t k = 0; k < EntitySet::kInlineCapacity; ++k) {
    EXPECT_TRUE(s.Insert(static_cast<EntityId>(100 - k)));
  }
  EXPECT_EQ(0u, s.HeapBytes());  // still inline
  EXPECT_TRUE(s.Insert(1000));   // spills
  EXPECT_GT(s.HeapBytes(), 0u);
  EXPECT_EQ(EntitySet::kInlineCapacity + 1, s.size());
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  EXPECT_TRUE(s.Contains(1000));

  const size_t heap_bytes = s.HeapBytes();
  EntitySet copy = s;  // copies spill too
  EXPECT_EQ(copy, s);
  s.clear();
  EXPECT_EQ(heap_bytes, s.HeapBytes());  // capacity survives clear
  s = copy;                              // refills the existing buffer
  EXPECT_EQ(heap_bytes, s.HeapBytes());
  EXPECT_EQ(copy, s);

  EntitySet moved = std::move(s);  // steals the heap buffer
  EXPECT_EQ(copy, moved);
  EXPECT_TRUE(s.empty());  // NOLINT(bugprone-use-after-move): documented
  EXPECT_EQ(0u, s.HeapBytes());
}

// --- Rng ------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool diverged = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, UniformRanges) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LT(v, 5);
    uint64_t n = rng.NextBelow(10);
    EXPECT_LT(n, 10u);
    int64_t k = rng.UniformInt(2, 4);
    EXPECT_GE(k, 2);
    EXPECT_LE(k, 4);
  }
}

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(1, h.load());
}

// --- Types / combinators ------------------------------------------------------

TEST(SglType, ToStringAndDefaults) {
  EXPECT_EQ("number", SglType::Number().ToString());
  EXPECT_EQ("ref<Unit>", SglType::Ref("Unit").ToString());
  EXPECT_EQ("set<Item>", SglType::Set("Item").ToString());
  EXPECT_TRUE(SglType::Number().DefaultValue().is_number());
  EXPECT_EQ(kNullEntity, SglType::Ref("U").DefaultValue().AsRef());
}

TEST(Combinator, NamesRoundTrip) {
  for (Combinator c :
       {Combinator::kSum, Combinator::kAvg, Combinator::kMin,
        Combinator::kMax, Combinator::kCount, Combinator::kOr,
        Combinator::kAnd, Combinator::kFirst, Combinator::kLast,
        Combinator::kUnion}) {
    auto parsed = CombinatorFromName(CombinatorName(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(c, *parsed);
  }
  EXPECT_FALSE(CombinatorFromName("bogus").has_value());
}

TEST(Combinator, ValidityMatrix) {
  EXPECT_TRUE(CombinatorValidFor(Combinator::kSum, SglType::Number()));
  EXPECT_FALSE(CombinatorValidFor(Combinator::kSum, SglType::Bool()));
  EXPECT_TRUE(CombinatorValidFor(Combinator::kOr, SglType::Bool()));
  EXPECT_FALSE(CombinatorValidFor(Combinator::kOr, SglType::Number()));
  EXPECT_TRUE(CombinatorValidFor(Combinator::kFirst, SglType::Ref("U")));
  EXPECT_FALSE(CombinatorValidFor(Combinator::kFirst, SglType::Set("U")));
  EXPECT_TRUE(CombinatorValidFor(Combinator::kUnion, SglType::Set("U")));
  EXPECT_FALSE(CombinatorValidFor(Combinator::kUnion, SglType::Number()));
}

TEST(Combinator, NumericFolding) {
  EXPECT_DOUBLE_EQ(0.0, NumericIdentity(Combinator::kSum));
  EXPECT_DOUBLE_EQ(5.0,
                   CombineNumeric(Combinator::kSum,
                                  CombineNumeric(Combinator::kSum, 0, 2), 3));
  EXPECT_DOUBLE_EQ(
      2.0, CombineNumeric(Combinator::kMin,
                          NumericIdentity(Combinator::kMin), 2));
  auto avg = FinalizeNumeric(Combinator::kAvg, 10.0, 4);
  ASSERT_TRUE(avg.has_value());
  EXPECT_DOUBLE_EQ(2.5, *avg);
  EXPECT_FALSE(FinalizeNumeric(Combinator::kSum, 0, 0).has_value());
}

// --- Catalog -------------------------------------------------------------

TEST(Catalog, ResolvesMutualReferences) {
  Catalog catalog;
  ClassDef a("A");
  ASSERT_TRUE(a.AddState("other", SglType::Ref("B")).ok());
  ClassDef b("B");
  ASSERT_TRUE(b.AddState("others", SglType::Set("A")).ok());
  ASSERT_TRUE(catalog.Register(std::move(a)).ok());
  ASSERT_TRUE(catalog.Register(std::move(b)).ok());
  ASSERT_TRUE(catalog.Finalize().ok());
  ClassId a_id = catalog.Find("A");
  ClassId b_id = catalog.Find("B");
  EXPECT_EQ(b_id, catalog.Get(a_id).state_field(0).type.target);
  EXPECT_EQ(a_id, catalog.Get(b_id).state_field(0).type.target);
}

TEST(Catalog, DuplicateClassRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Register(ClassDef("A")).ok());
  EXPECT_EQ(StatusCode::kAlreadyExists,
            catalog.Register(ClassDef("A")).status().code());
}

TEST(Catalog, DanglingRefFailsFinalize) {
  Catalog catalog;
  ClassDef a("A");
  ASSERT_TRUE(a.AddState("other", SglType::Ref("Missing")).ok());
  ASSERT_TRUE(catalog.Register(std::move(a)).ok());
  EXPECT_EQ(StatusCode::kNotFound, catalog.Finalize().code());
}

}  // namespace
}  // namespace sgl
