// Update components (§2.2): physics integration/collision/override
// accounting, the goal-field path search, and ownership-partition
// enforcement.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/engine.h"

namespace sgl {
namespace {

const char* kPhysicsWorld = R"sgl(
class Body {
  state:
    number x = 0;
    number y = 0;
    number vx = 0;
    number vy = 0;
    number radius = 1;
}
script Push for Body {
  fx <- 1;
  fy <- 0;
}
)sgl";

// The Body class needs the force effects; build the full source.
std::string PhysicsSource() {
  return R"sgl(
class Body {
  state:
    number x = 0;
    number y = 0;
    number vx = 0;
    number vy = 0;
    number radius = 1;
  effects:
    number fx : sum;
    number fy : sum;
}
script Push for Body {
  fx <- 1;
  fy <- 0;
}
)sgl";
}

PhysicsConfig BodyPhysics() {
  PhysicsConfig config;
  config.cls = "Body";
  config.radius = "radius";
  config.max_speed = 5;
  config.min_x = 0;
  config.min_y = 0;
  config.max_x = 100;
  config.max_y = 100;
  return config;
}

TEST(Physics, IntegratesForceIntents) {
  (void)kPhysicsWorld;
  auto engine = Engine::Create(PhysicsSource());
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->AddPhysics(BodyPhysics()).ok());
  auto id = (*engine)->Spawn("Body", {{"x", Value::Number(10)},
                                      {"y", Value::Number(50)}});
  ASSERT_TRUE((*engine)->Tick().ok());
  // v: 0 -> 1; x: 10 -> 11.
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*id, "vx")->AsNumber());
  EXPECT_DOUBLE_EQ(11.0, (*engine)->Get(*id, "x")->AsNumber());
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(2.0, (*engine)->Get(*id, "vx")->AsNumber());
  EXPECT_DOUBLE_EQ(13.0, (*engine)->Get(*id, "x")->AsNumber());
}

TEST(Physics, SpeedClamped) {
  auto engine = Engine::Create(PhysicsSource());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AddPhysics(BodyPhysics()).ok());
  auto id = (*engine)->Spawn("Body", {{"x", Value::Number(10)},
                                      {"y", Value::Number(50)}});
  ASSERT_TRUE((*engine)->RunTicks(20).ok());
  EXPECT_LE((*engine)->Get(*id, "vx")->AsNumber(), 5.0 + 1e-9);
}

TEST(Physics, OverlappingBodiesSeparate) {
  auto engine = Engine::Create(PhysicsSource());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AddPhysics(BodyPhysics()).ok());
  auto a = (*engine)->Spawn("Body", {{"x", Value::Number(50)},
                                     {"y", Value::Number(50)}});
  auto b = (*engine)->Spawn("Body", {{"x", Value::Number(50.5)},
                                     {"y", Value::Number(50)}});
  ASSERT_TRUE((*engine)->Tick().ok());
  double ax = (*engine)->Get(*a, "x")->AsNumber();
  double ay = (*engine)->Get(*a, "y")->AsNumber();
  double bx = (*engine)->Get(*b, "x")->AsNumber();
  double by = (*engine)->Get(*b, "y")->AsNumber();
  double d = std::hypot(ax - bx, ay - by);
  EXPECT_GE(d, 1.9) << "radius-1 circles should separate to ~2 apart";
}

TEST(Physics, BoundsBounce) {
  auto engine = Engine::Create(PhysicsSource());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AddPhysics(BodyPhysics()).ok());
  auto id = (*engine)->Spawn("Body", {{"x", Value::Number(99)},
                                      {"y", Value::Number(50)},
                                      {"vx", Value::Number(4)}});
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_LE((*engine)->Get(*id, "x")->AsNumber(), 100.0);
  EXPECT_LT((*engine)->Get(*id, "vx")->AsNumber(), 0.0) << "bounced";
}

TEST(Physics, IntentionOverridesCounted) {
  // §2.2: physics output differs from script intention; the override
  // counter quantifies it.
  auto engine = Engine::Create(PhysicsSource());
  ASSERT_TRUE(engine.ok());
  auto comp = PhysicsComponent::Create((*engine)->catalog(), BodyPhysics());
  ASSERT_TRUE(comp.ok());
  PhysicsComponent* physics = comp->get();
  ASSERT_TRUE((*engine)->AddComponent(std::move(*comp)).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*engine)
                    ->Spawn("Body", {{"x", Value::Number(50 + 0.1 * i)},
                                     {"y", Value::Number(50)}})
                    .ok());
  }
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_GT(physics->last_tick().collision_pairs, 0);
  EXPECT_GT(physics->last_tick().position_overrides, 0);
}

TEST(Physics, OwnershipConflictWithUpdateRuleRejected) {
  // An update rule on x conflicts with physics owning x.
  const char* src = R"sgl(
class Body {
  state:
    number x = 0;
    number y = 0;
    number vx = 0;
    number vy = 0;
  effects:
    number fx : sum;
    number fy : sum;
  update:
    x = x + 1;
}
)sgl";
  auto engine = Engine::Create(src);
  ASSERT_TRUE(engine.ok()) << engine.status();
  PhysicsConfig config;
  config.cls = "Body";
  Status st = (*engine)->AddPhysics(config);
  EXPECT_EQ(StatusCode::kAlreadyExists, st.code()) << st;
}

// --- Pathfinding ----------------------------------------------------------

/// The goal field toward (gx, gy), as GoalField writes it.
std::vector<uint64_t> FieldTo(const GridMap& map, int gx, int gy,
                              const uint8_t* occ = nullptr,
                              int penalty_units = 0) {
  const size_t n = static_cast<size_t>(map.width()) *
                   static_cast<size_t>(map.height());
  FieldScratch scratch;
  scratch.Fit(n, penalty_units);
  std::vector<uint64_t> next(n);
  GoalField(map, occ, penalty_units,
            static_cast<uint32_t>(gy * map.width() + gx), &scratch,
            next.data());
  return next;
}

/// The cells the field walks from (sx, sy), start included, until a cell
/// points at itself (the goal, or no path).
std::vector<std::pair<int, int>> Follow(const GridMap& map,
                                        const std::vector<uint64_t>& next,
                                        int sx, int sy) {
  const int w = map.width();
  std::vector<std::pair<int, int>> path = {{sx, sy}};
  uint64_t c = static_cast<uint64_t>(sy * w + sx);
  while (next[c] != c && path.size() <= next.size()) {
    c = next[c];
    path.emplace_back(static_cast<int>(c % w), static_cast<int>(c / w));
  }
  return path;
}

TEST(GoalField, DetoursAroundWall) {
  GridMap map(10, 10, 1.0);
  for (int y = 0; y < 9; ++y) map.SetBlocked(5, y, true);  // wall with gap
  const auto path = Follow(map, FieldTo(map, 8, 1), 1, 1);
  EXPECT_EQ(std::make_pair(1, 1), path.front());
  EXPECT_EQ(std::make_pair(8, 1), path.back());
  // Must route through the gap at y=9, one 4-neighbour step at a time.
  bool through_gap = false;
  for (size_t i = 0; i < path.size(); ++i) {
    const auto [x, y] = path[i];
    EXPECT_FALSE(map.Blocked(x, y));
    if (i > 0) {
      EXPECT_EQ(1, std::abs(x - path[i - 1].first) +
                       std::abs(y - path[i - 1].second));
    }
    if (x == 5 && y == 9) through_gap = true;
  }
  EXPECT_TRUE(through_gap);
  // Path length: manhattan detour = |8-1| + 2*|9-1| = 23 steps -> 24 cells.
  EXPECT_EQ(24u, path.size());
}

TEST(GoalField, CellsWithNoPathPointAtThemselves) {
  GridMap map(10, 10, 1.0);
  for (int y = 0; y < 10; ++y) map.SetBlocked(5, y, true);  // full wall
  const auto next = FieldTo(map, 8, 1);
  EXPECT_EQ(11u, next[1 * 10 + 1]) << "cut off by the wall";
  EXPECT_EQ(35u, next[3 * 10 + 5]) << "a wall cell";
  EXPECT_EQ(std::make_pair(8, 1), Follow(map, next, 6, 7).back());
  // A walled goal reaches nothing, not even its neighbours.
  map.SetBlocked(8, 1, true);
  const auto blocked = FieldTo(map, 8, 1);
  for (size_t c = 0; c < blocked.size(); ++c) EXPECT_EQ(c, blocked[c]);
}

TEST(GoalField, GoalPointsAtItself) {
  GridMap map(5, 5, 1.0);
  const auto next = FieldTo(map, 2, 2);
  EXPECT_EQ(12u, next[12]);
  EXPECT_EQ(1u, Follow(map, next, 2, 2).size());
}

// The field against a brute-force Bellman-Ford in the test, on seeded
// random walled maps with random occupancy: each cell's next is exactly
// the open neighbour with the least step cost plus distance (ties to the
// lower index), and the cost along the followed cells is the distance.
TEST(GoalField, MatchesBellmanFordOnRandomMaps) {
  constexpr uint64_t kInf = UINT64_MAX;
  Rng rng(2006);
  for (int rep = 0; rep < 60; ++rep) {
    const int w = 2 + static_cast<int>(rng.NextBelow(20));
    const int h = 2 + static_cast<int>(rng.NextBelow(20));
    const size_t n = static_cast<size_t>(w) * static_cast<size_t>(h);
    GridMap map(w, h, 1.0);
    std::vector<uint8_t> occ(n);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        map.SetBlocked(x, y, rng.Bernoulli(0.25));
        occ[static_cast<size_t>(y * w + x)] =
            static_cast<uint8_t>(rng.NextBelow(rep % 3 == 0 ? 1 : 6));
      }
    }
    const int penalty = static_cast<int>(rng.NextBelow(9));
    const int gx = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(w)));
    const int gy = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(h)));
    const size_t goal = static_cast<size_t>(gy * w + gx);
    SCOPED_TRACE("rep " + std::to_string(rep));
    auto open = [&](size_t c) {
      return !map.Blocked(static_cast<int>(c % w), static_cast<int>(c / w));
    };
    auto cost = [&](size_t c) {
      return static_cast<uint64_t>(kStepCost) +
             static_cast<uint64_t>(penalty) * occ[c];
    };
    // Neighbours of c in ascending cell index.
    auto neighbours = [&](size_t c) {
      std::vector<size_t> out;
      const int x = static_cast<int>(c % w), y = static_cast<int>(c / w);
      if (y > 0) out.push_back(c - static_cast<size_t>(w));
      if (x > 0) out.push_back(c - 1);
      if (x + 1 < w) out.push_back(c + 1);
      if (y + 1 < h) out.push_back(c + static_cast<size_t>(w));
      return out;
    };
    std::vector<uint64_t> dist(n, kInf);
    if (open(goal)) dist[goal] = 0;
    for (bool changed = true; changed;) {
      changed = false;
      for (size_t c = 0; c < n; ++c) {
        if (!open(c)) continue;
        for (size_t d : neighbours(c)) {
          if (dist[d] != kInf && cost(d) + dist[d] < dist[c]) {
            dist[c] = cost(d) + dist[d];
            changed = true;
          }
        }
      }
    }
    const auto next = FieldTo(map, gx, gy, occ.data(), penalty);
    for (size_t c = 0; c < n; ++c) {
      size_t want = c;
      if (c != goal && dist[c] != kInf) {
        uint64_t best = kInf;
        for (size_t d : neighbours(c)) {
          if (dist[d] != kInf && cost(d) + dist[d] < best) {
            best = cost(d) + dist[d];
            want = d;
          }
        }
      }
      ASSERT_EQ(want, next[c]) << "cell " << c;
      if (dist[c] == kInf) continue;
      uint64_t walked = 0;
      const auto path = Follow(map, next, static_cast<int>(c % w),
                               static_cast<int>(c / w));
      for (size_t i = 1; i < path.size(); ++i) {
        walked += cost(static_cast<size_t>(path[i].second * w +
                                           path[i].first));
      }
      EXPECT_EQ(std::make_pair(gx, gy), path.back()) << "cell " << c;
      EXPECT_EQ(dist[c], walked) << "cell " << c;
    }
  }
}

// Regression: CellX/CellY used to truncate toward zero, folding
// coordinates just left of / below the map into cell 0 (inside the map)
// instead of cell -1 (out of bounds).
TEST(GridMapTest, NegativeCoordinatesFloorOutOfBounds) {
  GridMap map(10, 10, 1.0);
  EXPECT_EQ(-1, map.CellX(-0.25));
  EXPECT_EQ(-1, map.CellY(-0.25));
  EXPECT_EQ(-1, map.CellX(-1.0 + 1e-9));  // still inside cell -1
  EXPECT_EQ(-2, map.CellX(-1.5));
  EXPECT_EQ(0, map.CellX(0.0));
  EXPECT_EQ(0, map.CellX(0.75));
  EXPECT_EQ(9, map.CellX(9.75));
  EXPECT_TRUE(map.Blocked(map.CellX(-0.25), map.CellY(5.0)));
  EXPECT_TRUE(map.Blocked(map.CellX(5.0), map.CellY(-0.25)));
  EXPECT_FALSE(map.Blocked(map.CellX(0.25), map.CellY(0.25)));

  GridMap coarse(10, 10, 2.5);  // non-unit cells floor the scaled value
  EXPECT_EQ(-1, coarse.CellX(-0.1));
  EXPECT_EQ(0, coarse.CellX(2.4));
  EXPECT_EQ(1, coarse.CellX(2.5));
}

}  // namespace
}  // namespace sgl
