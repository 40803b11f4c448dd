#include "src/sim/armies.h"

#include <algorithm>

#include "src/common/rng.h"

namespace sgl {

std::string ArmiesWorkload::Source() {
  return R"sgl(
class Soldier {
  state:
    number army = 0;
    number x = 0;
    number y = 0;
    number waypoint_x = 0;
    number waypoint_y = 0;
    number tx = 0;
    number ty = 0;
  effects:
    number goal_x : last;
    number goal_y : last;
  update:
    x = waypoint_x;
    y = waypoint_y;
}

script March for Soldier {
  goal_x <- tx;
  goal_y <- ty;
}
)sgl";
}

GridMap ArmiesWorkload::BuildMap(const ArmiesConfig& config) {
  GridMap map(config.map_w, config.map_h, config.cell);
  Rng rng(config.seed ^ 0x6d617000ULL);  // independent wall stream
  for (int y = 0; y < config.map_h; ++y) {
    for (int x = 0; x < config.map_w; ++x) {
      if (rng.Bernoulli(config.wall_density)) map.SetBlocked(x, y, true);
    }
  }
  // Rally cells stay open (same stream as RallyCells).
  for (const auto& [rx, ry] : RallyCells(config)) {
    map.SetBlocked(rx, ry, false);
  }
  return map;
}

std::vector<std::pair<int, int>> ArmiesWorkload::RallyCells(
    const ArmiesConfig& config) {
  std::vector<std::pair<int, int>> rallies;
  Rng rng(config.seed ^ 0x72616c79ULL);  // "raly"
  while (static_cast<int>(rallies.size()) < config.num_rally) {
    int rx = static_cast<int>(rng.NextBelow(
        static_cast<uint64_t>(config.map_w)));
    int ry = static_cast<int>(rng.NextBelow(
        static_cast<uint64_t>(config.map_h)));
    rallies.emplace_back(rx, ry);
  }
  return rallies;
}

StatusOr<std::unique_ptr<Engine>> ArmiesWorkload::Build(
    const ArmiesConfig& config, const EngineOptions& options) {
  if (!config.async_pathfind) {
    return Status::InvalidArgument(
        "armies: async_pathfind = false asked for the synchronous "
        "pathfinder, which no longer exists");
  }
  SGL_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                       Engine::Create(Source(), options));
  GridMap map = BuildMap(config);
  const auto rallies = RallyCells(config);
  Rng rng(config.seed);
  for (int i = 0; i < config.num_units; ++i) {
    const int army = i % config.num_armies;
    // Spawn on an unblocked cell (rejection sampling off the same stream).
    int cx, cy;
    do {
      cx = static_cast<int>(rng.NextBelow(
          static_cast<uint64_t>(config.map_w)));
      cy = static_cast<int>(rng.NextBelow(
          static_cast<uint64_t>(config.map_h)));
    } while (map.Blocked(cx, cy));
    const double x = map.CenterX(cx);
    const double y = map.CenterY(cy);
    const auto& rally =
        rallies[static_cast<size_t>(army % config.num_rally)];
    const double tx = map.CenterX(rally.first);
    const double ty = map.CenterY(rally.second);
    SGL_RETURN_IF_ERROR(
        engine
            ->Spawn("Soldier",
                    {{"army", Value::Number(army)},
                     {"x", Value::Number(x)},
                     {"y", Value::Number(y)},
                     {"waypoint_x", Value::Number(x)},
                     {"waypoint_y", Value::Number(y)},
                     {"tx", Value::Number(tx)},
                     {"ty", Value::Number(ty)}})
            .status());
  }
  AsyncPathfinderConfig async = config.async;
  async.cls = "Soldier";
  SGL_RETURN_IF_ERROR(engine->AddAsyncPathfinder(async, std::move(map)));
  return engine;
}

void ArmiesWorkload::Retarget(Engine* engine, const ArmiesConfig& config,
                              int round) {
  const auto rallies = RallyCells(config);
  World& world = engine->world();
  const ClassId cls = engine->catalog().Find("Soldier");
  EntityTable& table = world.table(cls);
  const ClassDef& def = engine->catalog().Get(cls);
  ConstNumberColumn army = table.Num(def.FindState("army"));
  NumberColumn tx = table.Num(def.FindState("tx"));
  NumberColumn ty = table.Num(def.FindState("ty"));
  for (size_t i = 0; i < table.size(); ++i) {
    const int a = static_cast<int>(army[i]);
    const auto& rally = rallies[static_cast<size_t>(
        (a + round) % config.num_rally)];
    tx.at(i) = (rally.first + 0.5) * config.cell;
    ty.at(i) = (rally.second + 0.5) * config.cell;
  }
}

}  // namespace sgl
