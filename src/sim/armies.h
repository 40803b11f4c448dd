// Armies workload (E12): large-map pathfinding under goal churn — the
// async-job stress scenario.
//
// N soldiers, grouped into armies, march across a walled grid map toward
// per-army rally points; a host-side Retarget step periodically reassigns
// the rally points (the "orders changed" churn that forces repathing).
// Every soldier requests a path every tick (goal effects with `last`
// combinators), so the pathfinder — synchronous (src/update/pathfind.h) or
// asynchronous (src/async/async_pathfind.h) — is the dominant update-phase
// cost: exactly the workload where moving A* off the tick's critical path
// pays.

#ifndef SGL_SIM_ARMIES_H_
#define SGL_SIM_ARMIES_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/engine.h"

namespace sgl {

struct ArmiesConfig {
  int num_units = 4096;
  int num_armies = 8;
  int map_w = 96;
  int map_h = 96;
  double cell = 1.0;
  double wall_density = 0.06;  ///< random blocked cells
  int num_rally = 8;           ///< rally points armies rotate through
  uint64_t seed = 42;

  /// false: synchronous PathfinderComponent (the per-tick blocking A*).
  /// true: AsyncPathfindComponent over the executor's JobService
  /// (options.exec.jobs selects the worker count).
  bool async_pathfind = true;
  /// Async-only tuning (cls/field names are filled in by Build).
  AsyncPathfinderConfig async;
};

class ArmiesWorkload {
 public:
  /// The SGL program: Soldier class + March script; movement follows the
  /// pathfinder-owned waypoint.
  static std::string Source();

  /// The deterministic walled map for `config` (also used by tests to
  /// place probes).
  static GridMap BuildMap(const ArmiesConfig& config);

  /// Rally cells (unblocked, deterministic from the seed).
  static std::vector<std::pair<int, int>> RallyCells(
      const ArmiesConfig& config);

  /// Compiles the program, builds the map, spawns the armies, attaches
  /// the configured pathfinder.
  static StatusOr<std::unique_ptr<Engine>> Build(const ArmiesConfig& config,
                                                 const EngineOptions& options);

  /// Goal churn: rotates every army to its round-`round` rally point
  /// (direct column writes — allocation-free, usable mid-measurement).
  static void Retarget(Engine* engine, const ArmiesConfig& config, int round);
};

}  // namespace sgl

#endif  // SGL_SIM_ARMIES_H_
