// Traffic simulation workload (§4.2: "we are currently working on a project
// to simulate traffic networks with millions of vehicles").
//
// A synthetic multi-lane ring road network. Each vehicle runs a
// car-following script: an accum-loop finds the nearest leader in its lane
// within a look-ahead horizon (a range join on position plus a lane
// equality, which the compiler turns into a degenerate lo == hi range dim,
// so the grid indexes lane and position together) and accelerates or brakes
// to keep a safe gap. Positions wrap modulo the
// road length, so the fleet circulates forever.

#ifndef SGL_SIM_TRAFFIC_H_
#define SGL_SIM_TRAFFIC_H_

#include <memory>
#include <string>

#include "src/engine/engine.h"

namespace sgl {

struct TrafficConfig {
  int num_vehicles = 10000;
  int num_lanes = 16;
  double road_length = 10000.0;
  double horizon = 40.0;    ///< car-following look-ahead distance
  uint64_t seed = 7;
};

class TrafficWorkload {
 public:
  static std::string Source();

  static StatusOr<std::unique_ptr<Engine>> Build(
      const TrafficConfig& config, const EngineOptions& options);

  /// Mean vehicle speed (flow probe for tests/benches).
  static double MeanSpeed(Engine* engine);

  /// True if every vehicle position is inside [0, road_length).
  static bool PositionsInBounds(Engine* engine, double road_length);
};

}  // namespace sgl

#endif  // SGL_SIM_TRAFFIC_H_
