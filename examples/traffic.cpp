// Traffic simulation: the §4.2 "simulate traffic networks with millions of
// vehicles" motivation, scaled to one machine. Car-following scripts whose
// neighbour search is a range join on position plus a lane equality; the
// compiler makes the lane a degenerate range dim, and the cost-based
// optimizer chooses between the grid and a nested loop.
//
// Run: ./build/example_traffic [vehicles] [ticks]

#include <cstdio>
#include <cstdlib>

#include "src/sim/traffic.h"

int main(int argc, char** argv) {
  int vehicles = argc > 1 ? std::atoi(argv[1]) : 20000;
  int ticks = argc > 2 ? std::atoi(argv[2]) : 60;

  sgl::TrafficConfig config;
  config.num_vehicles = vehicles;
  config.num_lanes = 32;
  sgl::EngineOptions options;
  options.exec.planner.mode = sgl::PlanMode::kCostBased;

  auto engine_or = sgl::TrafficWorkload::Build(config, options);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "%s\n", engine_or.status().ToString().c_str());
    return 1;
  }
  auto engine = std::move(engine_or).value();

  std::printf("%d vehicles on %d lanes of a %.0f-unit ring road\n\n",
              vehicles, config.num_lanes, config.road_length);
  std::printf("%6s %12s %12s %10s %s\n", "tick", "mean_speed", "tick_ms",
              "pairs", "strategy");

  double total_ms = 0;
  for (int t = 0; t < ticks; ++t) {
    if (!engine->Tick().ok()) return 1;
    const sgl::TickStats& stats = engine->last_stats();
    total_ms += static_cast<double>(stats.total_micros) / 1000.0;
    if (t % 10 == 0) {
      std::printf("%6d %12.2f %12.2f %10lld %s\n", t,
                  sgl::TrafficWorkload::MeanSpeed(engine.get()),
                  static_cast<double>(stats.total_micros) / 1000.0,
                  stats.sites.empty()
                      ? 0LL
                      : static_cast<long long>(stats.sites[0].matches),
                  stats.sites.empty()
                      ? "-"
                      : sgl::JoinStrategyName(stats.sites[0].strategy));
    }
    if (!sgl::TrafficWorkload::PositionsInBounds(engine.get(),
                                                 config.road_length)) {
      std::fprintf(stderr, "vehicle left the road at tick %d!\n", t);
      return 1;
    }
  }
  std::printf("\n%.0f vehicle-ticks/second\n",
              static_cast<double>(vehicles) * ticks / (total_ms / 1000.0));
  return 0;
}
