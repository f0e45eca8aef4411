#include "decor/centralized.hpp"

#include "coverage/benefit_index.hpp"

namespace decor::core {

DeploymentResult centralized_greedy(Field& field, EngineLimits limits) {
  const std::uint32_t k = field.params.k;
  auto& map = field.map;

  DeploymentResult result;
  result.initial_nodes = field.sensors.alive_count();
  result.rounds = 1;

  // The index seeds from the map's current counts (parallel bulk rebuild)
  // and thereafter tracks every placement with a 2*rs delta update, so
  // each iteration's arg-max is one lazy heap query instead of a rescan.
  coverage::BenefitIndex index(map, k);

  while (result.placed_nodes < limits.max_new_nodes) {
    const auto best = index.best();
    if (!best) break;  // every point k-covered
    const geom::Point2 pos = map.index().point(best->point);
    field.deploy(pos);
    index.add_disc(pos, map.rs());
    ++result.placed_nodes;
    result.placements.push_back(pos);
    if (limits.on_place) limits.on_place(result.placed_nodes, map);
  }
  result.reached_full_coverage = map.fully_covered(k);
  return result;
}

DeploymentResult centralized_greedy_reference(Field& field,
                                              EngineLimits limits) {
  const std::uint32_t k = field.params.k;
  auto& map = field.map;

  DeploymentResult result;
  result.initial_nodes = field.sensors.alive_count();
  result.rounds = 1;

  while (result.placed_nodes < limits.max_new_nodes) {
    // Candidates are exactly the uncovered approximation points
    // (Algorithm 1 places new sensors *at* points of the set).
    const auto candidates = map.uncovered_points(k);
    if (candidates.empty()) {
      result.reached_full_coverage = true;
      break;
    }
    std::uint64_t best_benefit = 0;
    std::size_t best_point = candidates.front();
    for (std::size_t id : candidates) {
      const std::uint64_t b = map.benefit(map.index().point(id), k);
      if (b > best_benefit) {
        best_benefit = b;
        best_point = id;
      }
    }
    const geom::Point2 pos = map.index().point(best_point);
    field.deploy(pos);
    ++result.placed_nodes;
    result.placements.push_back(pos);
    if (limits.on_place) limits.on_place(result.placed_nodes, map);
  }
  if (!result.reached_full_coverage && map.fully_covered(k)) {
    result.reached_full_coverage = true;
  }
  return result;
}

}  // namespace decor::core
