#include "decor/grid_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/require.hpp"
#include "coverage/benefit_index.hpp"
#include "geometry/grid_partition.hpp"

namespace decor::core {

namespace {

/// What one leader believes about its cell. Believed per-point coverage
/// and Equation-1 benefits live in the shared BenefitIndex (points are
/// labelled with their cell, and belief updates are cell-scoped), so the
/// cell record only keeps the counters the round loop steers by.
struct CellState {
  std::vector<std::uint32_t> point_ids;  // global ids of points in the cell
  std::size_t uncovered = 0;             // points believed below k
  bool has_leader = false;
  std::size_t members = 0;  // initial alive sensors (election accounting)
};

/// A placement decided this round, pending simultaneous application.
struct Decision {
  std::size_t cell;
  geom::Point2 pos;
  bool is_seed;
};

class GridEngine {
 public:
  GridEngine(Field& field, common::Rng& rng, EngineLimits limits)
      : field_(field),
        rng_(rng),
        limits_(limits),
        k_(field.params.k),
        rs_(field.params.rs),
        partition_(field.params.field, field.params.cell_side) {}

  DeploymentResult run();

 private:
  void build_initial_state();
  /// Cell `cell` learns of a disc at `pos`: its belief about its own
  /// points updates, nothing else.
  void local_add_disc(std::size_t cell, geom::Point2 pos, double radius);
  /// Best uncovered point of `cell` by local benefit; false if none.
  bool best_point(const CellState& cell, geom::Point2& out) const;
  void apply(const Decision& d, DeploymentResult& result);

  Field& field_;
  common::Rng& rng_;
  EngineLimits limits_;
  std::uint32_t k_;
  double rs_;
  geom::GridPartition partition_;
  std::vector<CellState> cells_;
  std::unique_ptr<coverage::BenefitIndex> beliefs_;
};

void GridEngine::build_initial_state() {
  cells_.assign(partition_.num_cells(), CellState{});
  const auto& index = field_.map.index();
  std::vector<std::int64_t> owners(index.size(), 0);
  for (std::size_t id = 0; id < index.size(); ++id) {
    const std::size_t c = partition_.cell_of(index.point(id));
    owners[id] = static_cast<std::int64_t>(c);
    cells_[c].point_ids.push_back(static_cast<std::uint32_t>(id));
  }
  // Beliefs start at zero coverage: a leader only knows what it is told.
  beliefs_ = std::make_unique<coverage::BenefitIndex>(
      field_.map.index_ptr(), rs_, k_, std::move(owners));
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    cells_[c].uncovered = cells_[c].point_ids.size();
  }
  // Leaders know the sensors inside their own cell and nothing beyond:
  // each initial sensor contributes only to its home cell's belief
  // (heterogeneous sensors contribute with their own radius).
  field_.sensors.for_each([&](const coverage::Sensor& s) {
    if (!s.alive) return;
    const std::size_t c = partition_.cell_of(s.pos);
    cells_[c].has_leader = true;
    ++cells_[c].members;
    local_add_disc(c, s.pos, s.rs > 0.0 ? s.rs : rs_);
  });
}

void GridEngine::local_add_disc(std::size_t cell, geom::Point2 pos,
                                double radius) {
  cells_[cell].uncovered -= beliefs_->add_disc_owned(
      pos, radius, static_cast<std::int64_t>(cell));
}

bool GridEngine::best_point(const CellState& cell, geom::Point2& out) const {
  // Benefit over the points this leader is responsible for (its own
  // cell), per Equation 1 evaluated on the leader's belief — an O(1)
  // read per candidate from the maintained index.
  std::uint64_t best_benefit = 0;
  bool found = false;
  for (const std::uint32_t pid : cell.point_ids) {
    if (beliefs_->count(pid) >= k_) continue;
    const std::uint64_t b = beliefs_->benefit(pid);
    if (!found || b > best_benefit) {
      best_benefit = b;
      out = field_.map.index().point(pid);
      found = true;
    }
  }
  return found;
}

void GridEngine::apply(const Decision& d, DeploymentResult& result) {
  field_.deploy(d.pos);
  ++result.placed_nodes;
  result.placements.push_back(d.pos);

  local_add_disc(d.cell, d.pos, rs_);
  auto& own = cells_[d.cell];
  if (d.is_seed) {
    own.has_leader = true;
    ++own.members;
    // The fresh leader queries each adjacent leader for the
    // cross-boundary placements it missed (one exchange per neighbor).
    for (std::size_t nb : partition_.neighbors_of(d.cell)) {
      if (cells_[nb].has_leader) ++result.messages;
    }
  }
  // Boundary reconciliation: inform each neighboring cell whose area the
  // new disc reaches. The belief update models what the notified leader
  // (present or future) learns; a message is only on the air when a
  // leader exists to receive it.
  for (std::size_t nb : partition_.neighbors_of(d.cell)) {
    if (!partition_.rect_of(nb).intersects_disc(d.pos, rs_)) continue;
    local_add_disc(nb, d.pos, rs_);
    if (cells_[nb].has_leader) ++result.messages;
  }
  if (limits_.on_place) limits_.on_place(result.placed_nodes, field_.map);
}

DeploymentResult GridEngine::run() {
  DeploymentResult result;
  result.initial_nodes = field_.sensors.alive_count();
  build_initial_state();
  result.cells = partition_.num_cells();

  // Election accounting: every member bids once, the winner announces.
  for (const auto& cell : cells_) {
    if (cell.members > 0) result.messages += cell.members + 1;
  }

  while (result.placed_nodes < limits_.max_new_nodes) {
    std::vector<Decision> decisions;

    // Leaders decide simultaneously on round-start knowledge.
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      auto& cell = cells_[c];
      if (!cell.has_leader || cell.uncovered == 0) continue;
      geom::Point2 pos;
      if (best_point(cell, pos)) {
        decisions.push_back(Decision{c, pos, false});
      }
    }

    // Seeding: an adjacent leader deploys a starter node into an
    // uncovered leaderless cell (one seeding directive message each).
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      auto& cell = cells_[c];
      if (cell.has_leader || cell.uncovered == 0) continue;
      bool adjacent_leader = false;
      for (std::size_t nb : partition_.neighbors_of(c)) {
        if (cells_[nb].has_leader) {
          adjacent_leader = true;
          break;
        }
      }
      if (!adjacent_leader) continue;
      // The seeding leader does not know the cell's interior, so it drops
      // the starter at the approximation point nearest the cell center.
      const geom::Point2 center = partition_.rect_of(c).center();
      double best_d = 0.0;
      geom::Point2 pos{};
      bool found = false;
      for (std::uint32_t pid : cell.point_ids) {
        const auto p = field_.map.index().point(pid);
        const double d2 = geom::distance_sq(p, center);
        if (!found || d2 < best_d) {
          best_d = d2;
          pos = p;
          found = true;
        }
      }
      if (found) {
        decisions.push_back(Decision{c, pos, true});
        ++result.messages;  // the seeding directive
      }
    }

    if (decisions.empty()) {
      // Either everything the leaders know of is covered, or uncovered
      // cells exist with no leader anywhere near them. The latter needs
      // out-of-band intervention (base station / robot): seed the worst
      // such cell directly.
      std::size_t worst = cells_.size();
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        if (cells_[c].has_leader || cells_[c].uncovered == 0) continue;
        if (worst == cells_.size() ||
            cells_[c].uncovered > cells_[worst].uncovered) {
          worst = c;
        }
      }
      if (worst == cells_.size()) break;  // all beliefs satisfied: done
      const geom::Point2 center = partition_.rect_of(worst).center();
      double best_d = 0.0;
      geom::Point2 pos{};
      bool found = false;
      for (std::uint32_t pid : cells_[worst].point_ids) {
        const auto p = field_.map.index().point(pid);
        const double d2 = geom::distance_sq(p, center);
        if (!found || d2 < best_d) {
          best_d = d2;
          pos = p;
          found = true;
        }
      }
      DECOR_ASSERT(found);
      decisions.push_back(Decision{worst, pos, true});
      ++result.messages;
    }

    ++result.rounds;
    // Randomize application order within the round; placements are
    // simultaneous, the shuffle only de-biases the placement trace.
    rng_.shuffle(decisions);
    for (const auto& d : decisions) {
      if (result.placed_nodes >= limits_.max_new_nodes) break;
      apply(d, result);
    }
  }

  result.reached_full_coverage = field_.map.fully_covered(k_);
  return result;
}

}  // namespace

DeploymentResult grid_decor(Field& field, common::Rng& rng,
                            EngineLimits limits) {
  return GridEngine(field, rng, limits).run();
}

}  // namespace decor::core
