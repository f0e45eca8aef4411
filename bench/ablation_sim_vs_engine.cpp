// Ablation: protocol simulation vs round-based emulation.
//
// The figure harnesses use the fast round-based engines; the discrete-
// event runners execute the same algorithms as real message-passing
// protocols (hello, heartbeats, elections, placement notices). This bench
// runs both on identical small fields and compares total node counts —
// grounding the emulation's fidelity — and reports the protocol traffic
// the emulation abstracts away.
#include <iostream>

#include "decor/voronoi_sim.hpp"
#include "fig_common.hpp"
#include "lds/random_points.hpp"

int main(int argc, char** argv) {
  using namespace decor;
  const common::Options opts(argc, argv);
  bench::FigSetup setup(opts);
  setup.base.field = geom::make_rect(0, 0, 30, 30);
  setup.base.num_points = 350;
  setup.base.cell_side = 5.0;
  setup.initial_nodes = 15;
  bench::print_header("Ablation: sim vs engine",
                      "event-driven protocol vs round-based emulation",
                      setup);

  common::SeriesTable table("k");
  for (std::uint32_t k = 1; k <= 2; ++k) {
    for (std::size_t trial = 0; trial < setup.trials; ++trial) {
      auto params = setup.base;
      params.k = k;
      common::Rng init_rng = setup.trial_rng(trial, 24);
      const auto initial =
          lds::random_points(params.field, setup.initial_nodes, init_rng);

      // Round-based engines on a field seeded with the same sensors.
      {
        common::Rng rng = setup.trial_rng(trial, 240);
        common::Rng field_rng(params.scramble_seed + 1);
        core::Field field(params, field_rng);
        for (const auto& p : initial) field.deploy(p);
        const auto grid = core::grid_decor(field, rng);
        table.add(k, "engine_grid_total",
                  static_cast<double>(grid.total_nodes()));
      }
      {
        common::Rng rng = setup.trial_rng(trial, 241);
        common::Rng field_rng(params.scramble_seed + 1);
        core::Field field(params, field_rng);
        for (const auto& p : initial) field.deploy(p);
        const auto voronoi = core::voronoi_decor(field, rng);
        table.add(k, "engine_voronoi_total",
                  static_cast<double>(voronoi.total_nodes()));
      }

      // Event-driven protocol runs.
      core::RunConfig cfg;
      cfg.params = params;
      cfg.initial_positions = initial;
      cfg.seed = setup.seed + trial;
      cfg.run_time = 240.0;
      const auto grid = core::run_grid_decor_sim(core::SimRunConfig{cfg});
      table.add(k, "sim_grid_total",
                static_cast<double>(grid.initial_nodes + grid.placed_nodes));
      table.add(k, "sim_grid_radio_tx", static_cast<double>(grid.radio_tx));
      const auto voronoi =
          core::run_voronoi_decor_sim(core::VoronoiSimConfig{cfg});
      table.add(k, "sim_voronoi_total",
                static_cast<double>(voronoi.initial_nodes +
                                    voronoi.placed_nodes));
      table.add(k, "sim_voronoi_radio_tx",
                static_cast<double>(voronoi.radio_tx));
    }
  }

  std::cout << table.to_text()
            << "\nreading: the protocol runs land within the same node "
               "budget regime as the emulation\n(asynchrony and heartbeat"
               "-paced knowledge add some overhead), validating the "
               "round-based figures.\n";
  bench::write_json_report(
      bench::json_path(opts, "ablation_sim_vs_engine"),
      "Ablation: sim vs engine", setup, {{"totals", &table}});
  return 0;
}
