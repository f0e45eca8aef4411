// Figure 10 companion: REAL radio traffic of the protocol runners.
//
// Figure 10 counts algorithm-level messages (placements, notifications,
// bids) in the round-based emulation. This companion runs the actual
// event-driven protocols and reports radio transmissions per node broken
// into the deployment phase vs. a steady-state minute — showing how much
// of a live network's traffic is the restoration protocol vs. the
// always-on heartbeat substrate the paper's figure does not charge.
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
  setup.initial_nodes = 15;
  bench::print_header("Figure 10 (protocol companion)",
                      "real radio tx per node, by phase", setup);

  struct Job {
    std::uint32_t k;
    bool voronoi;
    std::size_t trial;
  };
  std::vector<Job> jobs;
  for (std::uint32_t k = 1; k <= 3; ++k) {
    for (bool voronoi : {false, true}) {
      for (std::size_t trial = 0; trial < setup.trials; ++trial) {
        jobs.push_back({k, voronoi, trial});
      }
    }
  }

  common::SeriesTable table("k");
  bench::run_jobs(jobs.size(), table, [&](std::size_t i) {
    const auto& job = jobs[i];
    auto params = setup.base;
    params.k = job.k;
    common::Rng rng = setup.trial_rng(job.trial, 26);
    const auto initial =
        lds::random_points(params.field, setup.initial_nodes, rng);
    const std::string tag = job.voronoi ? "voronoi" : "grid";

    core::RunConfig cfg;
    cfg.params = params;
    cfg.initial_positions = initial;
    cfg.seed = setup.seed + job.trial;
    cfg.run_time = 300.0;
    double deploy_tx = 0.0, steady_tx = 0.0, nodes = 1.0;
    // Deployment phase, then one steady-state minute after convergence.
    auto measure = [&](core::ProtocolHarness& harness,
                       const core::RunResult& r) {
      deploy_tx = static_cast<double>(r.radio_tx);
      nodes = static_cast<double>(r.initial_nodes + r.placed_nodes);
      auto& sim = harness.world().sim();
      const auto tx0 = harness.world().radio().total_tx();
      sim.run_until(sim.now() + 60.0);
      steady_tx =
          static_cast<double>(harness.world().radio().total_tx() - tx0);
    };
    if (job.voronoi) {
      core::VoronoiSimHarness harness(core::VoronoiSimConfig{cfg});
      measure(harness, harness.run());
    } else {
      core::GridSimHarness harness(core::SimRunConfig{cfg});
      measure(harness, harness.run());
    }
    const double x = static_cast<double>(job.k);
    return std::vector<bench::Sample>{
        {x, tag + "_deploy_tx/node", deploy_tx / nodes},
        {x, tag + "_steady_tx/node/min", steady_tx / nodes},
    };
  }, setup.threads);

  std::cout << table.to_text()
            << "\nreading: restoration-phase traffic per node is of the "
               "same order as Figure 10's message\ncounts; the heartbeat "
               "substrate (one beat per node-second) dominates steady "
               "state,\nwhich the paper's figure excludes by design.\n";
  bench::write_json_report(bench::json_path(opts, "fig10b"),
                           "Figure 10 (protocol companion)", setup,
                           {{"radio_tx_per_node", &table}});
  return 0;
}
