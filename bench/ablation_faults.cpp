// Ablation: restoration under declarative fault campaigns.
//
// Sweeps fault class x severity x ARQ window on both protocol runners,
// each run executing a scripted sim::FaultPlan (node reboot waves,
// radio partitions, frame corruption, sink outages) on top of a 20%
// lossy channel with a live sensing workload. The invariant monitor
// samples throughout, so the `violations` series doubles as a CI-level
// safety proof: any nonzero mean means a fault class broke a protocol
// invariant rather than just slowing convergence down.
//
// Runs linger a fixed horizon past convergence so data-plane goodput is
// measured over a comparable window for every variant.
#include <iostream>

#include "decor/voronoi_sim.hpp"
#include "fig_common.hpp"
#include "lds/random_points.hpp"
#include "sim/fault.hpp"

int main(int argc, char** argv) {
  using namespace decor;
  const common::Options opts(argc, argv);
  bench::FigSetup setup(opts);
  const double side = opts.get_double("side", 20.0);
  setup.base.field = geom::make_rect(0, 0, side, side);
  if (!opts.has("points")) setup.base.num_points = 200;
  setup.base.k = static_cast<std::uint32_t>(opts.get_int("k", 1));
  if (!opts.has("initial")) setup.initial_nodes = 10;
  bench::print_header(
      "Ablation: fault campaigns",
      "re-convergence and goodput under fault class x severity x window",
      setup);

  const double loss = opts.get_double("loss", 0.2);
  const double load = opts.get_double("load", 2.0);
  const double horizon = opts.get_double("horizon", 30.0);

  // One fault class per table row group; `rates` is the severity axis
  // (fraction rebooted, partition seconds, bit error rate, sink
  // downtime — whatever "more of this fault" means for the class).
  struct FaultClass {
    std::string label;
    std::vector<double> rates;
    sim::FaultPlan (*plan)(double rate, double side);
  };
  const std::vector<FaultClass> classes{
      {"none",
       {0.0},
       [](double, double) { return sim::FaultPlan{}; }},
      {"reboot",
       {0.1, 0.3},
       [](double rate, double) {
         sim::FaultPlan plan;
         sim::FaultEvent ev;
         ev.kind = sim::FaultEvent::Kind::kReboot;
         ev.at = 2.0;
         ev.fraction = rate;
         ev.downtime = 3.0;
         plan.events.push_back(ev);
         return plan;
       }},
      {"partition",
       {5.0, 15.0},
       [](double rate, double side) {
         sim::FaultPlan plan;
         sim::FaultEvent ev;
         ev.kind = sim::FaultEvent::Kind::kPartition;
         ev.at = 2.0;
         ev.axis = 'x';
         ev.threshold = side / 2.0;
         ev.until = 2.0 + rate;
         plan.events.push_back(ev);
         return plan;
       }},
      {"corruption",
       {1e-4, 1e-3},
       [](double rate, double) {
         sim::FaultPlan plan;
         sim::FaultEvent ev;
         ev.kind = sim::FaultEvent::Kind::kCorruption;
         ev.at = 2.0;
         ev.ber = rate;
         ev.until = 22.0;
         plan.events.push_back(ev);
         return plan;
       }},
      {"sink_outage",
       {3.0, 8.0},
       [](double rate, double) {
         sim::FaultPlan plan;
         sim::FaultEvent ev;
         ev.kind = sim::FaultEvent::Kind::kSinkOutage;
         ev.at = 4.0;
         ev.downtime = rate;
         plan.events.push_back(ev);
         return plan;
       }},
  };
  const std::vector<std::uint32_t> windows{1, 8};

  std::vector<common::SeriesTable> tables;
  std::vector<std::string> names;
  for (const auto& fc : classes) {
    for (const std::uint32_t w : windows) {
      common::SeriesTable table("severity");
      bench::run_jobs(
          setup.trials * fc.rates.size(), table,
          [&](std::size_t i) {
            const std::size_t r = i / setup.trials;
            const std::size_t trial = i % setup.trials;
            const double rate = fc.rates[r];

            net::ReliableLinkParams arq;
            arq.window = w;
            net::DataPlaneParams data_plane;
            data_plane.enabled = true;
            data_plane.reading_interval = 1.0 / load;

            common::Rng rng = setup.trial_rng(trial, 53);
            const auto initial = lds::random_points(
                setup.base.field, setup.initial_nodes, rng);

            core::RunConfig cfg;
            cfg.params = setup.base;
            cfg.seed = setup.seed + trial;
            cfg.run_time = 4.0 * horizon;
            cfg.linger_after_coverage = horizon;
            cfg.arq = arq;
            cfg.data_plane = data_plane;
            cfg.radio.loss_prob = loss;
            cfg.initial_positions = initial;
            cfg.fault_plan = fc.plan(rate, side);
            cfg.invariant_interval = 0.5;
            const auto g = core::run_grid_decor_sim(core::SimRunConfig{cfg});
            const auto v =
                core::run_voronoi_decor_sim(core::VoronoiSimConfig{cfg});

            auto goodput = [](double bytes, double end) {
              return end > 0.0 ? bytes / end : 0.0;
            };
            auto ratio = [](std::uint64_t num, std::uint64_t den) {
              return den > 0 ? static_cast<double>(num) /
                                   static_cast<double>(den)
                             : 0.0;
            };
            return std::vector<bench::Sample>{
                {rate, "covered%", g.reached_full_coverage ? 100.0 : 0.0},
                {rate, "finish_s", g.finish_time},
                {rate, "goodput_Bps",
                 goodput(static_cast<double>(g.data.bytes_delivered),
                         g.end_time)},
                {rate, "retx_ratio", ratio(g.arq.retx, g.arq.sent)},
                {rate, "faults", static_cast<double>(g.faults_fired)},
                {rate, "violations",
                 static_cast<double>(g.invariant_violations)},
                {rate, "vor_covered%",
                 v.reached_full_coverage ? 100.0 : 0.0},
                {rate, "vor_finish_s", v.finish_time},
                {rate, "vor_goodput_Bps",
                 goodput(static_cast<double>(v.data.bytes_delivered),
                         v.end_time)},
                {rate, "vor_violations",
                 static_cast<double>(v.invariant_violations)},
            };
          },
          setup.threads);
      names.push_back(fc.label + "_w" + std::to_string(w));
      tables.push_back(std::move(table));
      std::cout << "--- " << names.back() << " ---\n"
                << tables.back().to_text() << '\n';
    }
  }

  std::initializer_list<bench::NamedTable> named{
      {names[0], &tables[0]}, {names[1], &tables[1]},
      {names[2], &tables[2]}, {names[3], &tables[3]},
      {names[4], &tables[4]}, {names[5], &tables[5]},
      {names[6], &tables[6]}, {names[7], &tables[7]},
      {names[8], &tables[8]}, {names[9], &tables[9]}};
  bench::write_json_report(bench::json_path(opts, "ablation_faults"),
                           "Ablation: fault campaigns", setup, named);
  return 0;
}
