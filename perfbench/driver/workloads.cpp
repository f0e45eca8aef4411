#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "decor/sim_runner.hpp"
#include "decor/voronoi_sim.hpp"
#include "lds/random_points.hpp"
#include "sim/propagation.hpp"

namespace perfbench {

using namespace decor;

namespace {

/// Written with probe results so the compiler keeps the probe's work.
volatile std::uint64_t g_observable = 0;

Workload grid_paper(bool toy) {
  Workload w;
  w.name = "grid_paper";
  w.grid = true;
  // The paper's field: 100x100, 2000 Halton points, rs=4, rc=8, k=3,
  // 5-unit cells (the DecorParams defaults), 200 random initial nodes.
  w.initial = 200;
  // About twice the usual convergence time; seeds that stall short of
  // k-coverage stop here and count against converged_frac.
  w.run_time = 30.0;
  w.cases = 14;
  if (toy) {
    w.params.field = geom::make_rect(0, 0, 30, 30);
    w.params.num_points = 200;
    w.params.k = 2;
    w.initial = 10;
    w.cases = 2;
  }
  return w;
}

Workload voronoi_large_restore(bool toy) {
  Workload w;
  w.name = "voronoi_large_restore";
  w.voronoi = true;
  // Ten times the paper's area at the paper's point and node density.
  w.params.field = geom::make_rect(0, 0, 316, 316);
  w.params.num_points = 20000;
  w.initial = 2000;
  w.run_time = 60.0;
  w.kill_fraction = 0.2;
  w.cases = 3;
  if (toy) {
    w.params.field = geom::make_rect(0, 0, 40, 40);
    w.params.num_points = 400;
    w.params.k = 2;
    w.initial = 40;
    w.cases = 2;
  }
  return w;
}

Workload dataplane_lossy(bool toy) {
  Workload w;
  w.name = "dataplane_lossy";
  w.grid = true;
  w.voronoi = true;
  // The contended field of bench/ablation_dataplane.
  w.params.field = geom::make_rect(0, 0, 20, 20);
  w.params.num_points = 200;
  w.params.k = 2;
  w.initial = 10;
  w.run_time = 120.0;
  w.linger = 120.0;  // every run lasts the fixed 120 s horizon
  w.bitrate_bps = 50000.0;
  w.ge_loss = 0.2;
  w.ge_burst = 6.0;
  w.arq.window = 4;
  w.data_plane.enabled = true;
  w.data_plane.reading_interval = 0.5;  // 2 readings/s per node
  w.cases = 16;
  if (toy) {
    w.run_time = 20.0;
    w.linger = 20.0;
    w.cases = 1;
  }
  return w;
}

Workload grid_observed(bool toy) {
  Workload w = grid_paper(toy);
  w.name = "grid_observed";
  w.sinks = true;
  // Every case simulates the same fixed horizon, so the sinks see nearly
  // the same volume on every sub-seed; their cost, not the sub-seed's
  // convergence time, sets the wall time.
  w.run_time = 20.0;
  w.linger = 20.0;
  w.cases = toy ? 1 : 2;
  return w;
}

/// Forwards bus events to a sink the caller keeps (the bus owns what it
/// is given, the traced pass must read the tap after the harness dies).
class ForwardSink final : public common::TelemetrySink {
 public:
  explicit ForwardSink(common::TelemetrySink* to) : to_(to) {}
  bool wants(common::TelemetryStream s) const noexcept override {
    return to_->wants(s);
  }
  void on_event(const common::TelemetryEvent& e) override { to_->on_event(e); }

 private:
  common::TelemetrySink* to_;
};

template <class Cfg>
Cfg make_config(const Workload& w, std::uint64_t subseed,
                std::vector<geom::Point2> initial, const SinkSet& s,
                const std::string& tmp, const TraceOptions& trace,
                const std::string& tag) {
  Cfg cfg;
  cfg.params = w.params;
  cfg.initial_positions = std::move(initial);
  cfg.seed = subseed;
  cfg.run_time = w.run_time;
  cfg.linger_after_coverage = w.linger;
  cfg.radio = fresh_radio(w);
  cfg.arq = w.arq;
  cfg.data_plane = w.data_plane;
  const std::string base = tmp + "/" + tag + ".";
  if (s.trace_jsonl) cfg.trace_jsonl = base + "trace.jsonl";
  if (s.timeline) {
    cfg.timeline_interval = 1.0;
    cfg.timeline_jsonl = base + "timeline.jsonl";
  }
  if (s.field) cfg.field_jsonl = base + "field.jsonl";
  if (s.audit) cfg.audit_jsonl = base + "audit.jsonl";
  if (s.metrics) cfg.metrics_jsonl = base + "metrics.jsonl";
  if (s.dtlm) {
    // The live stream carries the in-memory producers' events; arm
    // them even when their own files are off.
    cfg.telemetry_stream = base + "live.dtlm";
    if (cfg.timeline_interval <= 0.0) cfg.timeline_interval = 1.0;
    if (cfg.field_jsonl.empty()) cfg.field_interval = 1.0;
    cfg.audit = true;
    cfg.metrics_interval = 1.0;
  }
  if (s.otlp) cfg.otlp = base + "otlp.json";
  if (trace.on) {
    cfg.trace = true;
    cfg.trace_capacity = 1;  // counts come from the tap, not the buffer
    cfg.audit = true;
  }
  return cfg;
}

/// Re-proves the harness's coverage verdict from the alive population
/// through the public point index (the `coverage-alive` invariant).
template <class H>
Phase prove(H& h, const Workload& w, std::string kind, bool covered,
            double duration) {
  Phase ph;
  ph.kind = std::move(kind);
  ph.covered = covered;
  ph.duration_s = duration;
  const auto& idx = h.map().index();
  std::vector<std::uint32_t> counts(idx.size(), 0);
  for (std::uint32_t id : h.world().alive_ids()) {
    idx.for_each_in_disc(h.world().position(id), w.params.rs,
                         [&](std::size_t pid) { ++counts[pid]; });
  }
  std::size_t recount = 0;
  for (auto c : counts) {
    if (c >= w.params.k) ++recount;
  }
  const std::size_t believed = h.map().num_covered(w.params.k);
  const bool full = recount == idx.size();
  ph.proof_ok = recount == believed && full == covered;
  if (!ph.proof_ok) {
    ph.proof_detail = ph.kind + ": alive nodes cover " +
                      std::to_string(recount) + " of " +
                      std::to_string(idx.size()) + " points, map credits " +
                      std::to_string(believed) + ", harness says covered=" +
                      (covered ? "yes" : "no");
  }
  return ph;
}

/// Rides the case's own event queue every half simulated second: stops
/// the simulation once it has executed more than the event budget, and
/// times a host-speed probe whenever 50 ms of wall time have passed
/// since the last one. It draws no randomness and the queue breaks time
/// ties by insertion order, so the trajectory is unchanged apart from
/// these events.
struct Watch {
  sim::Simulator* sim;
  std::uint64_t limit;
  CaseResult* out;
  Clock::time_point* last_probe;

  void operator()() const {
    if (sim->events_executed() > limit) {
      out->cut = true;
      sim->stop();
      return;
    }
    if (Clock::now() - *last_probe >= std::chrono::milliseconds(50)) {
      const double t = host_probe_s();
      out->probes.push_back(t);
      out->probe_s += t;
      *last_probe = Clock::now();
    }
    sim->schedule(0.5, *this);
  }
};

/// Poll events one run() call executed: one every 0.5 s from its start
/// up to and including the one that saw full coverage.
std::uint64_t polls_in(double start, double stop) {
  return static_cast<std::uint64_t>(std::floor((stop - start) / 0.5 + 1e-9));
}

template <class H, class Cfg>
void run_runner(const Workload& w, Cfg cfg, const TraceOptions& trace,
                CaseResult& out, const Clock::time_point setup_start) {
  RunTrail trail;
  trail.initial = cfg.initial_positions;
  H h(std::move(cfg));
  if (trace.tap != nullptr) {
    h.telemetry().add_sink(std::make_unique<ForwardSink>(trace.tap));
  }
  out.setup_s += seconds_since(setup_start);
  auto last_probe = Clock::now();
  h.world().sim().schedule(
      0.5, Watch{&h.world().sim(), w.event_budget, &out, &last_probe});

  auto t0 = Clock::now();
  auto r = h.run();
  out.wall_s += seconds_since(t0);
  const double deploy_end = r.reached_full_coverage ? r.finish_time
                                                    : w.run_time;
  out.phases.push_back(prove(h, w, "deploy", r.reached_full_coverage,
                             deploy_end));
  trail.polls += polls_in(0.0, deploy_end);
  trail.placements_before_kill = r.placements.size();

  if (w.kill_fraction > 0.0 && r.reached_full_coverage && !out.cut) {
    const double at = h.world().sim().now();
    const std::size_t before = h.world().num_nodes();
    std::vector<bool> was_alive(before);
    for (std::uint32_t id = 0; id < before; ++id) {
      was_alive[id] = h.world().alive(id);
    }
    const auto count = static_cast<std::size_t>(std::llround(
        w.kill_fraction * static_cast<double>(h.world().alive_count())));
    t0 = Clock::now();
    h.schedule_random_kills(at, count);
    r = h.run();
    out.wall_s += seconds_since(t0);
    const double end = r.reached_full_coverage ? r.finish_time : w.run_time;
    out.phases.push_back(
        prove(h, w, "restore", r.reached_full_coverage, end - at));
    trail.polls += polls_in(at, end);
    for (std::uint32_t id = 0; id < before; ++id) {
      if (was_alive[id] && !h.world().alive(id)) {
        trail.killed.push_back(h.world().position(id));
      }
    }
  }

  auto& world = h.world();
  out.events += world.sim().events_executed();
  out.sim_s += world.sim().now();
  out.tx += world.radio().total_tx();
  out.rx += world.radio().total_rx();
  out.dropped += world.radio().total_dropped();
  out.collisions += world.radio().total_collisions();
  out.placed += r.placed_nodes;
  out.end_time_s += r.end_time;
  out.originated += r.data.readings_originated;
  out.delivered += r.data.readings_delivered;
  out.bytes += r.data.bytes_delivered;
  auto& a = out.arq;
  a.sent += r.arq.sent;
  a.retx += r.arq.retx;
  a.acks_sent += r.arq.acks_sent;
  a.acks_rx += r.arq.acks_rx;
  a.dup_drops += r.arq.dup_drops;
  a.gave_up += r.arq.gave_up;
  a.queued += r.arq.queued;
  auto& d = out.data;
  d.readings_forwarded += r.data.readings_forwarded;
  d.no_route_drops += r.data.no_route_drops;
  d.ttl_drops += r.data.ttl_drops;
  d.duplicates_at_sink += r.data.duplicates_at_sink;
  if constexpr (requires { r.seeded_nodes; }) out.seeded += r.seeded_nodes;

  trail.placements = r.placements;
  if (trace.on) {
    for (std::uint32_t id : world.alive_ids()) {
      trail.final_alive.push_back(world.position(id));
    }
    for (const auto& rec : h.audit().records()) {
      if (rec.reason == "benefit") ++trail.audit_benefit;
      if (rec.reason == "seed") ++trail.audit_seed;
    }
  }
  out.trails.push_back(std::move(trail));
}

std::vector<geom::Point2> initial_deployment(const Workload& w,
                                             std::uint64_t subseed) {
  common::Rng rng(subseed);
  return lds::random_points(w.params.field, w.initial, rng);
}

}  // namespace

double host_probe_s() {
  const auto t0 = Clock::now();
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::priority_queue<std::pair<double, std::uint64_t>> heap;
  std::vector<std::function<void()>> calls;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x % 5000] += static_cast<std::uint64_t>(i);
    heap.push({static_cast<double>(x % 1000), x});
    if (heap.size() > 512) heap.pop();
    calls.push_back([&acc, x] { acc += x; });
    if (calls.size() > 64) {
      for (auto& f : calls) f();
      calls.clear();
    }
  }
  g_observable = acc + table.size();
  return seconds_since(t0);
}

sim::RadioParams fresh_radio(const Workload& w) {
  sim::RadioParams radio;
  radio.bitrate_bps = w.bitrate_bps;
  if (w.ge_loss > 0.0) {
    radio.propagation = std::make_shared<sim::GilbertElliottModel>(
        sim::GilbertElliottModel::from_loss_and_burst(w.ge_loss, w.ge_burst));
  }
  return radio;
}

bool find_workload(const std::string& name, bool toy, Workload* out) {
  if (name == "grid_paper") *out = grid_paper(toy);
  else if (name == "voronoi_large_restore") *out = voronoi_large_restore(toy);
  else if (name == "dataplane_lossy") *out = dataplane_lossy(toy);
  else if (name == "grid_observed") *out = grid_observed(toy);
  else return false;
  return true;
}

std::uint64_t case_seed(std::uint64_t seed, std::size_t i) {
  return seed * 1000003ULL + i;
}

std::vector<std::uint64_t> run_seeds(const Workload& w, std::uint64_t seed,
                                     std::vector<std::uint64_t>* skipped) {
  std::vector<std::uint64_t> seeds;
  Workload plain = w;
  plain.sinks = false;
  for (std::size_t i = 0; seeds.size() < w.cases; ++i) {
    const std::uint64_t s = case_seed(seed, i);
    bool keep = true;
    if (w.sinks) {
      for (const auto& ph : run_case(plain, s, SinkSet{}, "", {}).phases) {
        keep = keep && ph.covered;
      }
    }
    if (keep) seeds.push_back(s);
    else if (skipped != nullptr) skipped->push_back(s);
  }
  return seeds;
}

CaseResult run_case(const Workload& w, std::uint64_t subseed,
                    const SinkSet& sinks, const std::string& tmp_dir,
                    const TraceOptions& trace) {
  // The registry is process-global: on for traced reruns and whenever a
  // sink snapshots it, off (and empty) otherwise.
  common::metrics().reset();
  common::metrics().enable(trace.on || sinks.metrics || sinks.dtlm);
  CaseResult out;
  out.subseed = subseed;
  if (w.grid) {
    const auto t0 = Clock::now();
    auto cfg = make_config<core::SimRunConfig>(
        w, subseed, initial_deployment(w, subseed), sinks, tmp_dir, trace,
        "grid");
    run_runner<core::GridSimHarness>(w, std::move(cfg), trace, out, t0);
  }
  if (w.voronoi) {
    const auto t0 = Clock::now();
    auto cfg = make_config<core::VoronoiSimConfig>(
        w, subseed, initial_deployment(w, subseed), sinks, tmp_dir, trace,
        "voronoi");
    run_runner<core::VoronoiSimHarness>(w, std::move(cfg), trace, out, t0);
  }
  common::metrics().enable(false);
  return out;
}

double setup_only(const Workload& w, std::uint64_t subseed,
                  const SinkSet& sinks, const std::string& tmp_dir) {
  double total = 0.0;
  const TraceOptions none;
  if (w.grid) {
    const auto t0 = Clock::now();
    core::GridSimHarness h(make_config<core::SimRunConfig>(
        w, subseed, initial_deployment(w, subseed), sinks, tmp_dir, none,
        "grid"));
    total += seconds_since(t0);
  }
  if (w.voronoi) {
    const auto t0 = Clock::now();
    core::VoronoiSimHarness h(make_config<core::VoronoiSimConfig>(
        w, subseed, initial_deployment(w, subseed), sinks, tmp_dir, none,
        "voronoi"));
    total += seconds_since(t0);
  }
  return total;
}

}  // namespace perfbench
