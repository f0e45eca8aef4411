#include "decor/protocol_harness.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "common/otlp.hpp"
#include "common/require.hpp"
#include "decor/point_field.hpp"
#include "decor/protocol_node.hpp"
#include "net/messages.hpp"
#include "sim/flight_recorder.hpp"
#include "sim/trace.hpp"

namespace decor::core {

std::string otlp_span_name(std::string_view kind, std::string_view detail) {
  const int mk = sim::parse_trace_detail(detail).kind;
  if (const char* name = net::msg_kind_name(mk)) {
    return std::string("msg.") + name;
  }
  return std::string(kind);
}

ProtocolHarness::ProtocolHarness(RunConfig cfg, double radio_range,
                                 std::string scheme)
    : cfg_(std::move(cfg)),
      scheme_(std::move(scheme)),
      radio_range_(radio_range) {
  // A fault campaign implies reboots are possible: the ARQ must re-open
  // its dedup window when it gives a peer up for dead, or the rebooted
  // incarnation's fresh traffic is swallowed as duplicates. Applied
  // before finish_setup copies the params so every node inherits it.
  if (!cfg_.fault_plan.empty()) cfg_.arq.purge_on_give_up = true;
  const auto& p = cfg_.params;
  world_ = std::make_unique<sim::World>(p.field, cfg_.radio, cfg_.seed,
                                        radio_range_);
  // Every producer publishes on the harness bus, so extra sinks (live
  // stream, OTLP) see all streams; attach must precede any open_jsonl.
  world_->trace().attach_bus(&bus_);
  timeline_.attach_bus(&bus_);
  audit_.attach_bus(&bus_);
  metrics_snap_.attach_bus(&bus_);
  // Runs write files and stdout only: a network target is refused, not
  // opened as a file of that name.
  DECOR_REQUIRE_MSG(!cfg_.telemetry_stream.starts_with("tcp:"),
                    "telemetry stream " + cfg_.telemetry_stream +
                        " is a network target; write DTLM frames to a file "
                        "(--telemetry=FILE) or pipe them from stdout: "
                        "decor sim ... --telemetry=- | decor watch -");
  DECOR_REQUIRE_MSG(!cfg_.otlp.starts_with("http://"),
                    "OTLP target " + cfg_.otlp +
                        " is a network target; write the document to a "
                        "file (--otlp=FILE) for a collector's file receiver");
  if (!cfg_.telemetry_stream.empty()) {
    auto stream = std::make_unique<common::FrameStreamSink>(
        cfg_.telemetry_stream);
    DECOR_REQUIRE_MSG(stream->ok(), "cannot open telemetry stream: " +
                                        cfg_.telemetry_stream);
    bus_.add_sink(std::move(stream));
  }
  if (!cfg_.otlp.empty()) {
    auto otlp = std::make_unique<common::OtlpSink>(cfg_.otlp);
    otlp->set_span_namer(otlp_span_name);
    bus_.add_sink(std::move(otlp));
    // Spans are built from trace causality ids, so the exporter implies
    // trace recording even when --trace was not given.
    world_->trace().enable(true);
  }
  if (cfg_.trace_capacity > 0) {
    world_->trace().set_capacity(cfg_.trace_capacity);
  }
  if (!cfg_.trace_jsonl.empty()) {
    // An unopenable sink is a fatal misconfiguration: silently running
    // without the dump the caller asked for wastes the whole run.
    DECOR_REQUIRE_MSG(world_->trace().open_jsonl(cfg_.trace_jsonl),
                      "cannot open trace JSONL sink: " + cfg_.trace_jsonl);
  }
  if (cfg_.trace || !cfg_.trace_jsonl.empty()) world_->trace().enable(true);
  if (!cfg_.timeline_jsonl.empty()) {
    DECOR_REQUIRE_MSG(timeline_.open_jsonl(cfg_.timeline_jsonl),
                      "cannot open timeline JSONL sink: " + cfg_.timeline_jsonl);
  }
  if (!cfg_.flight_dir.empty()) {
    // Same fail-fast contract as the JSONL sinks: discovering at dump
    // time that the post-mortem directory is unwritable loses the
    // evidence the caller asked to keep.
    DECOR_REQUIRE_MSG(sim::prepare_flight_dir(cfg_.flight_dir),
                      "cannot write flight dir: " + cfg_.flight_dir);
  }
  common::Rng point_rng(cfg_.seed ^ 0x5eedbeefULL);
  map_ = std::make_unique<coverage::CoverageMap>(
      p.field, make_points(p, point_rng), p.rs);
  if (cfg_.field_interval > 0.0 || !cfg_.field_jsonl.empty()) {
    const std::size_t side =
        cfg_.field_raster > 0
            ? cfg_.field_raster
            : coverage::FieldRecorder::default_raster(p.field, p.rs);
    field_ = std::make_unique<coverage::FieldRecorder>(p.field, p.k, side,
                                                       side);
    field_->attach_bus(&bus_);
    if (!cfg_.field_jsonl.empty()) {
      DECOR_REQUIRE_MSG(field_->open_jsonl(cfg_.field_jsonl),
                        "cannot open field JSONL sink: " + cfg_.field_jsonl);
    }
  }
  if (!cfg_.audit_jsonl.empty()) {
    DECOR_REQUIRE_MSG(audit_.open_jsonl(cfg_.audit_jsonl),
                      "cannot open audit JSONL sink: " + cfg_.audit_jsonl);
  }
  if (!cfg_.metrics_jsonl.empty()) {
    DECOR_REQUIRE_MSG(metrics_snap_.open_jsonl(cfg_.metrics_jsonl),
                      "cannot open metrics JSONL sink: " + cfg_.metrics_jsonl);
  }
  if (!cfg_.fault_plan.empty()) {
    sim::FaultInjector::Hooks hooks;
    hooks.kill = [this](std::uint32_t id) { kill_node(id); };
    hooks.reboot = [this](std::uint32_t id) { reboot_node(id); };
    const bool has_sink = cfg_.data_plane.enabled;
    const std::uint32_t sink = cfg_.data_plane.sink;
    hooks.is_protected = [has_sink, sink](std::uint32_t id) {
      return has_sink && id == sink;
    };
    hooks.sink = sink;
    hooks.has_sink = has_sink;
    injector_ = std::make_unique<sim::FaultInjector>(*world_, cfg_.fault_plan,
                                                     std::move(hooks));
    injector_->arm();
  }
}

ProtocolHarness::~ProtocolHarness() = default;

void ProtocolHarness::finish_setup(std::shared_ptr<NodeShared> nodes) {
  nodes->params = cfg_.params;
  nodes->node.rc = radio_range_;
  nodes->node.heartbeat = cfg_.heartbeat;
  nodes->node.enable_arq = cfg_.enable_arq;
  nodes->node.arq = cfg_.arq;
  nodes->node.data_plane = cfg_.data_plane;
  nodes->harness = this;
  nodes->points = &map_->index();
  if (cfg_.audit || !cfg_.audit_jsonl.empty()) nodes->audit = &audit_;
  nodes_ = std::move(nodes);
  if (cfg_.invariant_interval > 0.0) register_invariants();
}

std::uint64_t ProtocolHarness::arq_in_flight() {
  std::uint64_t in_flight = 0;
  for (std::uint32_t id : world_->alive_ids()) {
    if (auto* sn = dynamic_cast<net::SensorNode*>(&world_->node(id))) {
      if (auto* l = sn->link()) in_flight += l->in_flight();
    }
  }
  return in_flight;
}

void ProtocolHarness::register_invariants() {
  // (1) Ground-truth coverage consistency: the CoverageMap must credit
  // exactly the alive population — a disc left behind by a kill, or
  // missing after a reboot, shows up as a count mismatch here.
  monitor_.add_check("coverage-alive", [this]() -> std::optional<std::string> {
    const auto& idx = map_->index();
    std::vector<std::uint32_t> counts(idx.size(), 0);
    for (std::uint32_t id : world_->alive_ids()) {
      idx.for_each_in_disc(world_->position(id), cfg_.params.rs,
                           [&](std::size_t pid) { ++counts[pid]; });
    }
    std::size_t covered = 0;
    for (auto c : counts) {
      if (c >= cfg_.params.k) ++covered;
    }
    const std::size_t believed = map_->num_covered(cfg_.params.k);
    if (covered != believed) {
      return "alive nodes cover " + std::to_string(covered) +
             " points but the map credits " + std::to_string(believed);
    }
    return std::nullopt;
  });
  // (2) The scheme's own checks (the grid's leader uniqueness).
  add_scheme_invariants();
  // (3) ArqStats conservation: every reliable send must end up exactly
  // once in completed / failed / abandoned or still be pending on an
  // alive link. Dead links were drained into `abandoned` by host_died().
  monitor_.add_check("arq-conservation",
                     [this]() -> std::optional<std::string> {
    const auto& a = nodes_->arq_stats;
    const std::uint64_t accounted =
        a.completed + a.failed + a.abandoned + arq_in_flight();
    if (a.sent != accounted) {
      return "sent=" + std::to_string(a.sent) + " but completed+failed+" +
             "abandoned+in_flight=" + std::to_string(accounted);
    }
    return std::nullopt;
  });
  // (4) Goodput bound: the sink can never deliver more unique readings
  // than the field originated (dedup or incarnation bookkeeping broke if
  // it does). Trivially true while the data plane is off.
  monitor_.add_check("goodput-bound", [this]() -> std::optional<std::string> {
    const auto& d = nodes_->data_stats;
    if (d.readings_delivered > d.readings_originated) {
      return "delivered " + std::to_string(d.readings_delivered) +
             " unique readings but only " +
             std::to_string(d.readings_originated) + " were originated";
    }
    return std::nullopt;
  });
  monitor_.set_on_first_violation(
      [this](const std::string& name, const std::string& detail) {
        if (!cfg_.flight_dir.empty()) {
          dump_flight_bundle("invariant", name + ": " + detail);
        }
      });
}

std::unique_ptr<net::SensorNode> ProtocolHarness::new_node() {
  auto node = make_node();
  node->set_arq_stats(&nodes_->arq_stats);
  node->set_data_stats(&nodes_->data_stats);
  return node;
}

std::uint32_t ProtocolHarness::spawn_node(geom::Point2 pos) {
  const auto id = world_->spawn(pos, new_node());
  map_->add_disc(pos);
  if (initial_deployed_) placements_.push_back(pos);
  return id;
}

void ProtocolHarness::kill_node(std::uint32_t id) {
  if (!world_->alive(id)) return;
  const auto pos = world_->position(id);
  world_->kill(id);
  map_->remove_disc(pos);
}

void ProtocolHarness::reboot_node(std::uint32_t id) {
  if (world_->alive(id)) return;
  world_->reboot(id, new_node());
  map_->add_disc(world_->position(id));
}

void ProtocolHarness::schedule_random_kills(double at, std::size_t count) {
  world_->sim().schedule_at(at, [this, count] {
    auto alive = world_->alive_ids();
    // The data-plane sink is infrastructure (the base station): random
    // chaos must never take it down — only an explicit sink_outage fault
    // event may. Filtered before sampling so the exclusion is
    // deterministic, not a retry.
    if (cfg_.data_plane.enabled) std::erase(alive, cfg_.data_plane.sink);
    const auto picks =
        world_->rng().sample_indices(alive.size(),
                                     std::min(count, alive.size()));
    for (std::size_t idx : picks) kill_node(alive[idx]);
  });
}

sim::TimelineSample ProtocolHarness::sample_timeline() {
  sim::TimelineSample s;
  s.t = world_->sim().now();
  s.covered_fraction = map_->fraction_covered(cfg_.params.k);
  s.uncovered_points = static_cast<std::uint64_t>(
      map_->num_points() - map_->num_covered(cfg_.params.k));
  s.alive_nodes = world_->alive_count();
  s.arq_in_flight = arq_in_flight();
  s.leaders = timeline_leaders();
  if (cfg_.data_plane.enabled) {
    s.has_readings = true;
    s.readings_delivered = nodes_->data_stats.readings_delivered;
    s.reading_bytes = nodes_->data_stats.bytes_delivered;
  }
  if (monitor_.active()) {
    s.has_invariants = true;
    s.invariant_violations = monitor_.violations();
  }
  if (cfg_.timeline_arq) {
    s.has_arq_detail = true;
    s.arq_sent = nodes_->arq_stats.sent;
    s.arq_retx = nodes_->arq_stats.retx;
  }
  return s;
}

void ProtocolHarness::dump_flight_bundle(const std::string& reason,
                                         const std::string& detail) {
  sim::FlightBundleInfo info;
  info.reason = reason;
  info.sim_time = world_->sim().now();
  info.scheme = scheme_;
  info.detail = detail;
  if (injector_) info.faults_json = injector_->manifest_json();
  if (field_ != nullptr) {
    info.field_jsonl = field_->header_json() + "\n";
    if (const auto* s = field_->latest()) {
      info.field_jsonl += coverage::FieldRecorder::snapshot_json(*s) + "\n";
    }
  }
  if (metrics_snap_.snapshots_taken() > 0) {
    info.metrics_jsonl = "{\"schema\":\"decor.metrics.v1\"}\n";
    for (const auto& line : metrics_snap_.tail()) {
      info.metrics_jsonl += line + "\n";
    }
  }
  sim::write_flight_bundle(cfg_.flight_dir, info, world_->trace(),
                           &timeline_);
}

RunResult ProtocolHarness::run_protocol() {
  if (!initial_deployed_) {
    for (const auto& pos : cfg_.initial_positions) spawn_node(pos);
    initial_nodes_ = cfg_.initial_positions.size();
    initial_deployed_ = true;
  }
  // Output stays byte-identical only while these start in this order:
  // timeline, monitor, metrics, convergence poll, field tick (events
  // due at the same instant run in scheduling order).
  if (cfg_.timeline_interval > 0.0 && !timeline_.active()) {
    timeline_.start(world_->sim(), cfg_.timeline_interval,
                    [this] { return sample_timeline(); });
  }
  if (cfg_.invariant_interval > 0.0 && !monitor_.active()) {
    monitor_.start(world_->sim(), cfg_.invariant_interval);
  }
  if ((cfg_.metrics_interval > 0.0 || !cfg_.metrics_jsonl.empty()) &&
      !metrics_snap_.active()) {
    // Path-only configs ride the timeline cadence (then 1s) so the two
    // series line up sample-for-sample.
    const double every =
        cfg_.metrics_interval > 0.0
            ? cfg_.metrics_interval
            : (cfg_.timeline_interval > 0.0 ? cfg_.timeline_interval : 1.0);
    metrics_snap_.start(world_->sim(), every);
  }

  RunResult result;
  result.initial_nodes = initial_nodes_;
  const std::size_t placements_before = placements_.size();

  // Poll ground truth; stop as soon as the field is fully covered. The
  // closure owns its state through shared_ptrs so a poll left pending
  // after a timed-out run stays safe to execute on a later resume.
  struct PollState {
    double finish_time;
    bool covered = false;
  };
  auto state = std::make_shared<PollState>(PollState{cfg_.run_time, false});
  auto stall_check = make_stall_check();
  auto poll = std::make_shared<std::function<void()>>();
  // The closure holds itself only weakly: no ownership cycle, and a poll
  // left pending after a timed-out run degrades to a no-op on resume.
  std::weak_ptr<std::function<void()>> weak_poll = poll;
  *poll = [this, state, stall_check, weak_poll] {
    if (map_->fully_covered(cfg_.params.k)) {
      state->covered = true;
      state->finish_time = world_->sim().now();
      // The milestone lands in the trace so a dump alone (without the
      // harness result) still yields the convergence time, and on the
      // timeline so its convergence query sees a zero-uncovered sample.
      world_->trace().record(world_->sim().now(), sim::TraceKind::kProtocol,
                             0, "converged");
      if (timeline_.active()) timeline_.sample_once();
      if (metrics_snap_.active()) metrics_snap_.snapshot_once();
      // Final proof pass at the convergence instant, mirroring the
      // timeline's forced sample.
      if (monitor_.active()) monitor_.check_now();
      // Forced snapshot at the convergence instant: the final (hole-free)
      // field always lands on the recorder even between cadence ticks.
      if (field_) field_->snapshot(world_->sim().now(), *map_, true);
      if (cfg_.linger_after_coverage > 0.0) {
        // Fixed post-restoration horizon: keep the data plane flowing
        // so goodput is measured over a comparable window regardless of
        // when convergence happened (run_until still caps at run_time).
        world_->sim().schedule(cfg_.linger_after_coverage,
                               [this] { world_->sim().stop(); });
      } else {
        world_->sim().stop();
      }
      return;
    }
    if (stall_check) stall_check();
    if (auto self = weak_poll.lock()) world_->sim().schedule(0.5, *self);
  };
  world_->sim().schedule(0.5, *poll);
  // Periodic field snapshots ride their own weak self-scheduling chain
  // (same lifetime contract as the poll); the first fires immediately so
  // the pre-restoration deficit field is always recorded.
  auto field_tick = std::make_shared<std::function<void()>>();
  if (field_) {
    const double every =
        cfg_.field_interval > 0.0 ? cfg_.field_interval : 1.0;
    std::weak_ptr<std::function<void()>> weak_field = field_tick;
    *field_tick = [this, every, weak_field] {
      field_->snapshot(world_->sim().now(), *map_);
      if (auto self = weak_field.lock()) world_->sim().schedule(every, *self);
    };
    world_->sim().schedule(0.0, *field_tick);
  }
  try {
    world_->sim().run_until(cfg_.run_time);
  } catch (const std::exception& e) {
    // Best-effort post-mortem before the error propagates: the in-memory
    // trace/timeline/metrics are exactly what debugging needs.
    if (!cfg_.flight_dir.empty()) dump_flight_bundle("exception", e.what());
    throw;
  }

  result.reached_full_coverage =
      state->covered || map_->fully_covered(cfg_.params.k);
  if (!cfg_.flight_dir.empty() && !result.reached_full_coverage) {
    dump_flight_bundle(
        "non-convergence",
        std::to_string(map_->num_points() -
                       map_->num_covered(cfg_.params.k)) +
            " points below k-coverage at run_time");
  }
  result.finish_time = state->finish_time;
  result.end_time = world_->sim().now();
  result.placed_nodes = placements_.size();
  result.placements = placements_;
  result.radio_tx = world_->radio().total_tx();
  result.radio_rx = world_->radio().total_rx();
  result.arq = nodes_->arq_stats;
  result.data = nodes_->data_stats;
  if (injector_) result.faults_fired = injector_->faults_fired();
  result.radio_corrupted = world_->radio().total_corrupted();
  result.radio_partition_blocked = world_->radio().total_partition_blocked();
  result.invariant_checks = monitor_.checks_run();
  result.invariant_violations = monitor_.violations();
  result.metrics = coverage::compute_metrics(*map_, cfg_.params.k + 1);
  // One update per run (placements made during *this* call, so repeated
  // runs on one harness never double-count); the hot protocol path stays
  // free of instrumentation.
  if (common::metrics_enabled()) {
    auto& m = common::metrics();
    const std::string prefix = "protocol." + scheme_ + ".";
    m.counter(prefix + "runs").inc();
    m.counter(prefix + "placements")
        .inc(placements_.size() - placements_before);
    auto& covered = m.counter(prefix + "covered_runs");
    if (result.reached_full_coverage) covered.inc();
  }
  // End-of-run barrier for buffered sinks: the OTLP exporter writes its
  // document here, the file sinks flush.
  bus_.flush();
  return result;
}

}  // namespace decor::core
