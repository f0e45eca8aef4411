// The protocol harness core both DECOR schemes run on.
//
// Grid and Voronoi DECOR differ only in who decides a placement: an
// elected cell leader, or every node for its own local Voronoi cell.
// ProtocolHarness owns everything else: the World, the ground-truth
// CoverageMap, the TelemetryBus and the producers publishing on it, the
// fault injector and the invariant monitor, and the convergence poll
// that ends a run. Each scheme (GridSimHarness in sim_runner.hpp,
// VoronoiSimHarness in voronoi_sim.hpp) supplies its node type and a few
// hooks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry.hpp"
#include "coverage/coverage_map.hpp"
#include "coverage/field_recorder.hpp"
#include "coverage/metrics.hpp"
#include "decor/params.hpp"
#include "net/sensor_node.hpp"
#include "sim/audit_log.hpp"
#include "sim/fault.hpp"
#include "sim/invariant_monitor.hpp"
#include "sim/metrics_snapshot.hpp"
#include "sim/timeline.hpp"
#include "sim/world.hpp"

namespace decor::core {

/// Configuration both schemes share. SimRunConfig (grid) and
/// VoronoiSimConfig add each scheme's own pacing knobs.
struct RunConfig {
  DecorParams params;
  std::vector<geom::Point2> initial_positions;
  std::uint64_t seed = 1;

  /// Wall limit in simulated seconds; the run also stops as soon as the
  /// field is fully k-covered.
  double run_time = 300.0;

  /// When > 0, reaching full k-coverage no longer stops the run at the
  /// convergence instant: the simulation keeps going for this many extra
  /// seconds (still capped by run_time). finish_time records the
  /// convergence time either way. This gives the data plane a
  /// fixed-length measurement window, so goodput comparisons are not
  /// confounded by how quickly restoration happened to converge.
  double linger_after_coverage = 0.0;

  net::HeartbeatParams heartbeat{1.0, 3.5};
  sim::RadioParams radio{};

  /// ARQ (net::ReliableLink) under the control-plane messages (kLeader,
  /// kPlacement, kCoverageQuery/Reply, seed probes); kHello/kHeartbeat
  /// stay best-effort. Disable to reproduce the fire-and-forget stack.
  bool enable_arq = true;
  net::ReliableLinkParams arq{};

  /// Data-plane workload: every non-sink sensor streams kReading frames
  /// to the base station (node 0, the first initial position) while
  /// restoration runs. Off by default — control-plane-only trajectories
  /// stay byte-identical.
  net::DataPlaneParams data_plane{};

  /// Tracing (applied to the world's Trace at construction): record
  /// protocol events, optionally bounded to the `trace_capacity` most
  /// recent records (0 = unbounded) and/or streamed to `trace_jsonl` as
  /// one JSON object per line.
  bool trace = false;
  std::size_t trace_capacity = 0;
  std::string trace_jsonl;

  /// Convergence timeline: sample coverage/liveness/ARQ state every
  /// `timeline_interval` sim-seconds (0 = no timeline), optionally
  /// streaming decor.timeline.v1 lines to `timeline_jsonl`.
  double timeline_interval = 0.0;
  std::string timeline_jsonl;

  /// Spatial field recorder: rasterized k-deficit snapshots every
  /// `field_interval` sim-seconds (decor.field.v1), with a forced
  /// snapshot at the convergence instant. Recording is on when either
  /// field_interval > 0 or `field_jsonl` is set (the interval then
  /// defaults to 1s); `field_raster` overrides the rs-derived raster
  /// side (0 = FieldRecorder::default_raster).
  double field_interval = 0.0;
  std::string field_jsonl;
  std::size_t field_raster = 0;

  /// Placement audit log: record every placement decision (in memory;
  /// tests and reports). `audit_jsonl` additionally streams each record
  /// as a decor.audit.v1 line and implies `audit`.
  bool audit = false;
  std::string audit_jsonl;

  /// Flight recorder: when set, a run that ends without full coverage,
  /// needs the Voronoi watchdog, or aborts on an exception dumps
  /// trace/timeline/metrics into this directory (see
  /// sim/flight_recorder.hpp for the bundle layout).
  std::string flight_dir;

  /// Fault campaign (decor.faults.v1): armed on the event queue before
  /// the run starts. A non-empty plan switches the ARQ to
  /// purge_on_give_up so rebooted peers are un-quarantined (see
  /// ReliableLinkParams); empty plans leave trajectories untouched.
  sim::FaultPlan fault_plan;

  /// Invariant monitor cadence in sim-seconds (0 = monitor off): every
  /// period the harness re-proves ground-truth coverage consistency,
  /// leader uniqueness (grid only), ArqStats conservation and the
  /// goodput bound, and dumps a flight bundle (if flight_dir is set) on
  /// first violation.
  double invariant_interval = 0.0;

  /// Periodic metrics-registry snapshots (decor.metrics.v1): active when
  /// `metrics_interval` > 0 or `metrics_jsonl` is set. The cadence
  /// defaults to the timeline cadence (then 1s) when only the sink path
  /// is given. Snapshots are meaningful only while the registry is
  /// enabled (--json / MetricsRegistry::enable).
  double metrics_interval = 0.0;
  std::string metrics_jsonl;

  /// Live telemetry stream: length-prefixed DTLM frames of the
  /// timeline/field/audit/metrics streams to "-" (stdout) or a file path
  /// (what `decor watch` consumes). A "tcp:" target is rejected.
  std::string telemetry_stream;

  /// OTLP/JSON export file (document rewritten at run end). Implies
  /// trace recording — spans are built from trace causality ids. An
  /// "http://" target is rejected.
  std::string otlp;

  /// Serialize cumulative ARQ sent/retx counters on every timeline
  /// sample (the live dashboard's retx-ratio series). Off by default so
  /// existing decor.timeline.v1 output stays byte-identical.
  bool timeline_arq = false;
};

/// Outcome of one run() call. VoronoiSimResult adds the watchdog count.
struct RunResult {
  std::size_t initial_nodes = 0;
  std::size_t placed_nodes = 0;
  bool reached_full_coverage = false;
  double finish_time = 0.0;
  /// Sim clock when the run actually stopped (== finish_time unless
  /// linger_after_coverage extended it); goodput denominators use this.
  double end_time = 0.0;
  std::uint64_t radio_tx = 0;
  std::uint64_t radio_rx = 0;
  /// ARQ accounting, cumulative over the harness lifetime (not reset
  /// between repeated run() calls on one harness).
  net::ArqStats arq;
  /// Data-plane accounting (all zeros unless cfg.data_plane.enabled).
  net::DataPlaneStats data;
  coverage::CoverageMetrics metrics;
  std::vector<geom::Point2> placements;
  /// Fault-campaign accounting (zeros unless cfg.fault_plan non-empty).
  std::uint64_t faults_fired = 0;
  std::uint64_t radio_corrupted = 0;
  std::uint64_t radio_partition_blocked = 0;
  /// Invariant-monitor accounting (zeros unless invariant_interval > 0).
  std::uint64_t invariant_checks = 0;
  std::uint64_t invariant_violations = 0;
};

/// What every node of a scheme shares (see protocol_node.hpp); each
/// scheme's Shared derives from it.
struct NodeShared;

class ProtocolHarness {
 public:
  virtual ~ProtocolHarness();

  ProtocolHarness(const ProtocolHarness&) = delete;
  ProtocolHarness& operator=(const ProtocolHarness&) = delete;

  sim::World& world() noexcept { return *world_; }
  coverage::CoverageMap& map() noexcept { return *map_; }
  /// The convergence timeline (empty unless cfg.timeline_interval > 0).
  sim::Timeline& timeline() noexcept { return timeline_; }
  /// The field recorder, or nullptr when field recording is off.
  coverage::FieldRecorder* field() noexcept { return field_.get(); }
  /// The placement audit log (empty unless cfg.audit / cfg.audit_jsonl).
  sim::AuditLog& audit() noexcept { return audit_; }
  /// The telemetry bus every producer of this harness publishes on.
  common::TelemetryBus& telemetry() noexcept { return bus_; }
  /// The periodic metrics snapshotter (inactive unless configured).
  sim::MetricsSnapshotter& metrics_snapshotter() noexcept {
    return metrics_snap_;
  }
  /// The fault injector, or nullptr when cfg.fault_plan is empty.
  sim::FaultInjector* injector() noexcept { return injector_.get(); }
  /// The invariant monitor (inactive unless cfg.invariant_interval > 0).
  sim::InvariantMonitor& monitor() noexcept { return monitor_; }

  /// Spawns a DECOR node at `pos` (used for initial deployment and by
  /// the protocol for replacements); keeps the ground-truth map in sync.
  std::uint32_t spawn_node(geom::Point2 pos);

  /// Kills a node and removes its coverage (failure injection).
  void kill_node(std::uint32_t id);

  /// Reboots a dead node in place with a fresh protocol process
  /// (amnesia); restores its coverage disc. No-op on an alive node.
  void reboot_node(std::uint32_t id);

  /// Chaos: at simulated time `at`, kills `count` uniformly random alive
  /// nodes (ground-truth map kept in sync, unlike raw World::kill).
  void schedule_random_kills(double at, std::size_t count);

 protected:
  /// `radio_range` is the protocol's communication radius (the World's
  /// and every node's rc); `scheme` ("grid", "voronoi") tags flight
  /// bundles and names the protocol.<scheme>.* counters.
  ProtocolHarness(RunConfig cfg, double radio_range, std::string scheme);

  /// Completes construction once the scheme's Shared exists: fills its
  /// NodeShared part and registers the invariants. Each scheme calls it
  /// once, at the end of its constructor.
  void finish_setup(std::shared_ptr<NodeShared> nodes);

  /// Runs until full k-coverage or cfg.run_time; callable repeatedly
  /// (failure injection between calls resumes the protocol).
  RunResult run_protocol();

  const RunConfig& config() const noexcept { return cfg_; }
  void dump_flight_bundle(const std::string& reason,
                          const std::string& detail);

  // Scheme hooks.

  /// A fresh protocol process for a spawned or rebooted node; its
  /// SensorNode parameters are NodeShared::node.
  virtual std::unique_ptr<net::SensorNode> make_node() = 0;
  /// Registers the scheme's own invariants; they run second, between
  /// the ground-truth coverage check and the ARQ conservation check.
  virtual void add_scheme_invariants() {}
  /// The timeline's leaders column ("cell:id ..."); empty if leaderless.
  virtual std::string timeline_leaders() { return {}; }
  /// Called once per run() before the run starts; the returned callback
  /// (if any) runs on every convergence poll that finds the field short
  /// of full coverage. State it keeps belongs to that run only.
  virtual std::function<void()> make_stall_check() { return {}; }

 private:
  /// make_node() wired to the shared ARQ and data-plane accounting.
  std::unique_ptr<net::SensorNode> new_node();
  sim::TimelineSample sample_timeline();
  void register_invariants();
  /// Reliable sends still pending on alive nodes' links.
  std::uint64_t arq_in_flight();

  RunConfig cfg_;
  std::string scheme_;
  double radio_range_;
  /// Declared before the producers so sinks outlive nothing that
  /// publishes into them (producers detach their file sinks themselves;
  /// destruction order only matters for the bus-owned extra sinks).
  common::TelemetryBus bus_;
  std::unique_ptr<sim::World> world_;
  std::unique_ptr<coverage::CoverageMap> map_;
  std::shared_ptr<NodeShared> nodes_;
  sim::Timeline timeline_;
  sim::MetricsSnapshotter metrics_snap_;
  std::unique_ptr<coverage::FieldRecorder> field_;
  sim::AuditLog audit_;
  std::unique_ptr<sim::FaultInjector> injector_;
  sim::InvariantMonitor monitor_;
  std::vector<geom::Point2> placements_;
  std::size_t initial_nodes_ = 0;
  bool initial_deployed_ = false;
};

/// OTLP span name for a trace record: radio records carry the protocol
/// message kind as "kind=<int>" in the detail, which maps onto the wire
/// vocabulary ("msg.placement"); anything else falls back to the trace
/// kind.
std::string otlp_span_name(std::string_view kind, std::string_view detail);

}  // namespace decor::core
