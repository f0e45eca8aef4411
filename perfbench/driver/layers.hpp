// Per-layer cost probes for the traced pass.
//
// Each probe times one layer's public API from outside, at the traced
// run's own scale and shape, and returns nanoseconds per operation. The
// traced pass multiplies these by the run's exact operation counts to
// split its wall time across layers.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Bare Simulator dispatch: `chains` self-rescheduling timers replaying
/// up to `events` events.
double dispatch_ns(std::uint64_t events, std::size_t chains);

/// Radio delivery per attempted reception (rx + dropped + collisions) on
/// a World of inert nodes at `positions`, net of event dispatch.
double deliver_ns(const Workload& w, double range,
                  const std::vector<decor::geom::Point2>& positions,
                  std::uint64_t target, double dispatch);

/// SensorNode liveness (HELLO/heartbeat observe and neighbour-table
/// upkeep) per reception, net of radio delivery and dispatch.
double observe_ns(const Workload& w, double range,
                  const std::vector<decor::geom::Point2>& positions,
                  std::uint64_t target, double deliver, double dispatch);

/// One ReliableLink exchange (send, receive, ack, ack processing).
double arq_exchange_ns(const Workload& w, std::uint64_t target,
                       double dispatch);

struct CoverageCost {
  double disc_ns = 0.0;
  double poll_ns = 0.0;
  double choose_ns = 0.0;
};

/// Replays a run's spawn/kill sequence with its polls on a fresh
/// CoverageMap, and times BenefitIndex::choose_believed over cell-sized
/// candidate sets.
CoverageCost coverage_cost(const Workload& w, std::uint64_t subseed,
                           const RunTrail& trail, bool voronoi_poll);

/// Counts every bus event it sees and keeps the first lines of each
/// stream for the publish replay.
class TapSink final : public decor::common::TelemetrySink {
 public:
  static constexpr std::size_t kKeep = 20000;

  void on_event(const decor::common::TelemetryEvent& e) override;

  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, decor::common::kNumTelemetryStreams> per_stream{};
  /// HELLO/heartbeat receptions seen in the trace stream.
  std::uint64_t liveness_rx = 0;
  struct Line {
    decor::common::TelemetryStream stream;
    bool header;
    std::string text;
  };
  std::vector<Line> kept;
  std::array<std::size_t, decor::common::kNumTelemetryStreams> kept_per{};
};

struct PublishCost {
  double jsonl_ns = 0.0;   // per event, one file sink per stream
  double dtlm_ns = 0.0;    // per non-trace event, framed live stream
  double otlp_ns = 0.0;    // per trace/timeline/metrics event, incl. flush
  double record_ns = 0.0;  // per trace record serialized onto the bus
};

/// Replays the captured lines through a fresh bus, one sink kind at a
/// time, writing into `tmp_dir`.
PublishCost publish_cost(const TapSink& tap, const std::string& tmp_dir);

struct SetupCost {
  double points_s = 0.0;  // point-set generation
  double index_s = 0.0;   // CoverageMap / PointGridIndex build
};

SetupCost setup_cost(const Workload& w, std::uint64_t subseed);

}  // namespace perfbench
