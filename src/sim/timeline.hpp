// Convergence timeline: periodic snapshots of protocol-level state.
//
// The trace answers "what happened to this message"; the timeline answers
// "how was the run doing at time t". At a configurable sim-time cadence a
// harness-provided probe samples coverage fraction, uncovered points,
// live nodes, ARQ in-flight depth and (grid scheme) the per-cell leader
// set. Samples accumulate in memory for tests and the flight recorder,
// and optionally stream to a `decor.timeline.v1` JSONL file (one header
// line with the schema, then one JSON object per sample).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace decor::common {
class JsonValue;
}

namespace decor::sim {

struct TimelineSample {
  Time t = 0.0;
  /// Ground-truth fraction of approximation points at >= k coverage.
  double covered_fraction = 0.0;
  std::uint64_t uncovered_points = 0;
  std::uint64_t alive_nodes = 0;
  /// Sum of outstanding reliable sends across alive nodes.
  std::uint64_t arq_in_flight = 0;
  /// Leader registry, "cell:node" pairs space-separated (grid scheme;
  /// empty for leaderless schemes).
  std::string leaders;
  /// Data-plane goodput series: unique readings (and their wire bytes)
  /// delivered at the sink so far. Only serialized when `has_readings`
  /// — runs without a data plane keep their historical byte layout.
  bool has_readings = false;
  std::uint64_t readings_delivered = 0;
  std::uint64_t reading_bytes = 0;
  /// Invariant-monitor series (fault campaigns): cumulative violations
  /// at sample time. Only serialized when `has_invariants`, so runs
  /// without a monitor keep their historical byte layout.
  bool has_invariants = false;
  std::uint64_t invariant_violations = 0;
  /// ARQ detail series (`--timeline-arq`): cumulative reliable sends and
  /// retransmissions at sample time, for live retx-ratio sparklines.
  /// Only serialized when `has_arq_detail` — default runs keep their
  /// historical byte layout.
  bool has_arq_detail = false;
  std::uint64_t arq_sent = 0;
  std::uint64_t arq_retx = 0;

  bool operator==(const TimelineSample&) const = default;
};

/// Time of the first sample with zero uncovered points, or a negative
/// value if coverage never converged within the sampled window: the one
/// convergence rule of the timeline and of every reader of its rows.
Time convergence_time(const std::vector<TimelineSample>& samples) noexcept;

class Timeline {
 public:
  using Probe = std::function<TimelineSample()>;

  /// Samples `probe` every `period` sim-seconds (first sample immediately)
  /// until stop() or the simulation ends. The Timeline must outlive the
  /// simulator events it schedules — harnesses own both.
  void start(Simulator& sim, Time period, Probe probe);
  void stop();

  /// Takes one sample immediately, outside the periodic schedule. The
  /// harnesses call this at the convergence instant so the final state
  /// always lands on the timeline even when the run stops between ticks.
  void sample_once();

  bool active() const noexcept { return active_; }

  /// Bus plumbing, as common::TelemetryChannel documents it.
  void attach_bus(common::TelemetryBus* bus) { channel_.attach_bus(bus); }
  bool open_jsonl(const std::string& path) {
    return channel_.open_jsonl(path);
  }
  void close_jsonl() { channel_.close_jsonl(); }

  const std::vector<TimelineSample>& samples() const noexcept {
    return samples_;
  }

  /// sim::convergence_time of the samples so far.
  Time convergence_time() const noexcept {
    return sim::convergence_time(samples_);
  }

  /// The most recent `n` samples, oldest first (flight-recorder tail).
  std::vector<TimelineSample> tail(std::size_t n) const;

 private:
  void tick();
  void write_sample(const TimelineSample& s);

  Simulator* sim_ = nullptr;
  Time period_ = 0.0;
  Probe probe_;
  bool active_ = false;
  std::vector<TimelineSample> samples_;
  common::TelemetryChannel channel_{common::TelemetryStream::kTimeline,
                                    "{\"schema\":\"decor.timeline.v1\"}"};
};

/// Serializes one sample as a decor.timeline.v1 JSON line (no trailing
/// newline); shared by the JSONL sink and the flight recorder.
std::string timeline_sample_json(const TimelineSample& s);

/// The reader twin of timeline_sample_json: the sample a parsed row
/// holds, or nullopt when common::data_row_time rejects the row or it
/// has no `uncovered` count. That member has no default, since 0 would
/// read a damaged row as convergence. An optional column group is
/// present when its first member is.
std::optional<TimelineSample> timeline_sample_from_json(
    const common::JsonValue& row);

}  // namespace decor::sim
