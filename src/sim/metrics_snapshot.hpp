// Periodic metrics-registry snapshots: the decor.metrics.v1 artifact.
//
// The metrics registry (common/metrics.hpp) holds the run's cumulative
// counters, but until now it was only dumped once, at exit, into the
// --json report. The snapshotter samples the registry on the timeline
// cadence and publishes one summary line per tick on the telemetry bus —
// so a consumer can see *when* retransmissions spiked, not just how many
// there were in total. Histograms are summarized as p50/p90/p99 quantile
// estimates (fixed-bucket interpolation, deterministic) instead of raw
// bucket arrays to keep the lines compact.
//
// Line shape (after the {"schema":"decor.metrics.v1"} header):
//   {"t":12.5,"counters":{...},"gauges":{...},
//    "histograms":{name:{"total":n,"p50":x,"p90":x,"p99":x}}}
//
// A bounded tail of rendered lines is kept in memory for the flight
// recorder, mirroring how Timeline keeps its samples.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace decor::sim {

class MetricsSnapshotter {
 public:
  /// Bus plumbing, as common::TelemetryChannel documents it.
  void attach_bus(common::TelemetryBus* bus) { channel_.attach_bus(bus); }
  bool open_jsonl(const std::string& path) {
    return channel_.open_jsonl(path);
  }
  void close_jsonl() { channel_.close_jsonl(); }

  /// Snapshots the global registry every `period` sim-seconds (first
  /// snapshot immediately) until stop(). The snapshotter must outlive
  /// the simulator events it schedules.
  void start(Simulator& sim, Time period);
  void stop();
  bool active() const noexcept { return active_; }

  /// Takes one snapshot immediately (the harnesses call this at the
  /// convergence instant, like Timeline::sample_once).
  void snapshot_once();

  std::uint64_t snapshots_taken() const noexcept { return taken_; }

  /// The most recent rendered lines, oldest first (flight-recorder
  /// tail); bounded to `kTailCap`.
  std::vector<std::string> tail() const;

  /// One snapshot of the current registry state as a decor.metrics.v1
  /// line (no trailing newline).
  static std::string snapshot_json(double t);

  static constexpr std::size_t kTailCap = 256;

 private:
  void tick();
  void take(double t);

  Simulator* sim_ = nullptr;
  Time period_ = 0.0;
  bool active_ = false;
  std::uint64_t taken_ = 0;
  std::deque<std::string> tail_;
  common::TelemetryChannel channel_{common::TelemetryStream::kMetrics,
                                    "{\"schema\":\"decor.metrics.v1\"}"};
};

}  // namespace decor::sim
