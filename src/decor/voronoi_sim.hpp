// Protocol-driven Voronoi DECOR on the discrete-event simulator.
//
// The Voronoi scheme needs no leaders: every node owns its local Voronoi
// cell (the approximation points within rc that lie closer to it than to
// any neighbor it can hear) and independently places replacements for its
// own uncovered points. This runner executes that per-node loop over the
// real radio: neighbor knowledge comes from HELLO/heartbeats, placements
// are announced with kPlacement messages, and newly spawned nodes claim
// territory simply by being heard. A harness-level watchdog models the
// paper's deployment assumption (a human/robot carries starter nodes)
// when only unowned points — beyond rc of the whole network — remain
// uncovered. Everything else lives in the shared ProtocolHarness core
// (protocol_harness.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "decor/protocol_harness.hpp"

namespace decor::core {

struct VoronoiSimConfig : RunConfig {
  /// Pacing of each node's coverage-check loop.
  double check_interval = 0.5;

  /// Simulated seconds without ground-truth progress before the watchdog
  /// seeds the frontier (unowned uncovered points).
  double stall_timeout = 10.0;
};

struct VoronoiSimResult : RunResult {
  /// Nodes the watchdog (robot) had to seed, out of placed_nodes.
  std::size_t seeded_nodes = 0;
};

class VoronoiSimHarness final : public ProtocolHarness {
 public:
  struct Shared;

  explicit VoronoiSimHarness(VoronoiSimConfig cfg);

  /// Runs until full k-coverage or cfg.run_time; callable repeatedly
  /// (failure injection between calls resumes the protocol).
  VoronoiSimResult run();

 private:
  std::unique_ptr<net::SensorNode> make_node() override;
  std::function<void()> make_stall_check() override;
  void watchdog_seed();

  std::shared_ptr<Shared> shared_;
  double stall_timeout_;
  std::size_t seeded_ = 0;
};

VoronoiSimResult run_voronoi_decor_sim(const VoronoiSimConfig& cfg);

}  // namespace decor::core
