// Protocol-driven grid DECOR on the discrete-event simulator.
//
// The offline engine (grid_engine.*) emulates distributed execution with
// synchronous rounds; this runner executes the real thing: every sensor is
// a sim::NodeProcess exchanging HELLO / heartbeat / election / placement
// messages over the unit-disc radio, leaders are elected with randomized
// rotation, and replacement sensors are spawned into the running world.
// It exists to validate the protocol end-to-end (tests) and to ground the
// message accounting of the offline engine against real radio traffic.
// Everything but the leader-driven node logic lives in the shared
// ProtocolHarness core (protocol_harness.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "decor/protocol_harness.hpp"
#include "geometry/grid_partition.hpp"
#include "net/leader_election.hpp"

namespace decor::core {

struct SimRunConfig : RunConfig {
  /// Pacing of a leader's placement loop (one new sensor per interval).
  double placement_interval = 0.5;

  /// How often leaders probe adjacent cells for silence before seeding.
  double seed_check_interval = 5.0;

  net::ElectionParams election{60.0, 0.05, 0.01};
};

using SimRunResult = RunResult;

class GridSimHarness final : public ProtocolHarness {
 public:
  /// Shared static field knowledge handed to every simulated node
  /// (defined in the .cpp; opaque to API users).
  struct Shared;

  explicit GridSimHarness(SimRunConfig cfg);

  const geom::GridPartition& partition() const noexcept;

  /// Chaos: at simulated time `at`, kills the node currently acting as a
  /// cell leader (lowest cell id with an alive leader wins). Victims are
  /// resolved when the event fires, so "whoever leads then" is targeted.
  /// No-op if no leader is alive at `at`.
  void schedule_leader_kill(double at);

  /// Runs the simulation until full k-coverage or cfg.run_time.
  SimRunResult run() { return run_protocol(); }

 private:
  std::unique_ptr<net::SensorNode> make_node() override;
  void add_scheme_invariants() override;
  std::string timeline_leaders() override;

  std::shared_ptr<Shared> shared_;
  /// First sim time each cell was seen with >1 leader (grace tracking
  /// for the leader-uniqueness invariant; cleared on recovery).
  std::map<std::uint32_t, double> leader_conflict_since_;
};

/// One-call convenience wrapper.
SimRunResult run_grid_decor_sim(const SimRunConfig& cfg);

}  // namespace decor::core
