// Declarative fault-injection campaigns (schema decor.faults.v1).
//
// Permanent kills (core::fail_random_fraction / fail_area on an engine's
// field, ProtocolHarness::schedule_random_kills in a protocol run) and
// channel loss are the two easiest faults. Real deployments also see
// reboots that lose protocol state, radio partitions that later heal,
// corrupted frames, and sink outages. A FaultPlan describes such a
// campaign declaratively (parseable from JSON via common::parse_json);
// the FaultInjector arms every event on the simulator queue, so a
// campaign is as deterministic as the protocol run it disturbs: same
// seed, same plan, same trajectory.
//
// Fault classes:
//   reboot      kill `count` nodes (or a `fraction` of the alive set) at
//               `at`; each restarts in place after `downtime` with fresh
//               protocol state (amnesia) via World::reboot.
//   partition   sever every link crossing the `axis` < `threshold` line
//               from `at` until `until` (scheduled heal). Deterministic:
//               no RNG is consulted for the cut.
//   corruption  per-bit flip probability `ber` on every frame from `at`
//               until `until`; the radio converts it to a per-frame CRC
//               failure probability (see Radio::set_corruption_ber).
//   sink_outage kill one designated node (the data-plane sink) at `at`
//               and reboot it after `downtime`.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"

namespace decor::common {
class JsonValue;
}

namespace decor::sim {

class World;

struct FaultEvent {
  enum class Kind { kReboot, kPartition, kCorruption, kSinkOutage };

  Kind kind = Kind::kReboot;
  /// Sim time at which the fault strikes.
  Time at = 0.0;
  /// reboot / sink_outage: how long the victim stays dark.
  double downtime = 5.0;
  /// reboot: fraction of the then-alive population to hit (used when
  /// count == 0); rounded, at least one victim when positive.
  double fraction = 0.0;
  /// reboot: absolute victim count (takes precedence over fraction).
  std::uint32_t count = 0;
  /// partition: split axis ('x' or 'y') and coordinate threshold.
  char axis = 'x';
  double threshold = 0.0;
  /// partition / corruption: heal / end time (must be > at).
  double until = 0.0;
  /// corruption: per-bit flip probability in (0, 1).
  double ber = 0.0;
};

const char* fault_kind_name(FaultEvent::Kind kind) noexcept;

/// An ordered list of fault events. Parsing accepts the documented JSON
/// shape; to_json() renders the canonical form embedded in flight-bundle
/// manifests, so a failed campaign is reproducible from its bundle.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const noexcept { return events.empty(); }

  /// Canonical rendering: {"schema":"decor.faults.v1","events":[...]}.
  std::string to_json() const;

  /// Parses {"schema":"decor.faults.v1"?, "events":[{"kind":...},...]}.
  /// On failure returns nullopt and, when `error` is non-null, stores a
  /// one-line description of the first offending event.
  static std::optional<FaultPlan> parse(const common::JsonValue& doc,
                                        std::string* error = nullptr);

  /// Reads and parses a plan file.
  static std::optional<FaultPlan> load(const std::string& path,
                                       std::string* error = nullptr);
};

/// Arms a FaultPlan on a world's event queue and executes it through
/// harness-provided hooks. The injector owns no protocol knowledge: the
/// harness decides how a node dies (ground-truth coverage bookkeeping)
/// and how it reboots (which process type to construct).
class FaultInjector {
 public:
  struct Hooks {
    /// Kills one node (must tolerate an already-dead victim).
    std::function<void(std::uint32_t)> kill;
    /// Reboots one dead node in place (must tolerate an alive victim,
    /// i.e. be a no-op — a later plan event may have revived it).
    std::function<void(std::uint32_t)> reboot;
    /// Node ids the random victim picker must never select (the
    /// data-plane sink; it only goes down via explicit sink_outage).
    std::function<bool(std::uint32_t)> is_protected;
    /// Target of sink_outage events.
    std::uint32_t sink = 0;
    bool has_sink = false;
  };

  FaultInjector(World& world, FaultPlan plan, Hooks hooks);

  /// Schedules every plan event. Call once, before the run starts.
  void arm();

  /// True while at least one partition is installed — invariant checks
  /// that assume a connected field (single leader per cell) must hold
  /// their fire while this is set.
  bool partition_active() const noexcept { return active_partitions_ > 0; }

  /// Individual fault firings so far (a reboot of 5 nodes counts once).
  std::uint64_t faults_fired() const noexcept { return fired_.size(); }
  const std::vector<std::string>& fired() const noexcept { return fired_; }

  const FaultPlan& plan() const noexcept { return plan_; }

  /// Pre-rendered JSON value for the flight-bundle manifest:
  /// {"plan":<decor.faults.v1>,"fired":["t=10 reboot n=3",...]}.
  std::string manifest_json() const;

 private:
  void fire(const FaultEvent& ev);
  void fire_reboot(const FaultEvent& ev);
  void fire_partition(const FaultEvent& ev);
  void fire_corruption(const FaultEvent& ev);
  void fire_sink_outage(const FaultEvent& ev);
  void note_fired(const FaultEvent& ev, const std::string& detail);

  World& world_;
  FaultPlan plan_;
  Hooks hooks_;
  bool armed_ = false;
  int active_partitions_ = 0;
  std::vector<std::string> fired_;
};

}  // namespace decor::sim
