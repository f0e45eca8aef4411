// Placement audit log: why each sensor went where it went.
//
// The timeline answers "how was the run doing", the field recorder
// "where was it failing"; the audit log answers "why did this actor pick
// this point". Every placement decision the protocol nodes make — a
// leader's Equation-1 arg-max, a seed placement into an empty cell, a
// Voronoi watchdog wake-up — appends one record with the actor, the
// chosen point, the winning benefit, the runner-up benefit and candidate
// count from the same scan, how many points the placement newly
// satisfied in the actor's belief, and the trace id pre-minted for the
// resulting kPlacement exchange (so an audit row joins onto the causal
// trace of its own announcement).
//
// Records accumulate in memory and optionally stream to a
// `decor.audit.v1` JSONL file: one schema header line, then one object
// per decision.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "geometry/point.hpp"

namespace decor::common {
class JsonValue;
}

namespace decor::sim {

struct AuditRecord {
  /// Simulation time of the decision.
  double t = 0.0;
  /// Deciding node.
  std::uint64_t actor = 0;
  /// Grid cell the decision concerns: the actor's cell for benefit
  /// placements, the seeded cell for seeds, -1 under leaderless schemes.
  std::int64_t cell = -1;
  /// Decision kind: "benefit" (Equation-1 arg-max), "seed" (empty-cell
  /// seeding) or "watchdog" (Voronoi stall recovery).
  std::string reason;
  /// Chosen approximation point id and its position.
  std::uint64_t point = 0;
  geom::Point2 pos{};
  /// Equation-1 benefit of the winner under the actor's belief.
  std::uint64_t benefit = 0;
  /// Benefit of the second-best eligible candidate (equal to `benefit`
  /// on a tie, 0 when the winner was unopposed).
  std::uint64_t runner_up = 0;
  /// Eligible candidates the arg-max scanned.
  std::uint64_t candidates = 0;
  /// Points that crossed from below k to k in the actor's belief.
  std::uint64_t newly_satisfied = 0;
  /// Trace id of the kPlacement exchange this decision caused.
  std::uint64_t trace_id = 0;

  bool operator==(const AuditRecord&) const = default;
};

class AuditLog {
 public:
  /// Bus plumbing, as common::TelemetryChannel documents it.
  void attach_bus(common::TelemetryBus* bus) { channel_.attach_bus(bus); }
  bool open_jsonl(const std::string& path) {
    return channel_.open_jsonl(path);
  }
  void close_jsonl() { channel_.close_jsonl(); }

  void record(AuditRecord r);

  const std::vector<AuditRecord>& records() const noexcept {
    return records_;
  }

  /// One record as a decor.audit.v1 line (no trailing newline).
  static std::string record_json(const AuditRecord& r);

 private:
  std::vector<AuditRecord> records_;
  common::TelemetryChannel channel_{common::TelemetryStream::kAudit,
                                    "{\"schema\":\"decor.audit.v1\"}"};
};

/// The reader twin of AuditLog::record_json: the record a parsed row
/// holds, or nullopt when common::data_row_time rejects the row.
std::optional<AuditRecord> audit_record_from_json(
    const common::JsonValue& row);

}  // namespace decor::sim
