// Causal critical-path analysis of a finished run ("why did convergence
// take this long, and who is to blame?").
//
// `decor explain <run-dir>` joins the four artifact families a run
// leaves behind — decor.timeline.v1 samples, decor.field.v1 deficit
// snapshots, decor.audit.v1 placement decisions and the trace dump's
// causality ids — and walks *backwards* from the convergence instant:
//
//   1. the last coverage hole to close (the hole in the final
//      uncovered>0 field snapshot nearest the closing placement),
//   2. the placement decision that closed it (the latest audit record
//      that newly satisfied points at or before convergence),
//   3. the full message exchange behind that placement (every trace
//      record sharing its causality id, classified into send /
//      retransmit / forward / rx / ack legs with per-leg offsets and
//      the retransmission-induced delay split out).
//
// On the same join it attributes the total restoration latency across
// three phases, following the detection / decision / propagation
// decomposition of the coverage-hole-healing literature:
//
//   detection   = time from t=0 to the first audited placement decision
//                 (nobody had decided anything yet: the fleet was
//                 discovering the failure);
//   propagation = the Lebesgue measure of the union of the in-flight
//                 intervals of all audited placement exchanges (first to
//                 last trace record per audit causality id), clipped to
//                 (detection, convergence] — wall-clock where at least
//                 one placement was on the air, which is what loss and
//                 RTO backoff stretch;
//   decision    = the remainder, so the three phases sum exactly to the
//                 convergence time by construction.
//
// Per-node and per-link health scores rank who made the run slow: nodes
// by retransmission ratio, drops at the node, exchange-latency inflation
// vs. the fleet median and dead-peer declarations; directed links
// (derived from rx records' `from=` detail — tx records carry no
// destination) by delivery latency inflation vs. the fleet median link
// latency and CRC-corrupt deliveries.
//
// Everything lands in one deterministic decor.explain.v1 JSON document:
// artifacts are loaded in sorted relative-path order, all numbers go
// through common::format_double, and no timestamps or absolute paths are
// embedded — identical artifacts produce identical bytes. Missing or
// clipped artifacts degrade to counted warnings, never hard failures
// (same convention as the HTML report): an explain document over a
// truncated trace ring still names the hole and the placement, with the
// exchange marked absent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "decor/artifacts.hpp"

namespace decor::core {

struct ExplainOptions {
  /// Worst offenders listed in the health rankings.
  std::size_t top_n = 5;
};

/// One leg of the critical-path exchange, in trace order. `dt` is the
/// offset from the exchange's first record.
struct ExplainLeg {
  double t = 0.0;
  double dt = 0.0;
  std::string leg;  ///< send|retransmit|forward|ack|rx|ack-rx|drop
  std::uint32_t node = 0;
  std::int64_t from = -1;  ///< rx legs: sender; -1 elsewhere
};

/// The message exchange behind the closing placement.
struct ExplainExchange {
  bool present = false;  ///< any trace record carried the causality id
  std::uint64_t trace_id = 0;
  std::uint32_t origin = 0;
  double first_t = 0.0;
  double last_t = 0.0;
  std::uint64_t retransmits = 0;
  /// Time from the originating send to the last retransmission leaving
  /// the origin: the delay the ARQ's retry/backoff machinery induced.
  double retx_delay = 0.0;
  bool completed = false;  ///< an ack leg closed the exchange
  std::vector<ExplainLeg> legs;
};

struct ExplainNodeHealth {
  std::uint32_t node = 0;
  std::uint64_t tx = 0;
  std::uint64_t retx = 0;
  std::uint64_t drops = 0;  ///< frames dropped inbound at this node
  std::uint64_t dead_peer_events = 0;
  double retx_ratio = 0.0;       ///< retransmits per originating send
  double latency_inflation = 0.0;  ///< median exchange latency / fleet median
  double score = 0.0;
};

struct ExplainLinkHealth {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t delivered = 0;
  std::uint64_t crc_drops = 0;
  double median_latency = 0.0;
  double latency_inflation = 0.0;  ///< vs. fleet median link latency
  double score = 0.0;
};

/// The full analysis result (the in-memory form of decor.explain.v1).
struct ExplainDoc {
  bool converged = false;
  double convergence_time = -1.0;  ///< first uncovered==0 evidence; -1 never
  double sample_cadence = 0.0;     ///< timeline sampling interval (tolerance)
  double detection = 0.0;
  double decision = 0.0;
  double propagation = 0.0;
  /// The hole whose closure produced convergence, and the time of the
  /// snapshot that last showed it open.
  std::optional<coverage::CoverageHole> last_hole;
  double last_hole_t = 0.0;
  /// The audit record that closed it.
  std::optional<sim::AuditRecord> closing_placement;
  ExplainExchange exchange;
  std::vector<ExplainNodeHealth> nodes;  ///< worst first, top_n entries
  std::vector<ExplainLinkHealth> links;  ///< worst first, top_n entries
  /// Fleet-wide context for the health scores.
  double fleet_median_exchange_latency = 0.0;
  double fleet_median_link_latency = 0.0;
  std::uint64_t audit_records = 0;
  std::uint64_t audited_exchanges = 0;  ///< audit rows whose trace ids joined
  std::uint64_t trace_records = 0;
  std::uint64_t timeline_samples = 0;
  std::vector<std::string> warnings;
};

/// Runs the analysis over an already-loaded artifact set (the HTML
/// report reuses its own load). Never throws: every degraded input
/// becomes a counted warning in the document.
ExplainDoc analyze_run(const std::vector<Artifact>& artifacts,
                       const ExplainOptions& opts = {});

/// Convenience: load_run_artifacts + analyze_run. Throws
/// common::RequireError only when `dir` is not a readable directory.
ExplainDoc explain_run_dir(const std::string& dir,
                           const ExplainOptions& opts = {});

/// Serializes the document as deterministic decor.explain.v1 JSON
/// (newline-terminated).
std::string explain_to_json(const ExplainDoc& doc);

/// Parses a decor.explain.v1 document back (for `explain diff` against
/// a saved file). Returns false when `v` is not such a document.
bool explain_from_json(const common::JsonValue& v, ExplainDoc& out);

/// Root-cause comparison of two explain documents (A = baseline,
/// B = candidate).
struct ExplainDiff {
  double convergence_delta = 0.0;  ///< B - A; computed when both converged
  bool comparable = false;
  double detection_delta = 0.0;
  double decision_delta = 0.0;
  double propagation_delta = 0.0;
  /// Phase with the largest absolute delta ("detection", "decision",
  /// "propagation"), or "none" when nothing moved.
  std::string dominant_phase = "none";
  /// Links/nodes whose health worsened most from A to B (by score
  /// delta, worst first; entries present only in B count in full).
  std::vector<ExplainLinkHealth> suspect_links;
  std::vector<ExplainNodeHealth> suspect_nodes;
};

ExplainDiff explain_diff(const ExplainDoc& a, const ExplainDoc& b,
                         std::size_t top_n = 3);

}  // namespace decor::core
