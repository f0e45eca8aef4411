// Schema-classified discovery of run-directory artifacts.
//
// Every consumer that interprets a finished run — `decor report html`,
// `decor watch` replay, `decor explain` — used to walk the directory
// itself and sniff each file's first line. This helper is the single
// copy of that logic: it discovers files in sorted relative-path order
// (directory iteration order is filesystem-dependent; every consumer's
// byte-determinism contract depends on the sort), classifies each by its
// schema header or record shape, and decodes each data line once through
// its schema's reader (DESIGN.md §8), so consumers read typed rows.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "coverage/field_recorder.hpp"
#include "sim/audit_log.hpp"
#include "sim/timeline.hpp"
#include "sim/trace.hpp"

namespace decor::core {

/// One artifact file, classified by its first line: a "schema" member
/// names the JSONL dialect; trace dumps (which carry no header) are
/// recognized by their seq/kind record shape; whole-file JSON documents
/// (manifest.json, metrics.json) are parsed in one piece.
struct Artifact {
  std::string rel;   ///< path relative to the scanned dir, generic form
  /// "field", "timeline", "audit", "metrics-stream" (decor.metrics.v1
  /// snapshots), "trace", "manifest", "metrics" (metrics.json document),
  /// or "other".
  std::string kind;
  common::JsonValue header;  ///< schema line, or the whole document
  /// The data lines in file order, decoded by the reader of `kind`; only
  /// the vector of that kind fills.
  std::vector<sim::TimelineSample> timeline;
  std::vector<coverage::FieldSnapshot> field;
  std::vector<sim::AuditRecord> audit;
  std::vector<sim::TraceRecord> trace;
  /// Parsed data lines of kinds without a reader (metrics streams, other).
  std::vector<common::JsonValue> records;
  /// A field artifact's header; nullopt when the reader rejected it, and
  /// then every data line counts as malformed.
  std::optional<coverage::FieldHeader> field_header;
  std::size_t malformed = 0;  ///< unparseable or rejected lines, skipped

  /// Data lines kept, whatever their kind.
  std::size_t rows() const noexcept {
    return timeline.size() + field.size() + audit.size() + trace.size() +
           records.size();
  }
};

/// Artifacts that cannot contribute anything to a consumer: a file with
/// zero parsed records (sinks that opened but never flushed a line, or
/// files truncated down to nothing) or one that did not parse at all.
/// Counted warnings, per the report convention — never hard failures.
struct ArtifactWarning {
  std::string rel;
  std::string reason;
};

/// Loads one JSONL file the way load_run_artifacts loads each of a
/// directory's: classified by its first line, unparseable or rejected
/// lines skipped and counted; `rel` names it in the artifact.
Artifact load_jsonl_artifact(const std::string& path, const std::string& rel);

/// Loads every recognized artifact under `dir` (recursively, so flight
/// bundles nested in a run directory are included): *.jsonl files plus
/// manifest.json / metrics.json documents. Throws common::RequireError
/// when `dir` is not a readable directory (`context` prefixes the
/// message, e.g. "report"); unreadable, malformed or rejected lines are
/// skipped and counted per artifact.
std::vector<Artifact> load_run_artifacts(const std::string& dir,
                                         const std::string& context);

/// Indices of `n` items evenly subsampled down to `cap` (0: no cap), the
/// first and last kept (only the last when `cap` is 1): the heatmaps of
/// `decor report html` and the replay frames of `decor watch`.
std::vector<std::size_t> even_subsample(std::size_t n, std::size_t cap);

/// The counted warnings for a loaded artifact set (empty, truncated or
/// unparseable files, rejected field headers).
std::vector<ArtifactWarning> collect_artifact_warnings(
    const std::vector<Artifact>& artifacts);

}  // namespace decor::core
