// Schema-classified discovery of run-directory artifacts.
//
// Every consumer that interprets a finished run — `decor report html`,
// `decor watch` replay, `decor explain` — used to walk the directory
// itself and sniff each file's first line. This helper is the single
// copy of that logic: it discovers files in sorted relative-path order
// (directory iteration order is filesystem-dependent; every consumer's
// byte-determinism contract depends on the sort), classifies each by its
// schema header or record shape, and parses the lines once.
//
// Raw line text is retained alongside the parsed records so replay-style
// consumers (the dashboard ingests verbatim JSONL lines) and tree-style
// consumers (the report walks parsed values) share one loader.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"

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
  std::string header_line;   ///< raw schema line text ("" when none)
  std::vector<common::JsonValue> records;  ///< parsed data lines, file order
  std::vector<std::string> lines;  ///< raw text of `records`, same order
  std::size_t malformed = 0;       ///< unparseable lines, skipped
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
/// directory's: classified by its first line, unparseable lines skipped
/// and counted; `rel` names it in the artifact.
Artifact load_jsonl_artifact(const std::string& path, const std::string& rel);

/// Loads every recognized artifact under `dir` (recursively, so flight
/// bundles nested in a run directory are included): *.jsonl files plus
/// manifest.json / metrics.json documents. Throws common::RequireError
/// when `dir` is not a readable directory (`context` prefixes the
/// message, e.g. "report"); unreadable or malformed lines are skipped
/// and counted per artifact.
std::vector<Artifact> load_run_artifacts(const std::string& dir,
                                         const std::string& context);

/// The counted warnings for a loaded artifact set (empty, truncated or
/// unparseable files).
std::vector<ArtifactWarning> collect_artifact_warnings(
    const std::vector<Artifact>& artifacts);

}  // namespace decor::core
