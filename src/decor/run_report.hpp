// Self-contained HTML reports rendered from run artifacts alone.
//
// `decor report html <run-dir>` turns the JSONL artifacts a run leaves
// behind — decor.field.v1 deficit snapshots, decor.timeline.v1 samples,
// decor.audit.v1 placement decisions, trace dumps and flight-recorder
// manifests — into one dependency-free HTML document: inline SVG
// heatmaps per field snapshot, coverage/ARQ timeline charts, the audit
// table and per-kind message statistics. Nothing but the artifacts is
// consulted (no live simulator state), so a report can be rendered on a
// different machine, long after the run, or from a flight bundle alone.
//
// The rendering is byte-deterministic: files are discovered in sorted
// relative-path order, all numbers go through common::format_double, and
// no timestamps or absolute paths are embedded. Identical artifacts
// produce identical bytes — `diff` on two reports diffs two runs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace decor::core {

struct RunReportOptions {
  /// Most field snapshots rendered as heatmaps per field file; when a
  /// file holds more, snapshots are subsampled evenly (first and last
  /// always kept) and the report says how many were skipped.
  std::size_t max_heatmaps = 10;
  /// Most audit rows rendered; the report counts the rest.
  std::size_t max_audit_rows = 200;
};

/// Renders the report for every recognized artifact under each of
/// `dirs` (recursively, so flight bundles nested in a run directory are
/// included). Unreadable, malformed or rejected artifact lines are
/// skipped and counted in the report itself; empty or truncated
/// artifacts and rejected field headers are counted warnings in the
/// report header. Several directories make an aggregate report: a
/// run-vs-run summary table (convergence time, final coverage,
/// placements, warnings) and an overlaid covered-fraction chart open it,
/// anchor-linked to the per-run sections. Labels come from the directory
/// basenames, never absolute paths. Throws common::RequireError when
/// `dirs` is empty or any entry is not a readable directory.
std::string render_run_report_html(const std::vector<std::string>& dirs,
                                   const RunReportOptions& opts = {});

}  // namespace decor::core
