// Live TUI dashboard over the streaming telemetry artifacts.
//
// `decor watch` renders the same decor.* JSONL streams the simulators
// emit — decor.timeline.v1 samples, decor.field.v1 deficit rasters and
// decor.metrics.v1 registry snapshots — as a fixed-size text dashboard:
// a k-deficit heatmap (max-pooled onto the terminal raster) plus
// sparklines for coverage %, alive nodes, the ARQ retransmission ratio
// and data-plane goodput. Two feeding modes share one DashboardState:
//
//   * replay: a completed run directory (or flight bundle) is loaded
//     through the artifact loader, its typed rows merged in time order,
//     and one frame rendered per timeline/field event;
//   * follow: a DTLM frame stream (`--telemetry=-` piped from a live
//     `decor sim`, a capture file, or stdin) is consumed incrementally.
//
// Rendering is byte-deterministic: frames depend only on the ingested
// rows and the requested geometry — identical artifacts produce
// identical frames (the golden-frame test diffs renderer output).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coverage/field_recorder.hpp"
#include "sim/audit_log.hpp"
#include "sim/timeline.hpp"

namespace decor::core {

/// Accumulated dashboard inputs: the timeline so far and the latest field
/// snapshot; metrics snapshots and audit records are only counted.
class DashboardState {
 public:
  /// Ingests one JSONL line from stream `stream` ("timeline", "field",
  /// "metrics", "audit"; other names are ignored) through its schema's
  /// reader. Header lines (any object with a "schema" member) configure
  /// the state; the field header carries k and the raster geometry.
  /// Returns false, counting the line in malformed(), for a line that
  /// does not parse or that the reader rejects.
  bool ingest(std::string_view stream, std::string_view line);

  /// Typed feeds, as replay hands over the loader's rows.
  void set_field_header(const coverage::FieldHeader& h) { field_header_ = h; }
  void add(sim::TimelineSample s);
  void add(coverage::FieldSnapshot s);
  void add(const sim::AuditRecord& r);
  void add_metrics(double t);

  const std::vector<sim::TimelineSample>& timeline() const noexcept {
    return timeline_;
  }
  const std::optional<coverage::FieldHeader>& field_header() const noexcept {
    return field_header_;
  }
  /// The latest field snapshot, if any.
  const std::optional<coverage::FieldSnapshot>& field() const noexcept {
    return field_;
  }
  /// The latest snapshot is drawn on the current header's raster.
  bool has_field() const noexcept {
    return field_header_ && field_ &&
           field_->raster.size() == field_header_->cols * field_header_->rows;
  }
  std::size_t field_snapshots() const noexcept { return field_count_; }
  std::size_t metrics_snapshots() const noexcept { return metrics_count_; }
  std::size_t audit_records() const noexcept { return audit_count_; }
  /// Latest sim time seen on any stream.
  double last_t() const noexcept { return last_t_; }
  std::size_t malformed() const noexcept { return malformed_; }
  /// Counts `n` lines a loader rejected before they reached the state.
  void note_malformed(std::size_t n) noexcept { malformed_ += n; }

  /// Whole frames missing from a damaged capture (DTLM sequence gaps in
  /// follow mode); surfaced on the status line when nonzero.
  void note_dropped(std::uint64_t n) noexcept { dropped_frames_ += n; }
  std::uint64_t dropped_frames() const noexcept { return dropped_frames_; }

 private:
  std::vector<sim::TimelineSample> timeline_;
  std::optional<coverage::FieldHeader> field_header_;
  std::optional<coverage::FieldSnapshot> field_;
  std::size_t field_count_ = 0;
  std::size_t metrics_count_ = 0;
  std::size_t audit_count_ = 0;
  double last_t_ = 0.0;
  std::size_t malformed_ = 0;
  std::uint64_t dropped_frames_ = 0;
};

/// Renders one dashboard frame: exactly `rows` lines (each padded or
/// truncated to `cols` display columns, '\n'-terminated). Geometry is
/// clamped to the 32x10 minimum the layout needs. Pure function of the
/// state — the determinism contract of the golden-frame test.
std::string render_dashboard_frame(const DashboardState& state,
                                   std::size_t cols, std::size_t rows);

struct WatchOptions {
  std::size_t cols = 72;
  std::size_t rows = 20;
  /// Replay: render at most this many frames, evenly subsampled with
  /// first and last kept (0 = every timeline/field event). Follow: stop
  /// after this many frames (0 = until EOF).
  std::size_t max_frames = 0;
  /// true = prefix each frame with an ANSI home+clear (live terminal);
  /// false = separate frames with a form-feed line (files, goldens).
  bool ansi = false;
};

/// Replays the JSONL artifacts under `dir` (recursively; files are
/// classified by their schema header and merged in time order) and
/// writes one frame per timeline/field event to `out`. Returns the
/// number of frames written. Throws common::RequireError when `dir` is
/// not a readable directory.
std::size_t watch_replay_dir(const std::string& dir,
                             const WatchOptions& opts, std::ostream& out);

/// Consumes DTLM frames ("DTLM <stream> <seq> <len>\n<payload>\n") from
/// `in` until EOF (or max_frames), rendering a dashboard frame after
/// every timeline/field event. Non-DTLM lines are skipped, so the feed
/// may be interleaved with ordinary program output. Returns the number
/// of frames written.
std::size_t watch_follow(std::FILE* in, const WatchOptions& opts,
                         std::ostream& out);

}  // namespace decor::core
