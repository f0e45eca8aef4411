#include "decor/watch.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <ostream>
#include <tuple>
#include <utility>

#include "common/json.hpp"
#include "common/require.hpp"
#include "decor/artifacts.hpp"

namespace decor::core {

namespace {

/// One decimal place, C locale (the CLI never calls setlocale).
std::string fmt1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

/// Display columns of a UTF-8 string: every non-continuation byte is one
/// column (all glyphs the renderer emits are single-width).
std::size_t display_width(std::string_view s) {
  std::size_t w = 0;
  for (const char c : s) {
    if ((static_cast<unsigned char>(c) & 0xC0) != 0x80) ++w;
  }
  return w;
}

/// Appends `s` truncated/padded to exactly `cols` display columns plus a
/// newline — the invariant every dashboard line keeps.
void append_padded(std::string& out, std::string_view s, std::size_t cols) {
  std::size_t w = 0;
  std::size_t i = 0;
  while (i < s.size() && w < cols) {
    std::size_t j = i + 1;
    while (j < s.size() &&
           (static_cast<unsigned char>(s[j]) & 0xC0) == 0x80) {
      ++j;
    }
    out.append(s, i, j - i);
    ++w;
    i = j;
  }
  out.append(cols - w, ' ');
  out.push_back('\n');
}

constexpr const char* kSparkGlyphs[8] = {"▁", "▂", "▃",
                                         "▄", "▅", "▆",
                                         "▇", "█"};
constexpr const char* kHeatGlyphs[4] = {"░", "▒", "▓",
                                        "█"};

/// One sparkline row: fixed-width label, latest value, then the series
/// min/max-normalized onto the eighth-block glyphs (evenly subsampled to
/// the remaining width; a constant series renders as the lowest block).
void append_spark_row(std::string& out, std::size_t cols,
                      std::string_view label,
                      const std::vector<double>& series) {
  std::string line(label);
  if (line.size() < 10) line.append(10 - line.size(), ' ');
  const std::string val = series.empty() ? std::string("-")
                                         : fmt1(series.back());
  if (val.size() < 9) line.append(9 - val.size(), ' ');
  line += val;
  line += ' ';
  if (!series.empty() && cols > display_width(line)) {
    const std::size_t w = cols - display_width(line);
    double lo = series[0];
    double hi = series[0];
    for (const double v : series) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const std::size_t n = series.size();
    const std::size_t points = std::min(w, n);
    for (std::size_t x = 0; x < points; ++x) {
      const std::size_t idx =
          points > 1 ? x * (n - 1) / (points - 1) : n - 1;
      std::size_t g = 0;
      if (hi > lo) {
        g = static_cast<std::size_t>((series[idx] - lo) / (hi - lo) * 7.0 +
                                     0.5);
        g = std::min<std::size_t>(g, 7);
      }
      line += kSparkGlyphs[g];
    }
  }
  append_padded(out, line, cols);
}

}  // namespace

bool DashboardState::ingest(std::string_view stream, std::string_view line) {
  const auto doc = common::parse_json(line);
  // Adds what a reader decoded; false when it rejected the line.
  const auto take = [this](auto row) {
    if (row) add(std::move(*row));
    return row.has_value();
  };
  bool ok = doc.has_value() && doc->is_object();
  if (!ok) {
    // Not a JSON object: counted below.
  } else if (doc->find("schema") != nullptr) {
    // Header line: the field header carries the raster geometry; the
    // timeline/metrics/audit headers carry nothing the dashboard needs.
    if (stream == "field") {
      field_header_ = coverage::field_header_from_json(*doc);
      ok = field_header_.has_value();
    }
  } else if (stream == "timeline") {
    ok = take(sim::timeline_sample_from_json(*doc));
  } else if (stream == "field") {
    ok = field_header_ &&
         take(coverage::field_snapshot_from_json(*doc, *field_header_));
  } else if (stream == "audit") {
    ok = take(sim::audit_record_from_json(*doc));
  } else if (stream == "metrics") {
    add_metrics(doc->number_at("t"));
  }
  if (!ok) ++malformed_;
  return ok;
}

void DashboardState::add(sim::TimelineSample s) {
  last_t_ = std::max(last_t_, s.t);
  timeline_.push_back(std::move(s));
}

void DashboardState::add(coverage::FieldSnapshot s) {
  last_t_ = std::max(last_t_, s.t);
  ++field_count_;
  field_ = std::move(s);
}

void DashboardState::add(const sim::AuditRecord& r) {
  last_t_ = std::max(last_t_, r.t);
  ++audit_count_;
}

void DashboardState::add_metrics(double t) {
  last_t_ = std::max(last_t_, t);
  ++metrics_count_;
}

std::string render_dashboard_frame(const DashboardState& state,
                                   std::size_t cols, std::size_t rows) {
  cols = std::max<std::size_t>(cols, 32);
  rows = std::max<std::size_t>(rows, 10);
  std::string out;
  out.reserve(rows * (cols + 1) * 3);

  const auto& tl = state.timeline();
  std::string status = "decor watch  t=" + fmt1(state.last_t()) + "s";
  if (!tl.empty()) {
    status += "  covered=" + fmt1(tl.back().covered_fraction * 100.0) + "%";
    status += "  alive=" + std::to_string(tl.back().alive_nodes);
    status += "  uncovered=" + std::to_string(tl.back().uncovered_points);
  }
  status += "  [tl " + std::to_string(tl.size()) + " | field " +
            std::to_string(state.field_snapshots()) + " | metrics " +
            std::to_string(state.metrics_snapshots()) + "]";
  if (state.dropped_frames() > 0) {
    status += "  dropped=" + std::to_string(state.dropped_frames());
  }
  if (state.malformed() > 0) {
    status += "  !" + std::to_string(state.malformed()) + " bad";
  }
  append_padded(out, status, cols);
  append_padded(out, std::string(cols, '-'), cols);

  // Heatmap: max-pool the k-deficit raster onto heat_rows x cols display
  // cells (max keeps pinhole coverage holes visible after downscaling);
  // raster row 0 is the field's south edge, so display flips vertically.
  const std::size_t heat_rows = rows - 7;
  if (state.has_field()) {
    const coverage::FieldHeader& h = *state.field_header();
    const coverage::FieldSnapshot& snap = *state.field();
    const std::size_t fc = h.cols;
    const std::size_t fr = h.rows;
    for (std::size_t r = 0; r < heat_rows; ++r) {
      std::string line;
      const std::size_t rlo = r * fr / heat_rows;
      const std::size_t rhi = std::max(rlo + 1, (r + 1) * fr / heat_rows);
      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t clo = c * fc / cols;
        const std::size_t chi = std::max(clo + 1, (c + 1) * fc / cols);
        std::uint32_t d = 0;
        for (std::size_t rr = rlo; rr < rhi && rr < fr; ++rr) {
          for (std::size_t cc = clo; cc < chi && cc < fc; ++cc) {
            d = std::max(d, snap.raster[(fr - 1 - rr) * fc + cc]);
          }
        }
        if (d == 0) {
          line += ' ';
        } else {
          const double ratio = static_cast<double>(d) / h.k;
          line += ratio >= 1.0
                      ? kHeatGlyphs[3]
                      : (ratio > 2.0 / 3.0
                             ? kHeatGlyphs[2]
                             : (ratio > 1.0 / 3.0 ? kHeatGlyphs[1]
                                                  : kHeatGlyphs[0]));
        }
      }
      append_padded(out, line, cols);
    }
    append_padded(out,
                  "field t=" + fmt1(snap.t) + "  deficit=" +
                      fmt1(static_cast<double>(snap.total_deficit)) +
                      "  uncovered=" + std::to_string(snap.uncovered_points) +
                      "  k=" + std::to_string(h.k) + " raster=" +
                      std::to_string(fc) + "x" + std::to_string(fr),
                  cols);
  } else {
    for (std::size_t r = 0; r < heat_rows; ++r) {
      append_padded(out,
                    r == heat_rows / 2 ? "  (no decor.field.v1 snapshots)"
                                       : "",
                    cols);
    }
    append_padded(out, "field -", cols);
  }

  std::vector<double> covered;
  std::vector<double> alive;
  std::vector<double> retx;
  std::vector<double> goodput;
  bool any_arq = false;
  bool any_readings = false;
  for (const auto& p : tl) {
    any_arq = any_arq || p.has_arq_detail;
    any_readings = any_readings || p.has_readings;
  }
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const auto& p = tl[i];
    covered.push_back(p.covered_fraction * 100.0);
    alive.push_back(static_cast<double>(p.alive_nodes));
    if (any_arq) {
      retx.push_back(p.arq_sent > 0 ? 100.0 *
                                          static_cast<double>(p.arq_retx) /
                                          static_cast<double>(p.arq_sent)
                                    : 0.0);
    } else {
      retx.push_back(static_cast<double>(p.arq_in_flight));
    }
    if (any_readings) {
      const double dt = i > 0 ? p.t - tl[i - 1].t : p.t;
      const double db =
          i > 0 ? static_cast<double>(p.reading_bytes) -
                      static_cast<double>(tl[i - 1].reading_bytes)
                : static_cast<double>(p.reading_bytes);
      goodput.push_back(dt > 0.0 ? db / dt : 0.0);
    } else {
      goodput.push_back(static_cast<double>(p.uncovered_points));
    }
  }
  append_spark_row(out, cols, "covered %", covered);
  append_spark_row(out, cols, "alive", alive);
  append_spark_row(out, cols, any_arq ? "retx %" : "inflight", retx);
  append_spark_row(out, cols, any_readings ? "goodput" : "uncovered",
                   goodput);
  return out;
}

namespace {

void emit_frame(const DashboardState& state, const WatchOptions& opts,
                std::ostream& out) {
  if (opts.ansi) out << "\x1b[H\x1b[2J";
  out << render_dashboard_frame(state, opts.cols, opts.rows);
  if (!opts.ansi) out << "\f\n";
}

struct ReplayEvent {
  double t;
  int rank;  ///< timeline < field < metrics/audit at equal t
  std::size_t file;
  std::size_t row;
};

}  // namespace

std::size_t watch_replay_dir(const std::string& dir,
                             const WatchOptions& opts, std::ostream& out) {
  const auto artifacts = load_run_artifacts(dir, "watch");

  DashboardState state;
  std::vector<ReplayEvent> events;
  for (std::size_t fi = 0; fi < artifacts.size(); ++fi) {
    const auto& a = artifacts[fi];
    // Headers configure the state up front (the bus replays them the
    // same way to late-attached sinks), and the lines the loader
    // rejected count as bad from the first frame; data rows are merged
    // by time.
    if (a.field_header) state.set_field_header(*a.field_header);
    state.note_malformed(a.malformed);
    const auto merge = [&](const auto& rows, int rank) {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        events.push_back({rows[i].t, rank, fi, i});
      }
    };
    merge(a.timeline, 0);
    merge(a.field, 1);
    merge(a.audit, 2);
    if (a.kind != "metrics-stream") continue;
    double t = 0.0;  // a snapshot without `t` sorts with its predecessor
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      t = a.records[i].number_at("t", t);
      events.push_back({t, 2, fi, i});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const ReplayEvent& a, const ReplayEvent& b) {
              return std::tie(a.t, a.rank, a.file, a.row) <
                     std::tie(b.t, b.rank, b.file, b.row);
            });

  std::size_t total_frames = 0;
  for (const auto& e : events) {
    if (e.rank < 2) ++total_frames;
  }
  const auto chosen = even_subsample(total_frames, opts.max_frames);

  std::size_t frame_idx = 0;
  std::size_t written = 0;
  for (const auto& e : events) {
    const Artifact& a = artifacts[e.file];
    if (a.kind == "timeline") {
      state.add(a.timeline[e.row]);
    } else if (a.kind == "field") {
      state.add(a.field[e.row]);
    } else if (a.kind == "audit") {
      state.add(a.audit[e.row]);
    } else {
      state.add_metrics(e.t);
    }
    if (e.rank == 2) continue;
    if (std::binary_search(chosen.begin(), chosen.end(), frame_idx)) {
      emit_frame(state, opts, out);
      ++written;
    }
    ++frame_idx;
  }
  if (written == 0) {
    // Nothing frame-worthy (e.g. metrics-only directory): still show
    // the final state once so `decor watch` never outputs nothing.
    emit_frame(state, opts, out);
    ++written;
  }
  return written;
}

namespace {

bool read_stream_line(std::FILE* in, std::string& line) {
  line.clear();
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') return true;
    line.push_back(static_cast<char>(c));
  }
  return !line.empty();
}

}  // namespace

std::size_t watch_follow(std::FILE* in, const WatchOptions& opts,
                         std::ostream& out) {
  DashboardState state;
  std::string line;
  std::size_t written = 0;
  // Per-stream DTLM sequence tracking: data frames carry a 1-based
  // per-stream seq (headers ride seq 0), so a gap is exactly the number
  // of whole frames missing from a damaged capture.
  std::map<std::string, unsigned long long> last_seq;
  while (read_stream_line(in, line)) {
    char stream_buf[32];
    unsigned long long seq = 0;
    std::size_t len = 0;
    if (std::sscanf(line.c_str(), "DTLM %31s %llu %zu", stream_buf, &seq,
                    &len) != 3) {
      continue;  // interleaved program output; resync on the next frame
    }
    if (len > (64u << 20)) continue;  // corrupt length; resync
    std::string payload(len, '\0');
    if (std::fread(payload.data(), 1, len, in) != len) break;
    const int nl = std::fgetc(in);
    if (nl != '\n' && nl != EOF) std::ungetc(nl, in);
    const std::string stream(stream_buf);
    if (seq > 0) {
      const auto it = last_seq.find(stream);
      if (it != last_seq.end() && seq > it->second + 1) {
        state.note_dropped(seq - it->second - 1);
      }
      last_seq[stream] = std::max(seq, it != last_seq.end() ? it->second
                                                            : 0ULL);
    }
    state.ingest(stream, payload);
    // Schema headers configure the state but carry no sample — wait for
    // the first data line before painting.
    if (payload.rfind("{\"schema\"", 0) == 0) continue;
    if (stream == "timeline" || stream == "field") {
      emit_frame(state, opts, out);
      out.flush();
      ++written;
      if (opts.max_frames > 0 && written >= opts.max_frames) break;
    }
  }
  if (written == 0) {
    emit_frame(state, opts, out);
    ++written;
  }
  return written;
}

}  // namespace decor::core
