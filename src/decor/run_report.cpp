#include "decor/run_report.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <vector>

#include "common/json.hpp"
#include "common/require.hpp"
#include "decor/artifacts.hpp"
#include "decor/explain.hpp"
#include "net/messages.hpp"
#include "sim/trace.hpp"

namespace decor::core {

namespace {

namespace fs = std::filesystem;
using common::JsonValue;

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Re-serializes a parsed value (manifest display) through the one JSON
/// writer, so re-rendered bytes are deterministic.
void write_json(common::JsonWriter& w, const JsonValue& v) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      w.null_value();
      break;
    case JsonValue::Type::kBool:
      w.value(v.as_bool());
      break;
    case JsonValue::Type::kNumber:
      w.value(v.as_number());
      break;
    case JsonValue::Type::kString:
      w.value(v.as_string());
      break;
    case JsonValue::Type::kArray:
      w.begin_array();
      for (const auto& item : v.items()) write_json(w, item);
      w.end_array();
      break;
    case JsonValue::Type::kObject:
      w.begin_object();
      for (const auto& [k, member] : v.members()) {
        w.key(k);
        write_json(w, member);
      }
      w.end_object();
      break;
  }
}

std::string fmt(double v) { return common::format_double(v); }

/// Opens a w x h <svg> on the report's chart backdrop.
void open_svg(std::ostream& os, std::size_t w, std::size_t h) {
  os << "<svg width=\"" << w << "\" height=\"" << h << "\" viewBox=\"0 0 "
     << w << " " << h << "\" xmlns=\"http://www.w3.org/2000/svg\">"
     << "<rect width=\"" << w << "\" height=\"" << h
     << "\" fill=\"#f7f7f7\" stroke=\"#ccc\"/>";
}

// --- field heatmaps ------------------------------------------------------

void render_heatmap_svg(std::ostream& os,
                        const std::vector<std::uint32_t>& raster,
                        std::size_t cols, std::size_t rows,
                        std::uint64_t global_max) {
  const std::size_t px = std::clamp<std::size_t>(320 / cols, 4, 16);
  open_svg(os, cols * px, rows * px);
  if (global_max > 0) {
    for (std::size_t i = 0; i < raster.size(); ++i) {
      const std::uint64_t d = raster[i];
      if (d == 0) continue;
      const std::size_t c = i % cols;
      const std::size_t r = i / cols;
      // Raster rows run bottom-up; SVG y runs down.
      const std::size_t y = (rows - 1 - r) * px;
      // White (deficit 1 barely visible would be wrong: scale so the
      // smallest deficit is still clearly tinted) down to full red.
      const std::uint64_t g = 200 - (200 * d) / global_max;
      os << "<rect x=\"" << c * px << "\" y=\"" << y << "\" width=\"" << px
         << "\" height=\"" << px << "\" fill=\"rgb(255," << g << "," << g
         << ")\"/>";
    }
  }
  os << "</svg>";
}

void render_field_section(std::ostream& os, const Artifact& a,
                          const coverage::FieldHeader& h,
                          const RunReportOptions& opts) {
  os << "<h2>Field snapshots — " << html_escape(a.rel) << "</h2>\n";
  os << "<p>raster " << h.cols << "×" << h.rows << ", k=" << fmt(h.k)
     << ", field " << fmt(h.x0) << "," << fmt(h.y0) << " +" << fmt(h.width)
     << "×" << fmt(h.height) << "</p>\n";
  if (a.field.empty()) {
    os << "<p>no snapshots recorded</p>\n";
    return;
  }

  // One color scale across the whole file, so a draining deficit fades
  // visibly from snapshot to snapshot.
  std::uint64_t global_max = 0;
  for (const auto& s : a.field) {
    for (const std::uint32_t d : s.raster) {
      global_max = std::max<std::uint64_t>(global_max, d);
    }
  }

  // Even subsample (first and last always kept) when the run recorded
  // more snapshots than the report should carry.
  const std::size_t n = a.field.size();
  const auto picks =
      even_subsample(n, std::max<std::size_t>(opts.max_heatmaps, 2));
  if (picks.size() < n) {
    os << "<p>" << n << " snapshots recorded; showing " << picks.size()
       << " (evenly subsampled)</p>\n";
  }

  os << "<div class=\"snaps\">\n";
  for (const std::size_t i : picks) {
    const auto& s = a.field[i];
    os << "<figure>";
    render_heatmap_svg(os, s.raster, h.cols, h.rows, global_max);
    os << "<figcaption>t=" << fmt(s.t) << (s.forced ? " (forced)" : "")
       << ", deficit " << fmt(s.total_deficit) << ", uncovered "
       << fmt(s.uncovered_points);
    if (!s.holes.empty()) {
      os << ", " << s.holes.size() << " hole"
         << (s.holes.size() == 1 ? "" : "s");
    }
    os << "</figcaption></figure>\n";
  }
  os << "</div>\n";

  // Hole inventory of the last rendered snapshot: the holes that still
  // matter when the artifact ends.
  const auto& last = a.field.back();
  if (!last.holes.empty()) {
    os << "<h3>Holes at t=" << fmt(last.t) << "</h3>\n"
       << "<table><tr><th>points</th><th>area</th><th>centroid</th>"
          "<th>max deficit</th></tr>\n";
    for (const auto& hole : last.holes) {
      os << "<tr><td>" << fmt(hole.points) << "</td><td>" << fmt(hole.area)
         << "</td><td>" << fmt(hole.centroid.x) << ","
         << fmt(hole.centroid.y) << "</td><td>" << fmt(hole.max_deficit)
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }
}

// --- timeline charts -----------------------------------------------------

/// A polyline through timeline samples on a w x h chart: x maps
/// [t0, t0 + span] across, y maps value(sample) / y_max, clamped to
/// [0, 1], upwards.
void render_polyline(std::ostream& os, const char* stroke,
                     const std::vector<sim::TimelineSample>& samples,
                     double (*value)(const sim::TimelineSample&),
                     double y_max, double t0, double span, int w, int h) {
  const int pad = 4;
  os << "<polyline fill=\"none\" stroke=\"" << stroke
     << "\" stroke-width=\"1.5\" points=\"";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double x =
        pad + (samples[i].t - t0) / span * static_cast<double>(w - 2 * pad);
    const double y = static_cast<double>(h - pad) -
                     std::clamp(value(samples[i]) / y_max, 0.0, 1.0) *
                         static_cast<double>(h - 2 * pad);
    os << (i > 0 ? " " : "") << fmt(x) << ',' << fmt(y);
  }
  os << "\"/>";
}

double covered_of(const sim::TimelineSample& s) { return s.covered_fraction; }
double in_flight_of(const sim::TimelineSample& s) {
  return static_cast<double>(s.arq_in_flight);
}
double alive_of(const sim::TimelineSample& s) {
  return static_cast<double>(s.alive_nodes);
}

/// One timeline series as a captioned chart scaled to `y_max` (the
/// series maximum when `y_max` is 0).
void render_timeline_chart(std::ostream& os, const std::string& label,
                           const std::vector<sim::TimelineSample>& samples,
                           double (*value)(const sim::TimelineSample&),
                           double y_max = 0.0) {
  const int w = 640, h = 140;
  if (y_max == 0.0) {
    for (const auto& s : samples) y_max = std::max(y_max, value(s));
  }
  os << "<figure>";
  open_svg(os, w, h);
  const double t0 = samples.front().t;
  const double t1 = samples.back().t;
  if (y_max > 0.0) {
    render_polyline(os, "#06c", samples, value, y_max, t0,
                    t1 > t0 ? t1 - t0 : 1.0, w, h);
  }
  os << "</svg><figcaption>" << html_escape(label) << " — t " << fmt(t0)
     << "…" << fmt(t1) << " s, max " << fmt(y_max)
     << "</figcaption></figure>\n";
}

void render_timeline_section(std::ostream& os, const Artifact& a) {
  os << "<h2>Timeline — " << html_escape(a.rel) << "</h2>\n";
  if (a.timeline.empty()) {
    os << "<p>no samples recorded</p>\n";
    return;
  }
  const double convergence = sim::convergence_time(a.timeline);
  os << "<p>" << a.timeline.size() << " samples; "
     << (convergence >= 0.0
             ? "first fully covered sample at t=" + fmt(convergence) + " s"
             : std::string("never fully covered while sampling"))
     << "</p>\n";
  render_timeline_chart(os, "covered fraction", a.timeline, covered_of, 1.0);
  render_timeline_chart(os, "ARQ frames in flight", a.timeline, in_flight_of);
  render_timeline_chart(os, "alive nodes", a.timeline, alive_of);
}

// --- audit table ---------------------------------------------------------

void render_audit_section(std::ostream& os, const Artifact& a,
                          const RunReportOptions& opts) {
  os << "<h2>Placement audit — " << html_escape(a.rel) << "</h2>\n";
  if (a.audit.empty()) {
    os << "<p>no decisions recorded</p>\n";
    return;
  }
  std::map<std::string, std::size_t> reasons;
  std::size_t near_ties = 0;
  for (const auto& r : a.audit) {
    ++reasons[r.reason];
    // A runner-up within 10% of the winner is a near-tie: the decision
    // another belief state could plausibly have flipped.
    const auto benefit = static_cast<double>(r.benefit);
    if (benefit > 0.0 && static_cast<double>(r.runner_up) >= 0.9 * benefit) {
      ++near_ties;
    }
  }
  os << "<p>" << a.audit.size() << " decisions (";
  bool first = true;
  for (const auto& [reason, n] : reasons) {
    if (!first) os << ", ";
    first = false;
    os << html_escape(reason.empty() ? "?" : reason) << ": " << n;
  }
  os << "), " << near_ties << " near-tie" << (near_ties == 1 ? "" : "s")
     << " (runner-up within 10% of the winner)</p>\n";
  os << "<table><tr><th>t</th><th>actor</th><th>cell</th><th>reason</th>"
        "<th>point</th><th>pos</th><th>benefit</th><th>runner-up</th>"
        "<th>cands</th><th>newly sat.</th><th>trace</th></tr>\n";
  const std::size_t shown = std::min(a.audit.size(), opts.max_audit_rows);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& r = a.audit[i];
    os << "<tr><td>" << fmt(r.t) << "</td><td>" << fmt(r.actor)
       << "</td><td>" << fmt(r.cell) << "</td><td>" << html_escape(r.reason)
       << "</td><td>" << fmt(r.point) << "</td><td>" << fmt(r.pos.x) << ","
       << fmt(r.pos.y) << "</td><td>" << fmt(r.benefit) << "</td><td>"
       << fmt(r.runner_up) << "</td><td>" << fmt(r.candidates)
       << "</td><td>" << fmt(r.newly_satisfied) << "</td><td>"
       << fmt(r.trace_id) << "</td></tr>\n";
  }
  os << "</table>\n";
  if (shown < a.audit.size()) {
    os << "<p>" << (a.audit.size() - shown)
       << " further decisions omitted</p>\n";
  }
}

// --- trace message stats -------------------------------------------------

void render_trace_section(std::ostream& os, const Artifact& a) {
  os << "<h2>Message stats — " << html_escape(a.rel) << "</h2>\n";
  std::map<std::string, std::uint64_t> tx_by_kind;
  std::uint64_t tx = 0, rx = 0, drops = 0, acks = 0;
  double convergence = -1.0;
  for (const auto& r : a.trace) {
    if (r.kind == sim::TraceKind::kProtocol) {
      if (r.detail == "converged" && convergence < 0.0) convergence = r.at;
      continue;
    }
    if (r.kind == sim::TraceKind::kRx) ++rx;
    if (r.kind == sim::TraceKind::kDrop) ++drops;
    if (r.kind != sim::TraceKind::kTx) continue;
    ++tx;
    const int mk = sim::parse_trace_detail(r.detail).kind;
    if (mk == net::kAck) {
      ++acks;
      continue;
    }
    ++tx_by_kind[net::msg_kind_label(mk)];
  }
  os << "<p>" << a.trace.size() << " records: " << tx << " tx (" << acks
     << " acks), " << rx << " rx, " << drops << " dropped";
  if (convergence >= 0.0) {
    os << "; converged at t=" << fmt(convergence) << " s";
  }
  os << "</p>\n";
  if (!tx_by_kind.empty()) {
    os << "<table><tr><th>kind</th><th>tx frames</th></tr>\n";
    for (const auto& [name, n] : tx_by_kind) {
      os << "<tr><td>" << html_escape(name) << "</td><td>" << n
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }
}

// --- explain: convergence critical path ----------------------------------

constexpr const char* kPhaseColors[3] = {"#e80", "#06c", "#c33"};

void render_phase_waterfall(std::ostream& os, const ExplainDoc& doc) {
  const int w = 640, h = 26;
  const double total = doc.detection + doc.decision + doc.propagation;
  os << "<figure>";
  open_svg(os, w, h);
  if (total > 0.0) {
    const double phases[3] = {doc.detection, doc.decision, doc.propagation};
    double x = 0.0;
    for (int i = 0; i < 3; ++i) {
      const double pw = phases[i] / total * (w - 2);
      if (pw > 0.0) {
        os << "<rect x=\"" << fmt(1.0 + x) << "\" y=\"3\" width=\""
           << fmt(pw) << "\" height=\"" << h - 6 << "\" fill=\""
           << kPhaseColors[i] << "\"/>";
      }
      x += pw;
    }
  }
  os << "</svg><figcaption>restoration latency attribution — "
     << "<span style=\"color:" << kPhaseColors[0] << "\">detection "
     << fmt(doc.detection) << " s</span>, <span style=\"color:"
     << kPhaseColors[1] << "\">decision " << fmt(doc.decision)
     << " s</span>, <span style=\"color:" << kPhaseColors[2]
     << "\">propagation " << fmt(doc.propagation)
     << " s</span></figcaption></figure>\n";
}

void render_exchange_waterfall(std::ostream& os, const ExplainExchange& ex) {
  constexpr std::size_t kMaxLegs = 24;
  const std::size_t shown = std::min(ex.legs.size(), kMaxLegs);
  const int w = 640, row = 14, pad = 4;
  const int h = static_cast<int>(shown) * row + 2 * pad;
  const double span = ex.last_t > ex.first_t ? ex.last_t - ex.first_t : 1.0;
  os << "<figure>";
  open_svg(os, w, h);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& leg = ex.legs[i];
    const double x = pad + leg.dt / span * (w / 2 - 2 * pad);
    const int y = pad + static_cast<int>(i) * row;
    const char* color = leg.leg == "retransmit" ? "#c33"
                        : leg.leg == "drop"     ? "#a2a"
                        : leg.leg == "forward"  ? "#e80"
                        : leg.leg == "send"     ? "#06c"
                                                : "#2a2";
    os << "<rect x=\"" << fmt(x) << "\" y=\"" << y + 2
       << "\" width=\"5\" height=\"" << row - 4 << "\" fill=\"" << color
       << "\"/><text x=\"" << fmt(x + 9.0) << "\" y=\"" << y + row - 3
       << "\" font-size=\"10\" fill=\"#333\">" << html_escape(leg.leg)
       << " node " << leg.node;
    if (leg.from >= 0) os << " &#8592; " << leg.from;
    os << " +" << fmt(leg.dt) << "s</text>";
  }
  os << "</svg><figcaption>critical exchange waterfall — trace "
     << ex.trace_id << ", " << ex.legs.size() << " legs";
  if (shown < ex.legs.size()) {
    os << " (first " << shown << " shown)";
  }
  os << ", " << ex.retransmits << " retransmit"
     << (ex.retransmits == 1 ? "" : "s") << ", "
     << (ex.completed ? "acked" : "never completed")
     << "</figcaption></figure>\n";
}

void render_explain_section(std::ostream& os,
                            const std::vector<Artifact>& artifacts) {
  const ExplainDoc doc = analyze_run(artifacts);
  os << "<h2>Explain — convergence critical path</h2>\n";
  os << "<p>"
     << (doc.converged
             ? "converged at t=" + fmt(doc.convergence_time) + " s"
             : std::string("never converged within the artifacts"))
     << "; " << doc.audited_exchanges
     << " audited placement exchanges joined against " << doc.trace_records
     << " trace records</p>\n";
  render_phase_waterfall(os, doc);
  os << "<table><tr><th>critical path step</th><th>detail</th></tr>\n";
  if (const auto& h = doc.last_hole) {
    os << "<tr><td>last hole to close</td><td>centroid "
       << fmt(h->centroid.x) << "," << fmt(h->centroid.y) << ", "
       << h->points << " points, area " << fmt(h->area) << ", max deficit "
       << h->max_deficit << " (open at t=" << fmt(doc.last_hole_t)
       << ")</td></tr>\n";
  }
  if (const auto& p = doc.closing_placement) {
    os << "<tr><td>closing placement</td><td>t=" << fmt(p->t) << " by node "
       << p->actor << " (" << html_escape(p->reason) << ") at "
       << fmt(p->pos.x) << "," << fmt(p->pos.y) << ", newly satisfied "
       << p->newly_satisfied << ", trace " << p->trace_id << "</td></tr>\n";
  }
  if (doc.exchange.present) {
    os << "<tr><td>exchange latency</td><td>"
       << fmt(doc.exchange.last_t - doc.exchange.first_t) << " s ("
       << fmt(doc.exchange.retx_delay)
       << " s retransmission-induced)</td></tr>\n";
  }
  os << "</table>\n";
  if (doc.exchange.present) render_exchange_waterfall(os, doc.exchange);
  if (!doc.nodes.empty()) {
    os << "<h3>Worst nodes</h3>\n"
       << "<table><tr><th>node</th><th>tx</th><th>retx</th><th>drops</th>"
          "<th>dead peers</th><th>retx ratio</th><th>latency infl.</th>"
          "<th>score</th></tr>\n";
    for (const auto& n : doc.nodes) {
      os << "<tr><td>" << n.node << "</td><td>" << n.tx << "</td><td>"
         << n.retx << "</td><td>" << n.drops << "</td><td>"
         << n.dead_peer_events << "</td><td>" << fmt(n.retx_ratio)
         << "</td><td>" << fmt(n.latency_inflation) << "</td><td>"
         << fmt(n.score) << "</td></tr>\n";
    }
    os << "</table>\n";
  }
  if (!doc.links.empty()) {
    os << "<h3>Worst links</h3>\n"
       << "<table><tr><th>link</th><th>delivered</th><th>crc drops</th>"
          "<th>median latency</th><th>latency infl.</th><th>score</th>"
          "</tr>\n";
    for (const auto& l : doc.links) {
      os << "<tr><td>" << l.src << " &#8594; " << l.dst << "</td><td>"
         << l.delivered << "</td><td>" << l.crc_drops << "</td><td>"
         << fmt(l.median_latency) << "</td><td>"
         << fmt(l.latency_inflation) << "</td><td>" << fmt(l.score)
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }
  if (!doc.warnings.empty()) {
    os << "<p>explain warnings: " << doc.warnings.size() << "</p>\n<ul>\n";
    for (const auto& warning : doc.warnings) {
      os << "<li>" << html_escape(warning) << "</li>\n";
    }
    os << "</ul>\n";
  }
}

// --- manifest ------------------------------------------------------------

void render_manifest_section(std::ostream& os, const Artifact& a) {
  os << "<h2>Flight bundle — " << html_escape(a.rel) << "</h2>\n"
     << "<table><tr><th>field</th><th>value</th></tr>\n";
  for (const auto& [key, v] : a.header.members()) {
    os << "<tr><td>" << html_escape(key) << "</td><td>";
    if (v.is_string()) {
      os << html_escape(v.as_string());
    } else {
      std::ostringstream json;
      common::JsonWriter w(json);
      write_json(w, v);
      os << html_escape(json.str());
    }
    os << "</td></tr>\n";
  }
  os << "</table>\n";
}

// --- run loading and aggregation -----------------------------------------

void render_warning_block(std::ostream& os,
                          const std::vector<ArtifactWarning>& warnings) {
  os << "<p>artifact warnings: " << warnings.size() << "</p>\n";
  if (!warnings.empty()) {
    os << "<ul>\n";
    for (const auto& w : warnings) {
      os << "<li>" << html_escape(w.rel) << " — " << html_escape(w.reason)
         << "</li>\n";
    }
    os << "</ul>\n";
  }
}

/// The artifact inventory plus every per-artifact section for one run.
void render_run_body(std::ostream& os, const std::vector<Artifact>& artifacts,
                     const RunReportOptions& opts) {
  os << "<h2>Artifacts</h2>\n"
     << "<table><tr><th>file</th><th>type</th><th>records</th>"
        "<th>malformed lines</th></tr>\n";
  for (const auto& a : artifacts) {
    os << "<tr><td>" << html_escape(a.rel) << "</td><td>" << a.kind
       << "</td><td>"
       << (a.kind == "manifest" || a.kind == "metrics" ? 1 : a.rows())
       << "</td><td>" << a.malformed << "</td></tr>\n";
  }
  os << "</table>\n";
  if (artifacts.empty()) {
    os << "<p>no recognized artifacts (*.jsonl, manifest.json, "
          "metrics.json) found</p>\n";
  }

  for (const auto& a : artifacts) {
    if (a.kind == "manifest") render_manifest_section(os, a);
  }
  render_explain_section(os, artifacts);
  for (const auto& a : artifacts) {
    if (a.field_header) render_field_section(os, a, *a.field_header, opts);
  }
  for (const auto& a : artifacts) {
    if (a.kind == "timeline") render_timeline_section(os, a);
  }
  for (const auto& a : artifacts) {
    if (a.kind == "audit") render_audit_section(os, a, opts);
  }
  for (const auto& a : artifacts) {
    if (a.kind == "trace") render_trace_section(os, a);
  }
}

void render_html_head(std::ostream& os, const std::string& title) {
  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
     << "<title>" << html_escape(title) << "</title>\n<style>\n"
     << "body{font-family:sans-serif;margin:2em;max-width:72em}\n"
     << "table{border-collapse:collapse;margin:0.5em 0}\n"
     << "td,th{border:1px solid #bbb;padding:2px 8px;text-align:right}\n"
     << "th{background:#eee}\ntd:first-child,th:first-child{text-align:left}\n"
     << "figure{display:inline-block;margin:0.5em;vertical-align:top}\n"
     << "figcaption{font-size:smaller;color:#444;max-width:24em}\n"
     << ".snaps{display:flex;flex-wrap:wrap}\n"
     << "</style></head><body>\n<h1>" << html_escape(title) << "</h1>\n";
}

/// Per-run columns of the aggregate table; the run's first timeline
/// artifact speaks for it.
struct RunSummary {
  const std::vector<sim::TimelineSample>* timeline;
  std::size_t field_snapshots = 0;
  std::size_t audit_records = 0;
  std::size_t trace_records = 0;
};

RunSummary summarize_run(const std::vector<Artifact>& artifacts) {
  static const std::vector<sim::TimelineSample> kNoSamples;
  RunSummary s{&kNoSamples};
  for (const auto& a : artifacts) {
    if (a.kind == "timeline" && s.timeline->empty()) s.timeline = &a.timeline;
    s.field_snapshots += a.field.size();
    s.audit_records += a.audit.size();
    s.trace_records += a.trace.size();
  }
  return s;
}

/// Distinct stroke per run, recycled past eight runs.
constexpr const char* kRunPalette[] = {"#06c", "#c33", "#2a2", "#a2a",
                                       "#e80", "#0aa", "#888", "#640"};
constexpr std::size_t kRunPaletteSize =
    sizeof(kRunPalette) / sizeof(kRunPalette[0]);

void render_overlay_chart(
    std::ostream& os,
    const std::vector<std::pair<std::string, RunSummary>>& runs) {
  const int w = 640, h = 200;
  double t0 = 0.0, t1 = 0.0;
  bool any = false;
  for (const auto& [label, s] : runs) {
    if (s.timeline->empty()) continue;
    t0 = any ? std::min(t0, s.timeline->front().t) : s.timeline->front().t;
    t1 = any ? std::max(t1, s.timeline->back().t) : s.timeline->back().t;
    any = true;
  }
  os << "<h2>Convergence overlay</h2>\n<figure>";
  open_svg(os, w, h);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].second.timeline->empty()) continue;
    render_polyline(os, kRunPalette[i % kRunPaletteSize],
                    *runs[i].second.timeline, covered_of, 1.0, t0,
                    t1 > t0 ? t1 - t0 : 1.0, w, h);
  }
  os << "</svg><figcaption>covered fraction vs t — ";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) os << ", ";
    os << "<span style=\"color:" << kRunPalette[i % kRunPaletteSize]
       << "\">" << html_escape(runs[i].first) << "</span>";
  }
  os << "</figcaption></figure>\n";
}

/// Stable, path-free run label: "<index>: <basename>". The index keeps
/// same-named directories (seed sweeps named `run` in sibling trees)
/// distinguishable without leaking absolute paths into the bytes.
std::string run_label(const std::string& dir, std::size_t index) {
  fs::path p = fs::path(dir).lexically_normal();
  std::string base = p.filename().generic_string();
  if (base.empty() || base == ".") base = p.parent_path().filename().generic_string();
  if (base.empty()) base = "run";
  return std::to_string(index + 1) + ": " + base;
}

}  // namespace

std::string render_run_report_html(const std::vector<std::string>& dirs,
                                   const RunReportOptions& opts) {
  DECOR_REQUIRE_MSG(!dirs.empty(), "report: no run directories given");

  std::vector<std::vector<Artifact>> runs;
  runs.reserve(dirs.size());
  for (const auto& dir : dirs) {
    runs.push_back(load_run_artifacts(dir, "report"));
  }

  std::ostringstream os;
  if (runs.size() == 1) {
    render_html_head(os, "DECOR run report");
    render_warning_block(os, collect_artifact_warnings(runs.front()));
    render_run_body(os, runs.front(), opts);
    os << "</body></html>\n";
    return os.str();
  }

  render_html_head(os, "DECOR aggregate report (" +
                           std::to_string(runs.size()) + " runs)");
  std::vector<std::pair<std::string, RunSummary>> summaries;
  std::vector<std::vector<ArtifactWarning>> warnings;
  std::size_t total_warnings = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    summaries.emplace_back(run_label(dirs[i], i), summarize_run(runs[i]));
    warnings.push_back(collect_artifact_warnings(runs[i]));
    total_warnings += warnings.back().size();
  }
  os << "<p>artifact warnings: " << total_warnings
     << " (per-run details below)</p>\n";

  os << "<h2>Runs</h2>\n"
     << "<table><tr><th>run</th><th>timeline samples</th>"
        "<th>converged</th><th>final covered</th><th>final alive</th>"
        "<th>field snaps</th><th>audit records</th><th>trace records</th>"
        "<th>warnings</th></tr>\n";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const auto& [label, s] = summaries[i];
    const auto& tl = *s.timeline;
    const double convergence = sim::convergence_time(tl);
    os << "<tr><td><a href=\"#run-" << i << "\">" << html_escape(label)
       << "</a></td><td>" << tl.size() << "</td><td>"
       << (convergence >= 0.0 ? fmt(convergence) + " s" : std::string("never"))
       << "</td><td>"
       << (tl.empty() ? std::string("-")
                      : fmt(tl.back().covered_fraction * 100.0) + "%")
       << "</td><td>" << fmt(tl.empty() ? 0.0 : alive_of(tl.back()))
       << "</td><td>"
       << s.field_snapshots << "</td><td>" << s.audit_records
       << "</td><td>" << s.trace_records << "</td><td>"
       << warnings[i].size() << "</td></tr>\n";
  }
  os << "</table>\n";

  render_overlay_chart(os, summaries);

  for (std::size_t i = 0; i < runs.size(); ++i) {
    os << "<hr><h1 id=\"run-" << i << "\">Run "
       << html_escape(summaries[i].first) << "</h1>\n";
    render_warning_block(os, warnings[i]);
    render_run_body(os, runs[i], opts);
  }
  os << "</body></html>\n";
  return os.str();
}

}  // namespace decor::core
