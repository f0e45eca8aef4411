#include "decor/run_report.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
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

/// Compact re-serialization of a parsed value (manifest display). Number
/// formatting goes through format_double, so re-rendered bytes are
/// deterministic even if they differ cosmetically from the source.
void json_to_stream(const JsonValue& v, std::ostream& os) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      os << "null";
      break;
    case JsonValue::Type::kBool:
      os << (v.as_bool() ? "true" : "false");
      break;
    case JsonValue::Type::kNumber:
      os << common::format_double(v.as_number());
      break;
    case JsonValue::Type::kString:
      os << '"' << common::json_escape(v.as_string()) << '"';
      break;
    case JsonValue::Type::kArray: {
      os << '[';
      bool first = true;
      for (const auto& item : v.items()) {
        if (!first) os << ',';
        first = false;
        json_to_stream(item, os);
      }
      os << ']';
      break;
    }
    case JsonValue::Type::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [k, mv] : v.members()) {
        if (!first) os << ',';
        first = false;
        os << '"' << common::json_escape(k) << "\":";
        json_to_stream(mv, os);
      }
      os << '}';
      break;
    }
  }
}

std::string json_to_string(const JsonValue& v) {
  std::ostringstream os;
  json_to_stream(v, os);
  return os.str();
}

std::string fmt(double v) { return common::format_double(v); }

// --- field heatmaps ------------------------------------------------------

void render_heatmap_svg(std::ostream& os, const JsonValue& snap,
                        std::size_t cols, std::size_t rows,
                        std::uint64_t global_max) {
  const std::size_t px =
      std::clamp<std::size_t>(cols == 0 ? 8 : 320 / cols, 4, 16);
  const std::size_t w = cols * px;
  const std::size_t h = rows * px;
  os << "<svg width=\"" << w << "\" height=\"" << h << "\" viewBox=\"0 0 "
     << w << " " << h << "\" xmlns=\"http://www.w3.org/2000/svg\">";
  os << "<rect width=\"" << w << "\" height=\"" << h
     << "\" fill=\"#f7f7f7\" stroke=\"#ccc\"/>";
  const auto* raster = snap.find("raster");
  if (raster != nullptr && global_max > 0) {
    const auto& cells = raster->items();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto d = static_cast<std::uint64_t>(cells[i].as_number());
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
                          const RunReportOptions& opts) {
  const auto& h = a.header;
  const auto cols = h.number_at<std::size_t>("cols", 1);
  const auto rows = h.number_at<std::size_t>("rows", 1);
  os << "<h2>Field snapshots — " << html_escape(a.rel) << "</h2>\n";
  os << "<p>raster " << cols << "×" << rows << ", k="
     << fmt(h.number_at("k")) << ", field " << fmt(h.number_at("x0")) << ","
     << fmt(h.number_at("y0")) << " +" << fmt(h.number_at("width")) << "×"
     << fmt(h.number_at("height")) << "</p>\n";
  if (a.records.empty()) {
    os << "<p>no snapshots recorded</p>\n";
    return;
  }

  // One color scale across the whole file, so a draining deficit fades
  // visibly from snapshot to snapshot.
  std::uint64_t global_max = 0;
  for (const auto& s : a.records) {
    if (const auto* raster = s.find("raster")) {
      for (const auto& cell : raster->items()) {
        global_max = std::max(
            global_max, static_cast<std::uint64_t>(cell.as_number()));
      }
    }
  }

  // Even subsample (first and last always kept) when the run recorded
  // more snapshots than the report should carry.
  std::vector<std::size_t> picks;
  const std::size_t n = a.records.size();
  const std::size_t cap = std::max<std::size_t>(opts.max_heatmaps, 2);
  if (n <= cap) {
    for (std::size_t i = 0; i < n; ++i) picks.push_back(i);
  } else {
    for (std::size_t i = 0; i < cap; ++i) {
      picks.push_back(i * (n - 1) / (cap - 1));
    }
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
    os << "<p>" << n << " snapshots recorded; showing " << picks.size()
       << " (evenly subsampled)</p>\n";
  }

  os << "<div class=\"snaps\">\n";
  for (const std::size_t i : picks) {
    const auto& s = a.records[i];
    os << "<figure>";
    render_heatmap_svg(os, s, cols, rows, global_max);
    os << "<figcaption>t=" << fmt(s.number_at("t"))
       << (s.find("forced") != nullptr && s.find("forced")->as_bool()
               ? " (forced)"
               : "")
       << ", deficit " << fmt(s.number_at("total_deficit")) << ", uncovered "
       << fmt(s.number_at("uncovered"));
    if (const auto* holes = s.find("holes");
        holes != nullptr && !holes->items().empty()) {
      os << ", " << holes->items().size() << " hole"
         << (holes->items().size() == 1 ? "" : "s");
    }
    os << "</figcaption></figure>\n";
  }
  os << "</div>\n";

  // Hole inventory of the last rendered snapshot: the holes that still
  // matter when the artifact ends.
  const auto& last = a.records.back();
  if (const auto* holes = last.find("holes");
      holes != nullptr && !holes->items().empty()) {
    os << "<h3>Holes at t=" << fmt(last.number_at("t")) << "</h3>\n"
       << "<table><tr><th>points</th><th>area</th><th>centroid</th>"
          "<th>max deficit</th></tr>\n";
    for (const auto& hole : holes->items()) {
      os << "<tr><td>" << fmt(hole.number_at("points")) << "</td><td>"
         << fmt(hole.number_at("area")) << "</td><td>"
         << fmt(hole.number_at("cx")) << "," << fmt(hole.number_at("cy"))
         << "</td><td>" << fmt(hole.number_at("max_deficit"))
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }
}

// --- timeline charts -----------------------------------------------------

void render_polyline_chart(std::ostream& os, const std::string& label,
                           const std::vector<std::pair<double, double>>& pts,
                           double y_max) {
  const int w = 640, h = 140, pad = 4;
  os << "<figure><svg width=\"" << w << "\" height=\"" << h
     << "\" viewBox=\"0 0 " << w << " " << h
     << "\" xmlns=\"http://www.w3.org/2000/svg\">"
     << "<rect width=\"" << w << "\" height=\"" << h
     << "\" fill=\"#f7f7f7\" stroke=\"#ccc\"/>";
  if (!pts.empty() && y_max > 0.0) {
    const double t0 = pts.front().first;
    const double t1 = pts.back().first;
    const double span = t1 > t0 ? t1 - t0 : 1.0;
    os << "<polyline fill=\"none\" stroke=\"#06c\" stroke-width=\"1.5\" "
          "points=\"";
    bool first = true;
    for (const auto& [t, v] : pts) {
      const double x =
          pad + (t - t0) / span * static_cast<double>(w - 2 * pad);
      const double y = static_cast<double>(h - pad) -
                       std::clamp(v / y_max, 0.0, 1.0) *
                           static_cast<double>(h - 2 * pad);
      if (!first) os << ' ';
      first = false;
      os << fmt(x) << ',' << fmt(y);
    }
    os << "\"/>";
  }
  os << "</svg><figcaption>" << html_escape(label);
  if (!pts.empty()) {
    os << " — t " << fmt(pts.front().first) << "…" << fmt(pts.back().first)
       << " s, max " << fmt(y_max);
  }
  os << "</figcaption></figure>\n";
}

void render_timeline_section(std::ostream& os, const Artifact& a) {
  os << "<h2>Timeline — " << html_escape(a.rel) << "</h2>\n";
  if (a.records.empty()) {
    os << "<p>no samples recorded</p>\n";
    return;
  }
  std::vector<std::pair<double, double>> covered, arq, alive;
  double arq_max = 0.0, alive_max = 0.0, convergence = -1.0;
  for (const auto& s : a.records) {
    const double t = s.number_at("t");
    covered.emplace_back(t, s.number_at("covered"));
    const double in_flight = s.number_at("arq_in_flight");
    arq.emplace_back(t, in_flight);
    arq_max = std::max(arq_max, in_flight);
    const double al = s.number_at("alive");
    alive.emplace_back(t, al);
    alive_max = std::max(alive_max, al);
    if (convergence < 0.0 && s.number_at("uncovered", 1.0) == 0.0) {
      convergence = t;
    }
  }
  os << "<p>" << a.records.size() << " samples; "
     << (convergence >= 0.0
             ? "first fully covered sample at t=" + fmt(convergence) + " s"
             : std::string("never fully covered while sampling"))
     << "</p>\n";
  render_polyline_chart(os, "covered fraction", covered, 1.0);
  render_polyline_chart(os, "ARQ frames in flight", arq, arq_max);
  render_polyline_chart(os, "alive nodes", alive, alive_max);
}

// --- audit table ---------------------------------------------------------

void render_audit_section(std::ostream& os, const Artifact& a,
                          const RunReportOptions& opts) {
  os << "<h2>Placement audit — " << html_escape(a.rel) << "</h2>\n";
  if (a.records.empty()) {
    os << "<p>no decisions recorded</p>\n";
    return;
  }
  std::map<std::string, std::size_t> reasons;
  std::size_t near_ties = 0;
  for (const auto& r : a.records) {
    ++reasons[r.string_at("reason")];
    const double benefit = r.number_at("benefit");
    // A runner-up within 10% of the winner is a near-tie: the decision
    // another belief state could plausibly have flipped.
    if (benefit > 0.0 && r.number_at("runner_up") >= 0.9 * benefit) {
      ++near_ties;
    }
  }
  os << "<p>" << a.records.size() << " decisions (";
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
  const std::size_t shown =
      std::min(a.records.size(), opts.max_audit_rows);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& r = a.records[i];
    os << "<tr><td>" << fmt(r.number_at("t")) << "</td><td>"
       << fmt(r.number_at("actor")) << "</td><td>" << fmt(r.number_at("cell"))
       << "</td><td>" << html_escape(r.string_at("reason")) << "</td><td>"
       << fmt(r.number_at("point")) << "</td><td>" << fmt(r.number_at("x"))
       << "," << fmt(r.number_at("y")) << "</td><td>"
       << fmt(r.number_at("benefit")) << "</td><td>"
       << fmt(r.number_at("runner_up")) << "</td><td>"
       << fmt(r.number_at("candidates")) << "</td><td>"
       << fmt(r.number_at("newly_satisfied")) << "</td><td>"
       << fmt(r.number_at("trace_id")) << "</td></tr>\n";
  }
  os << "</table>\n";
  if (shown < a.records.size()) {
    os << "<p>" << (a.records.size() - shown)
       << " further decisions omitted</p>\n";
  }
}

// --- trace message stats -------------------------------------------------

void render_trace_section(std::ostream& os, const Artifact& a) {
  os << "<h2>Message stats — " << html_escape(a.rel) << "</h2>\n";
  std::map<std::string, std::uint64_t> tx_by_kind;
  std::uint64_t tx = 0, rx = 0, drops = 0, acks = 0;
  double convergence = -1.0;
  for (const auto& row : a.records) {
    const auto r = sim::trace_record_from_json(row);
    if (!r) continue;
    if (r->kind == sim::TraceKind::kProtocol) {
      if (r->detail == "converged" && convergence < 0.0) convergence = r->at;
      continue;
    }
    if (r->kind == sim::TraceKind::kRx) ++rx;
    if (r->kind == sim::TraceKind::kDrop) ++drops;
    if (r->kind != sim::TraceKind::kTx) continue;
    ++tx;
    const int mk = sim::parse_trace_detail(r->detail).kind;
    if (mk == net::kAck) {
      ++acks;
      continue;
    }
    ++tx_by_kind[net::msg_kind_label(mk)];
  }
  os << "<p>" << a.records.size() << " records: " << tx << " tx (" << acks
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
  os << "<figure><svg width=\"" << w << "\" height=\"" << h
     << "\" viewBox=\"0 0 " << w << " " << h
     << "\" xmlns=\"http://www.w3.org/2000/svg\">"
     << "<rect width=\"" << w << "\" height=\"" << h
     << "\" fill=\"#f7f7f7\" stroke=\"#ccc\"/>";
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
  os << "<figure><svg width=\"" << w << "\" height=\"" << h
     << "\" viewBox=\"0 0 " << w << " " << h
     << "\" xmlns=\"http://www.w3.org/2000/svg\">"
     << "<rect width=\"" << w << "\" height=\"" << h
     << "\" fill=\"#f7f7f7\" stroke=\"#ccc\"/>";
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
  if (doc.last_hole.present) {
    os << "<tr><td>last hole to close</td><td>centroid "
       << fmt(doc.last_hole.cx) << "," << fmt(doc.last_hole.cy) << ", "
       << doc.last_hole.points << " points, area " << fmt(doc.last_hole.area)
       << ", max deficit " << doc.last_hole.max_deficit << " (open at t="
       << fmt(doc.last_hole.t) << ")</td></tr>\n";
  }
  if (doc.closing_placement.present) {
    os << "<tr><td>closing placement</td><td>t="
       << fmt(doc.closing_placement.t) << " by node "
       << doc.closing_placement.actor << " ("
       << html_escape(doc.closing_placement.reason) << ") at "
       << fmt(doc.closing_placement.x) << ","
       << fmt(doc.closing_placement.y) << ", newly satisfied "
       << doc.closing_placement.newly_satisfied << ", trace "
       << doc.closing_placement.trace_id << "</td></tr>\n";
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
      os << html_escape(json_to_string(v));
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
       << (a.kind == "manifest" || a.kind == "metrics" ? 1
                                                       : a.records.size())
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
    if (a.kind == "field") render_field_section(os, a, opts);
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

/// Per-run summary distilled from the loaded artifacts (the columns of
/// the aggregate table; the first timeline artifact speaks for the run).
struct RunSummary {
  std::size_t timeline_samples = 0;
  double convergence = -1.0;
  double final_covered = -1.0;
  double final_alive = 0.0;
  std::size_t field_snapshots = 0;
  std::size_t audit_records = 0;
  std::size_t trace_records = 0;
  std::vector<std::pair<double, double>> covered_series;
};

RunSummary summarize_run(const std::vector<Artifact>& artifacts) {
  RunSummary s;
  for (const auto& a : artifacts) {
    if (a.kind == "timeline" && s.timeline_samples == 0) {
      s.timeline_samples = a.records.size();
      for (const auto& r : a.records) {
        const double t = r.number_at("t");
        s.covered_series.emplace_back(t, r.number_at("covered"));
        if (s.convergence < 0.0 && r.number_at("uncovered", 1.0) == 0.0) {
          s.convergence = t;
        }
      }
      if (!a.records.empty()) {
        s.final_covered = a.records.back().number_at("covered");
        s.final_alive = a.records.back().number_at("alive");
      }
    } else if (a.kind == "field") {
      s.field_snapshots += a.records.size();
    } else if (a.kind == "audit") {
      s.audit_records += a.records.size();
    } else if (a.kind == "trace") {
      s.trace_records += a.records.size();
    }
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
  const int w = 640, h = 200, pad = 4;
  double t0 = 0.0, t1 = 0.0;
  bool any = false;
  for (const auto& [label, s] : runs) {
    if (s.covered_series.empty()) continue;
    if (!any) {
      t0 = s.covered_series.front().first;
      t1 = s.covered_series.back().first;
      any = true;
    } else {
      t0 = std::min(t0, s.covered_series.front().first);
      t1 = std::max(t1, s.covered_series.back().first);
    }
  }
  os << "<h2>Convergence overlay</h2>\n<figure><svg width=\"" << w
     << "\" height=\"" << h << "\" viewBox=\"0 0 " << w << " " << h
     << "\" xmlns=\"http://www.w3.org/2000/svg\">"
     << "<rect width=\"" << w << "\" height=\"" << h
     << "\" fill=\"#f7f7f7\" stroke=\"#ccc\"/>";
  if (any) {
    const double span = t1 > t0 ? t1 - t0 : 1.0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& series = runs[i].second.covered_series;
      if (series.empty()) continue;
      os << "<polyline fill=\"none\" stroke=\""
         << kRunPalette[i % kRunPaletteSize]
         << "\" stroke-width=\"1.5\" points=\"";
      bool first = true;
      for (const auto& [t, v] : series) {
        const double x =
            pad + (t - t0) / span * static_cast<double>(w - 2 * pad);
        const double y = static_cast<double>(h - pad) -
                         std::clamp(v, 0.0, 1.0) *
                             static_cast<double>(h - 2 * pad);
        if (!first) os << ' ';
        first = false;
        os << fmt(x) << ',' << fmt(y);
      }
      os << "\"/>";
    }
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

std::string render_run_report_html(const std::string& dir,
                                   const RunReportOptions& opts) {
  return render_run_report_html(std::vector<std::string>{dir}, opts);
}

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
    os << "<tr><td><a href=\"#run-" << i << "\">" << html_escape(label)
       << "</a></td><td>" << s.timeline_samples << "</td><td>"
       << (s.convergence >= 0.0 ? fmt(s.convergence) + " s"
                                : std::string("never"))
       << "</td><td>"
       << (s.final_covered >= 0.0 ? fmt(s.final_covered * 100.0) + "%"
                                  : std::string("-"))
       << "</td><td>" << fmt(s.final_alive) << "</td><td>"
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
