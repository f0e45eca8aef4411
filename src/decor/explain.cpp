#include "decor/explain.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "net/messages.hpp"
#include "sim/trace.hpp"

namespace decor::core {

namespace {

using common::JsonValue;

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Lebesgue measure of the union of [lo, hi] intervals.
double union_measure(std::vector<std::pair<double, double>> ivals) {
  std::sort(ivals.begin(), ivals.end());
  double total = 0.0;
  double cur_lo = 0.0, cur_hi = -1.0;
  bool open = false;
  for (const auto& [lo, hi] : ivals) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

struct NodeAgg {
  std::uint64_t tx = 0;
  std::uint64_t retx = 0;
  std::uint64_t drops = 0;
  std::uint64_t dead_peers = 0;
  std::uint64_t origin_sends = 0;
  std::vector<double> exchange_latencies;
};

struct LinkAgg {
  std::uint64_t delivered = 0;
  std::uint64_t crc_drops = 0;
  std::vector<double> latencies;
};

}  // namespace

ExplainDoc analyze_run(const std::vector<Artifact>& artifacts,
                       const ExplainOptions& opts) {
  ExplainDoc doc;
  const Artifact* timeline = nullptr;
  const Artifact* field = nullptr;
  const Artifact* audit = nullptr;
  const Artifact* trace = nullptr;
  for (const auto& a : artifacts) {
    if (a.kind == "timeline" && timeline == nullptr) timeline = &a;
    if (a.kind == "field" && field == nullptr) field = &a;
    if (a.kind == "audit" && audit == nullptr) audit = &a;
    if (a.kind == "trace" && trace == nullptr) trace = &a;
  }

  // --- convergence instant and sampling cadence --------------------------
  double max_t = 0.0;
  if (timeline != nullptr) {
    doc.timeline_samples = timeline->records.size();
    std::vector<double> diffs;
    double prev_t = 0.0;
    bool have_prev = false;
    for (const auto& s : timeline->records) {
      const double t = s.number_at("t");
      max_t = std::max(max_t, t);
      if (have_prev && t > prev_t) diffs.push_back(t - prev_t);
      prev_t = t;
      have_prev = true;
      if (doc.convergence_time < 0.0 && s.number_at("uncovered", 1.0) == 0.0) {
        doc.convergence_time = t;
        doc.converged = true;
      }
    }
    doc.sample_cadence = median_of(std::move(diffs));
  } else {
    doc.warnings.push_back("no decor.timeline.v1 artifact");
  }
  std::vector<sim::TraceRecord> rows;  // the trace artifact, read once
  if (trace != nullptr) {
    doc.trace_records = trace->records.size();
    for (const auto& row : trace->records) {
      auto r = sim::trace_record_from_json(row);
      if (!r) continue;
      max_t = std::max(max_t, r->at);
      if (!doc.converged && r->kind == sim::TraceKind::kProtocol &&
          r->detail == "converged") {
        doc.convergence_time = r->at;
        doc.converged = true;
      }
      rows.push_back(std::move(*r));
    }
  } else {
    doc.warnings.push_back("no trace artifact");
  }
  if (!doc.converged) {
    doc.warnings.push_back(
        "run never converged within the artifacts; phases attributed over "
        "the observed horizon");
  }
  // The attribution horizon: the convergence instant, or everything the
  // artifacts observed when the run never converged.
  const double horizon = doc.converged ? doc.convergence_time : max_t;

  // --- closing placement (audit walk) ------------------------------------
  std::uint64_t audits_without_trace_id = 0;
  double first_audit_t = -1.0;
  if (audit != nullptr && !audit->records.empty()) {
    doc.audit_records = audit->records.size();
    const JsonValue* sat = nullptr;   // latest with newly_satisfied > 0
    const JsonValue* last = nullptr;  // latest before the horizon at all
    for (const auto& r : audit->records) {
      const double t = r.number_at("t");
      if (first_audit_t < 0.0) first_audit_t = t;
      if (r.number_at<std::uint64_t>("trace_id") == 0) {
        ++audits_without_trace_id;
      }
      if (t > horizon + doc.sample_cadence) continue;
      last = &r;  // file order is time order: keep the latest
      if (r.number_at<std::uint64_t>("newly_satisfied") > 0) sat = &r;
    }
    // Prefer the newly-satisfied key, but only while the audit trail
    // keeps recording it: seed bootstraps log newly_satisfied=0 even
    // when they close the final hole, so a satisfied-keyed pick that
    // predates the last pre-horizon decision by more than one cadence
    // is stale — coverage was still open after it fired.
    const JsonValue* closing = sat;
    if (closing != nullptr && last != nullptr &&
        closing->number_at("t") + doc.sample_cadence < last->number_at("t")) {
      doc.warnings.push_back(
          "audit trail stops recording newly-satisfied points before "
          "convergence; using the last pre-convergence decision");
      closing = last;
    }
    if (closing == nullptr) {
      if (last != nullptr) {
        doc.warnings.push_back(
            "no audit record newly satisfied points; using the last "
            "pre-convergence decision");
        closing = last;
      } else {
        doc.warnings.push_back(
            "no audit record newly satisfied points; using the last "
            "decision");
        closing = &audit->records.back();
      }
    }
    doc.closing_placement.present = true;
    doc.closing_placement.t = closing->number_at("t");
    doc.closing_placement.actor = closing->number_at<std::uint32_t>("actor");
    doc.closing_placement.reason = closing->string_at("reason");
    doc.closing_placement.x = closing->number_at("x");
    doc.closing_placement.y = closing->number_at("y");
    doc.closing_placement.benefit = closing->number_at("benefit");
    doc.closing_placement.newly_satisfied =
        closing->number_at<std::uint64_t>("newly_satisfied");
    doc.closing_placement.trace_id =
        closing->number_at<std::uint64_t>("trace_id");
  } else {
    doc.warnings.push_back("no decor.audit.v1 artifact");
  }
  if (audits_without_trace_id > 0) {
    doc.warnings.push_back(std::to_string(audits_without_trace_id) +
                           " audit record" +
                           (audits_without_trace_id == 1 ? "" : "s") +
                           " carry no causality id");
  }

  // --- last hole to close (field walk) ------------------------------------
  if (field != nullptr && !field->records.empty()) {
    const JsonValue* last_open = nullptr;
    for (const auto& s : field->records) {
      if (s.number_at("t") > horizon + doc.sample_cadence) break;
      if (s.number_at("uncovered") > 0.0) last_open = &s;
    }
    const auto* holes =
        last_open != nullptr ? last_open->find("holes") : nullptr;
    if (holes != nullptr && !holes->items().empty()) {
      // The hole the closing placement filled: nearest centroid to the
      // placement position (first hole when no placement is known —
      // hole extraction order is deterministic).
      const JsonValue* best = &holes->items().front();
      if (doc.closing_placement.present) {
        double best_d = 0.0;
        bool first = true;
        for (const auto& h : holes->items()) {
          const double dx = h.number_at("cx") - doc.closing_placement.x;
          const double dy = h.number_at("cy") - doc.closing_placement.y;
          const double d2 = dx * dx + dy * dy;
          if (first || d2 < best_d) {
            best_d = d2;
            best = &h;
            first = false;
          }
        }
      }
      doc.last_hole.present = true;
      doc.last_hole.t = last_open->number_at("t");
      doc.last_hole.points = best->number_at<std::uint64_t>("points");
      doc.last_hole.area = best->number_at("area");
      doc.last_hole.cx = best->number_at("cx");
      doc.last_hole.cy = best->number_at("cy");
      doc.last_hole.max_deficit =
          best->number_at<std::uint32_t>("max_deficit");
    } else if (last_open != nullptr) {
      doc.warnings.push_back(
          "last uncovered field snapshot records no hole inventory");
    } else {
      doc.warnings.push_back("field snapshots never show an open hole");
    }
  } else {
    doc.warnings.push_back("no decor.field.v1 artifact");
  }

  // --- trace pass: exchanges, node stats, link stats ----------------------
  sim::ExchangeTracker tracker(net::kAck);
  std::map<std::uint32_t, NodeAgg> nodes;
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkAgg> links;
  // Last tx time per (causality id, node): an rx joins its sender's most
  // recent send to measure per-link latency.
  std::map<std::pair<std::uint64_t, std::uint32_t>, double> last_tx;
  // The closing placement's exchange, leg by leg.
  std::vector<std::pair<const sim::TraceRecord*, sim::TraceLeg>> critical;
  for (const auto& r : rows) {
    if (r.kind == sim::TraceKind::kProtocol) {
      if (r.detail.starts_with("dead-peer=")) ++nodes[r.node].dead_peers;
      continue;
    }
    const sim::TraceLeg leg = tracker.add(r);
    if (leg != sim::TraceLeg::kNone &&
        r.trace_id == doc.closing_placement.trace_id) {
      critical.emplace_back(&r, leg);
    }
    const sim::TraceDetail d = sim::parse_trace_detail(r.detail);
    if (r.kind == sim::TraceKind::kTx) {
      ++nodes[r.node].tx;
      if (leg == sim::TraceLeg::kSend) ++nodes[r.node].origin_sends;
      if (leg == sim::TraceLeg::kRetransmit) ++nodes[r.node].retx;
      if (leg != sim::TraceLeg::kNone) last_tx[{r.trace_id, r.node}] = r.at;
    } else if (r.kind == sim::TraceKind::kRx && d.from >= 0) {
      const auto from = static_cast<std::uint32_t>(d.from);
      auto& link = links[{from, r.node}];
      ++link.delivered;
      const auto it = last_tx.find({r.trace_id, from});
      if (it != last_tx.end() && r.at >= it->second) {
        link.latencies.push_back(r.at - it->second);
      }
    } else if (r.kind == sim::TraceKind::kDrop) {
      ++nodes[r.node].drops;
      if (d.crc && d.from >= 0) {
        ++links[{static_cast<std::uint32_t>(d.from), r.node}].crc_drops;
      }
    }
  }
  const auto& spans = tracker.exchanges();

  // --- phase attribution ---------------------------------------------------
  std::uint64_t audited_missing_trace = 0;
  if (horizon > 0.0) {
    if (first_audit_t < 0.0) {
      // Nothing was ever decided: the whole horizon is detection (or,
      // for never-converged runs, undiagnosed waiting).
      doc.detection = horizon;
    } else {
      doc.detection = std::min(first_audit_t, horizon);
      std::vector<std::pair<double, double>> in_flight;
      if (audit != nullptr) {
        for (const auto& r : audit->records) {
          const auto tid = r.number_at<std::uint64_t>("trace_id");
          if (tid == 0) continue;
          const auto it = spans.find(tid);
          if (it == spans.end()) {
            ++audited_missing_trace;
            continue;
          }
          ++doc.audited_exchanges;
          const double lo = std::max(it->second.first_t, doc.detection);
          const double hi = std::min(it->second.last_t, horizon);
          if (hi > lo) in_flight.emplace_back(lo, hi);
        }
      }
      doc.propagation = union_measure(std::move(in_flight));
      doc.decision =
          std::max(0.0, horizon - doc.detection - doc.propagation);
    }
  }
  if (audited_missing_trace > 0) {
    doc.warnings.push_back(
        std::to_string(audited_missing_trace) + " audited placement" +
        (audited_missing_trace == 1 ? "" : "s") +
        " have no trace records (ring truncated or tracing disabled)");
  }

  // --- the critical exchange ----------------------------------------------
  if (doc.closing_placement.present) {
    if (doc.closing_placement.trace_id == 0) {
      doc.warnings.push_back(
          "closing placement carries no causality id (trace_id=0)");
    } else if (trace == nullptr) {
      // Already warned about the missing trace artifact.
    } else {
      auto& ex = doc.exchange;
      ex.trace_id = doc.closing_placement.trace_id;
      const auto it = spans.find(ex.trace_id);
      ex.present = it != spans.end();
      if (ex.present) {
        ex.origin = it->second.origin;
        ex.first_t = it->second.first_t;
        ex.last_t = it->second.last_t;
        ex.retransmits = it->second.retransmits;
      }
      for (const auto& [r, leg] : critical) {
        ex.legs.push_back({r->at, r->at - ex.first_t, sim::trace_leg_name(leg),
                           r->node, sim::parse_trace_detail(r->detail).from});
        if (leg == sim::TraceLeg::kRetransmit) {
          ex.retx_delay = r->at - ex.first_t;
        }
        if (leg == sim::TraceLeg::kAck || leg == sim::TraceLeg::kAckRx) {
          ex.completed = true;
        }
      }
      if (!ex.present) {
        doc.warnings.push_back(
            "closing placement exchange not in the trace (ring truncated?)");
      } else if (!ex.completed) {
        doc.warnings.push_back(
            "closing placement exchange never completed (no ack leg)");
      }
    }
  }

  // --- health scores -------------------------------------------------------
  {
    std::vector<double> fleet_ex;
    for (const auto& [tid, s] : spans) {
      if (!s.has_origin) continue;
      const double d = s.last_t - s.first_t;
      nodes[s.origin].exchange_latencies.push_back(d);
      fleet_ex.push_back(d);
    }
    doc.fleet_median_exchange_latency = median_of(std::move(fleet_ex));
    std::vector<double> fleet_link;
    for (const auto& [key, l] : links) {
      fleet_link.insert(fleet_link.end(), l.latencies.begin(),
                        l.latencies.end());
    }
    doc.fleet_median_link_latency = median_of(std::move(fleet_link));

    for (auto& [id, n] : nodes) {
      ExplainNodeHealth h;
      h.node = id;
      h.tx = n.tx;
      h.retx = n.retx;
      h.drops = n.drops;
      h.dead_peer_events = n.dead_peers;
      h.retx_ratio = static_cast<double>(n.retx) /
                     static_cast<double>(std::max<std::uint64_t>(
                         n.origin_sends, 1));
      const double med = median_of(std::move(n.exchange_latencies));
      h.latency_inflation = doc.fleet_median_exchange_latency > 0.0
                                ? med / doc.fleet_median_exchange_latency
                                : 0.0;
      // Worst-offender score: every term is a "how much worse than a
      // healthy node" excess — retransmissions per originating send,
      // latency beyond the fleet median, and dead-peer declarations.
      h.score = h.retx_ratio + std::max(0.0, h.latency_inflation - 1.0) +
                0.5 * static_cast<double>(h.dead_peer_events);
      doc.nodes.push_back(h);
    }
    std::sort(doc.nodes.begin(), doc.nodes.end(),
              [](const ExplainNodeHealth& a, const ExplainNodeHealth& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.node < b.node;
              });
    if (doc.nodes.size() > opts.top_n) doc.nodes.resize(opts.top_n);

    for (auto& [key, l] : links) {
      ExplainLinkHealth h;
      h.src = key.first;
      h.dst = key.second;
      h.delivered = l.delivered;
      h.crc_drops = l.crc_drops;
      h.median_latency = median_of(std::move(l.latencies));
      h.latency_inflation = doc.fleet_median_link_latency > 0.0
                                ? h.median_latency /
                                      doc.fleet_median_link_latency
                                : 0.0;
      h.score = std::max(0.0, h.latency_inflation - 1.0) +
                0.25 * static_cast<double>(h.crc_drops);
      doc.links.push_back(h);
    }
    std::sort(doc.links.begin(), doc.links.end(),
              [](const ExplainLinkHealth& a, const ExplainLinkHealth& b) {
                if (a.score != b.score) return a.score > b.score;
                if (a.src != b.src) return a.src < b.src;
                return a.dst < b.dst;
              });
    if (doc.links.size() > opts.top_n) doc.links.resize(opts.top_n);
  }
  return doc;
}

ExplainDoc explain_run_dir(const std::string& dir,
                           const ExplainOptions& opts) {
  return analyze_run(load_run_artifacts(dir, "explain"), opts);
}

// --- serialization ---------------------------------------------------------

namespace {

void write_hole(common::JsonWriter& w, const ExplainHole& h) {
  if (!h.present) {
    w.null_value();
    return;
  }
  w.begin_object();
  w.key("t");
  w.value(h.t);
  w.key("points");
  w.value(h.points);
  w.key("area");
  w.value(h.area);
  w.key("cx");
  w.value(h.cx);
  w.key("cy");
  w.value(h.cy);
  w.key("max_deficit");
  w.value(static_cast<std::uint64_t>(h.max_deficit));
  w.end_object();
}

void write_placement(common::JsonWriter& w, const ExplainPlacement& p) {
  if (!p.present) {
    w.null_value();
    return;
  }
  w.begin_object();
  w.key("t");
  w.value(p.t);
  w.key("actor");
  w.value(static_cast<std::uint64_t>(p.actor));
  w.key("reason");
  w.value(p.reason);
  w.key("x");
  w.value(p.x);
  w.key("y");
  w.value(p.y);
  w.key("benefit");
  w.value(p.benefit);
  w.key("newly_satisfied");
  w.value(p.newly_satisfied);
  w.key("trace_id");
  w.value(p.trace_id);
  w.end_object();
}

void write_exchange(common::JsonWriter& w, const ExplainExchange& e) {
  if (!e.present) {
    w.null_value();
    return;
  }
  w.begin_object();
  w.key("trace_id");
  w.value(e.trace_id);
  w.key("origin");
  w.value(static_cast<std::uint64_t>(e.origin));
  w.key("first_t");
  w.value(e.first_t);
  w.key("last_t");
  w.value(e.last_t);
  w.key("latency");
  w.value(e.last_t - e.first_t);
  w.key("retransmits");
  w.value(e.retransmits);
  w.key("retx_delay");
  w.value(e.retx_delay);
  w.key("completed");
  w.value(e.completed);
  w.key("legs");
  w.begin_array();
  for (const auto& leg : e.legs) {
    w.begin_object();
    w.key("t");
    w.value(leg.t);
    w.key("dt");
    w.value(leg.dt);
    w.key("leg");
    w.value(leg.leg);
    w.key("node");
    w.value(static_cast<std::uint64_t>(leg.node));
    if (leg.from >= 0) {
      w.key("from");
      w.value(static_cast<std::uint64_t>(leg.from));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string explain_to_json(const ExplainDoc& doc) {
  std::ostringstream os;
  common::JsonWriter w(os);
  w.begin_object();
  w.key("schema");
  w.value("decor.explain.v1");
  w.key("converged");
  w.value(doc.converged);
  w.key("convergence_time");
  w.value(doc.convergence_time);
  w.key("sample_cadence");
  w.value(doc.sample_cadence);
  w.key("phases");
  w.begin_object();
  w.key("detection");
  w.value(doc.detection);
  w.key("decision");
  w.value(doc.decision);
  w.key("propagation");
  w.value(doc.propagation);
  w.key("total");
  w.value(doc.detection + doc.decision + doc.propagation);
  w.end_object();
  w.key("critical_path");
  w.begin_object();
  w.key("last_hole");
  write_hole(w, doc.last_hole);
  w.key("closing_placement");
  write_placement(w, doc.closing_placement);
  w.key("exchange");
  write_exchange(w, doc.exchange);
  w.end_object();
  w.key("health");
  w.begin_object();
  w.key("fleet_median_exchange_latency");
  w.value(doc.fleet_median_exchange_latency);
  w.key("fleet_median_link_latency");
  w.value(doc.fleet_median_link_latency);
  w.key("nodes");
  w.begin_array();
  for (const auto& n : doc.nodes) {
    w.begin_object();
    w.key("node");
    w.value(static_cast<std::uint64_t>(n.node));
    w.key("tx");
    w.value(n.tx);
    w.key("retx");
    w.value(n.retx);
    w.key("drops");
    w.value(n.drops);
    w.key("dead_peer_events");
    w.value(n.dead_peer_events);
    w.key("retx_ratio");
    w.value(n.retx_ratio);
    w.key("latency_inflation");
    w.value(n.latency_inflation);
    w.key("score");
    w.value(n.score);
    w.end_object();
  }
  w.end_array();
  w.key("links");
  w.begin_array();
  for (const auto& l : doc.links) {
    w.begin_object();
    w.key("src");
    w.value(static_cast<std::uint64_t>(l.src));
    w.key("dst");
    w.value(static_cast<std::uint64_t>(l.dst));
    w.key("delivered");
    w.value(l.delivered);
    w.key("crc_drops");
    w.value(l.crc_drops);
    w.key("median_latency");
    w.value(l.median_latency);
    w.key("latency_inflation");
    w.value(l.latency_inflation);
    w.key("score");
    w.value(l.score);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("inputs");
  w.begin_object();
  w.key("timeline_samples");
  w.value(doc.timeline_samples);
  w.key("audit_records");
  w.value(doc.audit_records);
  w.key("audited_exchanges");
  w.value(doc.audited_exchanges);
  w.key("trace_records");
  w.value(doc.trace_records);
  w.end_object();
  w.key("warnings");
  w.begin_array();
  for (const auto& warning : doc.warnings) w.value(warning);
  w.end_array();
  w.end_object();
  os << "\n";
  return os.str();
}

bool explain_from_json(const common::JsonValue& v, ExplainDoc& out) {
  if (v.string_at("schema") != "decor.explain.v1") return false;
  out = ExplainDoc{};
  if (const auto* c = v.find("converged")) out.converged = c->as_bool();
  out.convergence_time = v.number_at("convergence_time", -1.0);
  out.sample_cadence = v.number_at("sample_cadence");
  if (const auto* p = v.find("phases")) {
    out.detection = p->number_at("detection");
    out.decision = p->number_at("decision");
    out.propagation = p->number_at("propagation");
  }
  if (const auto* cp = v.get("critical_path", "closing_placement");
      cp != nullptr && cp->is_object()) {
    out.closing_placement.present = true;
    out.closing_placement.t = cp->number_at("t");
    out.closing_placement.actor = cp->number_at<std::uint32_t>("actor");
    out.closing_placement.reason = cp->string_at("reason");
    out.closing_placement.x = cp->number_at("x");
    out.closing_placement.y = cp->number_at("y");
    out.closing_placement.benefit = cp->number_at("benefit");
    out.closing_placement.newly_satisfied =
        cp->number_at<std::uint64_t>("newly_satisfied");
    out.closing_placement.trace_id = cp->number_at<std::uint64_t>("trace_id");
  }
  if (const auto* h = v.get("critical_path", "last_hole");
      h != nullptr && h->is_object()) {
    out.last_hole.present = true;
    out.last_hole.t = h->number_at("t");
    out.last_hole.points = h->number_at<std::uint64_t>("points");
    out.last_hole.area = h->number_at("area");
    out.last_hole.cx = h->number_at("cx");
    out.last_hole.cy = h->number_at("cy");
    out.last_hole.max_deficit = h->number_at<std::uint64_t>("max_deficit");
  }
  if (const auto* ex = v.get("critical_path", "exchange");
      ex != nullptr && ex->is_object()) {
    out.exchange.present = true;
    out.exchange.trace_id = ex->number_at<std::uint64_t>("trace_id");
    out.exchange.origin = ex->number_at<std::uint32_t>("origin");
    out.exchange.first_t = ex->number_at("first_t");
    out.exchange.last_t = ex->number_at("last_t");
    out.exchange.retransmits = ex->number_at<std::uint64_t>("retransmits");
    out.exchange.retx_delay = ex->number_at("retx_delay");
    if (const auto* c = ex->find("completed")) {
      out.exchange.completed = c->as_bool();
    }
    if (const auto* legs = ex->find("legs"); legs != nullptr) {
      for (const auto& l : legs->items()) {
        ExplainLeg leg;
        leg.t = l.number_at("t");
        leg.dt = l.number_at("dt");
        leg.leg = l.string_at("leg");
        leg.node = l.number_at<std::uint32_t>("node");
        leg.from = l.number_at<std::int64_t>("from", -1);
        out.exchange.legs.push_back(std::move(leg));
      }
    }
  }
  if (const auto* in = v.find("inputs")) {
    out.timeline_samples = in->number_at<std::uint64_t>("timeline_samples");
    out.audit_records = in->number_at<std::uint64_t>("audit_records");
    out.audited_exchanges = in->number_at<std::uint64_t>("audited_exchanges");
    out.trace_records = in->number_at<std::uint64_t>("trace_records");
  }
  if (const auto* h = v.find("health")) {
    out.fleet_median_exchange_latency =
        h->number_at("fleet_median_exchange_latency");
    out.fleet_median_link_latency = h->number_at("fleet_median_link_latency");
    if (const auto* nodes = h->find("nodes"); nodes != nullptr) {
      for (const auto& n : nodes->items()) {
        ExplainNodeHealth nh;
        nh.node = n.number_at<std::uint32_t>("node");
        nh.tx = n.number_at<std::uint64_t>("tx");
        nh.retx = n.number_at<std::uint64_t>("retx");
        nh.drops = n.number_at<std::uint64_t>("drops");
        nh.dead_peer_events = n.number_at<std::uint64_t>("dead_peer_events");
        nh.retx_ratio = n.number_at("retx_ratio");
        nh.latency_inflation = n.number_at("latency_inflation");
        nh.score = n.number_at("score");
        out.nodes.push_back(nh);
      }
    }
    if (const auto* links = h->find("links"); links != nullptr) {
      for (const auto& l : links->items()) {
        ExplainLinkHealth lh;
        lh.src = l.number_at<std::uint32_t>("src");
        lh.dst = l.number_at<std::uint32_t>("dst");
        lh.delivered = l.number_at<std::uint64_t>("delivered");
        lh.crc_drops = l.number_at<std::uint64_t>("crc_drops");
        lh.median_latency = l.number_at("median_latency");
        lh.latency_inflation = l.number_at("latency_inflation");
        lh.score = l.number_at("score");
        out.links.push_back(lh);
      }
    }
  }
  if (const auto* ws = v.find("warnings"); ws != nullptr) {
    for (const auto& warning : ws->items()) {
      out.warnings.push_back(warning.as_string());
    }
  }
  return true;
}

ExplainDiff explain_diff(const ExplainDoc& a, const ExplainDoc& b,
                         std::size_t top_n) {
  ExplainDiff d;
  d.comparable = a.converged && b.converged;
  if (d.comparable) {
    d.convergence_delta = b.convergence_time - a.convergence_time;
  }
  d.detection_delta = b.detection - a.detection;
  d.decision_delta = b.decision - a.decision;
  d.propagation_delta = b.propagation - a.propagation;
  // The dominant phase is the one that *worsened* most: the culprit of
  // a regression is the phase that grew, even when another phase shrank
  // by more (time not spent propagating is spent idling in decision, so
  // the two deltas largely mirror each other). Only when no phase grew
  // (B uniformly faster) does the largest improvement get the credit.
  double best = 0.0;
  for (const auto& [name, delta] :
       {std::pair<const char*, double>{"detection", d.detection_delta},
        {"decision", d.decision_delta},
        {"propagation", d.propagation_delta}}) {
    if (delta > best) {
      best = delta;
      d.dominant_phase = name;
    }
  }
  if (best == 0.0) {
    for (const auto& [name, delta] :
         {std::pair<const char*, double>{"detection", d.detection_delta},
          {"decision", d.decision_delta},
          {"propagation", d.propagation_delta}}) {
      if (delta < best) {
        best = delta;
        d.dominant_phase = name;
      }
    }
  }

  std::map<std::uint32_t, double> node_base;
  for (const auto& n : a.nodes) node_base[n.node] = n.score;
  std::vector<ExplainNodeHealth> nodes;
  for (const auto& n : b.nodes) {
    const auto it = node_base.find(n.node);
    ExplainNodeHealth h = n;
    h.score = n.score - (it != node_base.end() ? it->second : 0.0);
    if (h.score > 0.0) nodes.push_back(h);
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const ExplainNodeHealth& x, const ExplainNodeHealth& y) {
              if (x.score != y.score) return x.score > y.score;
              return x.node < y.node;
            });
  if (nodes.size() > top_n) nodes.resize(top_n);
  d.suspect_nodes = std::move(nodes);

  std::map<std::pair<std::uint32_t, std::uint32_t>, double> link_base;
  for (const auto& l : a.links) link_base[{l.src, l.dst}] = l.score;
  std::vector<ExplainLinkHealth> links;
  for (const auto& l : b.links) {
    const auto it = link_base.find({l.src, l.dst});
    ExplainLinkHealth h = l;
    h.score = l.score - (it != link_base.end() ? it->second : 0.0);
    if (h.score > 0.0) links.push_back(h);
  }
  std::sort(links.begin(), links.end(),
            [](const ExplainLinkHealth& x, const ExplainLinkHealth& y) {
              if (x.score != y.score) return x.score > y.score;
              if (x.src != y.src) return x.src < y.src;
              return x.dst < y.dst;
            });
  if (links.size() > top_n) links.resize(top_n);
  d.suspect_links = std::move(links);
  return d;
}

}  // namespace decor::core
