#include "decor/explain.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "geometry/point.hpp"
#include "net/messages.hpp"
#include "sim/trace.hpp"

namespace decor::core {

namespace {

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

/// What a health ranking breaks score ties by.
std::uint32_t rank_key(const ExplainNodeHealth& h) { return h.node; }
std::pair<std::uint32_t, std::uint32_t> rank_key(const ExplainLinkHealth& h) {
  return {h.src, h.dst};
}

/// Keeps the `n` worst entries of `v`: highest score first, ties by key.
template <typename Health>
void keep_worst(std::vector<Health>& v, std::size_t n) {
  std::sort(v.begin(), v.end(), [](const Health& a, const Health& b) {
    if (a.score != b.score) return a.score > b.score;
    return rank_key(a) < rank_key(b);
  });
  if (v.size() > n) v.resize(n);
}

/// The entries of `b` whose score rose over `a`, scored by the rise (an
/// entry absent from `a` rises by its whole score): the `n` worst.
template <typename Health>
std::vector<Health> worsened(const std::vector<Health>& a,
                             const std::vector<Health>& b, std::size_t n) {
  std::map<decltype(rank_key(Health{})), double> base;
  for (const Health& h : a) base[rank_key(h)] = h.score;
  std::vector<Health> out;
  for (Health h : b) {
    const auto it = base.find(rank_key(h));
    h.score -= it != base.end() ? it->second : 0.0;
    if (h.score > 0.0) out.push_back(h);
  }
  keep_worst(out, n);
  return out;
}

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
    const auto& samples = timeline->timeline;
    doc.timeline_samples = samples.size();
    std::vector<double> diffs;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      max_t = std::max(max_t, samples[i].t);
      if (i > 0 && samples[i].t > samples[i - 1].t) {
        diffs.push_back(samples[i].t - samples[i - 1].t);
      }
    }
    doc.sample_cadence = median_of(std::move(diffs));
    doc.convergence_time = sim::convergence_time(samples);
    doc.converged = doc.convergence_time >= 0.0;
  } else {
    doc.warnings.push_back("no decor.timeline.v1 artifact");
  }
  const std::vector<sim::TraceRecord> no_trace;
  const auto& rows = trace != nullptr ? trace->trace : no_trace;
  if (trace != nullptr) {
    doc.trace_records = rows.size();
    for (const auto& r : rows) {
      max_t = std::max(max_t, r.at);
      if (!doc.converged && r.kind == sim::TraceKind::kProtocol &&
          r.detail == "converged") {
        doc.convergence_time = r.at;
        doc.converged = true;
      }
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
  if (audit != nullptr && !audit->audit.empty()) {
    doc.audit_records = audit->audit.size();
    const sim::AuditRecord* sat = nullptr;   // latest newly_satisfied > 0
    const sim::AuditRecord* last = nullptr;  // latest before the horizon
    for (const auto& r : audit->audit) {
      if (first_audit_t < 0.0) first_audit_t = r.t;
      if (r.trace_id == 0) ++audits_without_trace_id;
      if (r.t > horizon + doc.sample_cadence) continue;
      last = &r;  // file order is time order: keep the latest
      if (r.newly_satisfied > 0) sat = &r;
    }
    // Prefer the newly-satisfied key, but only while the audit trail
    // keeps recording it: seed bootstraps log newly_satisfied=0 even
    // when they close the final hole, so a satisfied-keyed pick that
    // predates the last pre-horizon decision by more than one cadence
    // is stale — coverage was still open after it fired.
    const sim::AuditRecord* closing = sat;
    if (closing != nullptr && last != nullptr &&
        closing->t + doc.sample_cadence < last->t) {
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
        closing = &audit->audit.back();
      }
    }
    doc.closing_placement = *closing;
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
  if (field != nullptr && !field->field.empty()) {
    const coverage::FieldSnapshot* last_open = nullptr;
    for (const auto& s : field->field) {
      if (s.t > horizon + doc.sample_cadence) break;
      if (s.uncovered_points > 0) last_open = &s;
    }
    if (last_open != nullptr && !last_open->holes.empty()) {
      // The hole the closing placement filled: nearest centroid to the
      // placement position (first hole when no placement is known —
      // hole extraction order is deterministic).
      const auto& holes = last_open->holes;
      auto best = holes.begin();
      if (doc.closing_placement) {
        const geom::Point2 at = doc.closing_placement->pos;
        best = std::min_element(
            holes.begin(), holes.end(), [at](const auto& a, const auto& b) {
              return geom::distance_sq(a.centroid, at) <
                     geom::distance_sq(b.centroid, at);
            });
      }
      doc.last_hole = *best;
      doc.last_hole_t = last_open->t;
    } else if (last_open != nullptr) {
      doc.warnings.push_back(
          "last uncovered field snapshot records no hole inventory");
    } else {
      doc.warnings.push_back("field snapshots never show an open hole");
    }
  } else if (field != nullptr && !field->field_header) {
    doc.warnings.push_back(
        "decor.field.v1 header rejected; no field snapshot read");
  } else {
    doc.warnings.push_back("no decor.field.v1 artifact");
  }

  // --- trace pass: exchanges, node stats, link stats ----------------------
  const std::uint64_t closing_tid =
      doc.closing_placement ? doc.closing_placement->trace_id : 0;
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
    if (leg != sim::TraceLeg::kNone && r.trace_id == closing_tid) {
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
        for (const auto& r : audit->audit) {
          if (r.trace_id == 0) continue;
          const auto it = spans.find(r.trace_id);
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
  if (doc.closing_placement) {
    if (closing_tid == 0) {
      doc.warnings.push_back(
          "closing placement carries no causality id (trace_id=0)");
    } else if (trace == nullptr) {
      // Already warned about the missing trace artifact.
    } else {
      auto& ex = doc.exchange;
      ex.trace_id = closing_tid;
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
    keep_worst(doc.nodes, opts.top_n);

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
    keep_worst(doc.links, opts.top_n);
  }
  return doc;
}

ExplainDoc explain_run_dir(const std::string& dir,
                           const ExplainOptions& opts) {
  return analyze_run(load_run_artifacts(dir, "explain"), opts);
}

// --- serialization ---------------------------------------------------------

namespace {

void write_hole(common::JsonWriter& w,
                const std::optional<coverage::CoverageHole>& h, double t) {
  if (!h) {
    w.null_value();
    return;
  }
  w.begin_object();
  w.key("t");
  w.value(t);
  w.key("points");
  w.value(h->points);
  w.key("area");
  w.value(h->area);
  w.key("cx");
  w.value(h->centroid.x);
  w.key("cy");
  w.value(h->centroid.y);
  w.key("max_deficit");
  w.value(static_cast<std::uint64_t>(h->max_deficit));
  w.end_object();
}

void write_placement(common::JsonWriter& w,
                     const std::optional<sim::AuditRecord>& closing) {
  if (!closing) {
    w.null_value();
    return;
  }
  const sim::AuditRecord& p = *closing;
  w.begin_object();
  w.key("t");
  w.value(p.t);
  w.key("actor");
  w.value(p.actor);
  w.key("reason");
  w.value(p.reason);
  w.key("x");
  w.value(p.pos.x);
  w.key("y");
  w.value(p.pos.y);
  // decor.explain.v1 has always written the benefit as a double.
  w.key("benefit");
  w.value(static_cast<double>(p.benefit));
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
  write_hole(w, doc.last_hole, doc.last_hole_t);
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
  if (const auto* cp = v.get("critical_path", "closing_placement")) {
    out.closing_placement = sim::audit_record_from_json(*cp);
  }
  if (const auto* h = v.get("critical_path", "last_hole");
      h != nullptr && h->is_object()) {
    out.last_hole = coverage::coverage_hole_from_json(*h);
    out.last_hole_t = h->number_at("t");
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
  const std::pair<const char*, double> phases[] = {
      {"detection", d.detection_delta},
      {"decision", d.decision_delta},
      {"propagation", d.propagation_delta}};
  double best = 0.0;
  for (const double sign : {1.0, -1.0}) {
    for (const auto& [name, delta] : phases) {
      if (sign * delta > best) {
        best = sign * delta;
        d.dominant_phase = name;
      }
    }
    if (best > 0.0) break;
  }
  d.suspect_nodes = worsened(a.nodes, b.nodes, top_n);
  d.suspect_links = worsened(a.links, b.links, top_n);
  return d;
}

}  // namespace decor::core
