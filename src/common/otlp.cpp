#include "common/otlp.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "common/log.hpp"

namespace decor::common {

namespace {

/// OTLP encodes all timestamps as unix-epoch nanoseconds in string form;
/// sim time is seconds from zero, so t=3.5s becomes "3500000000".
std::string sim_nanos(double t) {
  if (t < 0) t = 0;
  const auto ns = static_cast<std::uint64_t>(t * 1e9);
  return std::to_string(ns);
}

std::string hex_id(std::uint64_t v, int width) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%0*llx", width,
                static_cast<unsigned long long>(v));
  return buf;
}

void write_string_attr(JsonWriter& w, const char* key, const std::string& v) {
  w.begin_object();
  w.key("key");
  w.value(key);
  w.key("value");
  w.begin_object();
  w.key("stringValue");
  w.value(v);
  w.end_object();
  w.end_object();
}

void write_int_attr(JsonWriter& w, const char* key, std::int64_t v) {
  w.begin_object();
  w.key("key");
  w.value(key);
  w.key("value");
  w.begin_object();
  w.key("intValue");
  w.value(std::to_string(v));  // OTLP/JSON: 64-bit ints ride as strings
  w.end_object();
  w.end_object();
}

void write_resource(JsonWriter& w, const std::string& service) {
  w.key("resource");
  w.begin_object();
  w.key("attributes");
  w.begin_array();
  write_string_attr(w, "service.name", service);
  w.end_array();
  w.end_object();
}

}  // namespace

OtlpSink::OtlpSink(std::string path, std::string service_name)
    : path_(std::move(path)), service_name_(std::move(service_name)) {}

void OtlpSink::on_event(const TelemetryEvent& e) {
  if (e.header) return;  // schema headers carry no data
  switch (e.stream) {
    case TelemetryStream::kTrace:
      if (e.trace != nullptr) {
        ingest_trace(*e.trace);
      } else {
        ingest_trace_line(e.line);
      }
      break;
    case TelemetryStream::kMetrics:
      ingest_metrics(e.line);
      break;
    case TelemetryStream::kTimeline:
      ingest_timeline(e.line);
      break;
    default:
      break;
  }
}

void OtlpSink::ingest_trace_line(std::string_view line) {
  const auto doc = parse_json(line);
  if (!doc) return;
  TraceFields r;
  r.t = doc->number_at("t");
  r.node = doc->number_at<std::int64_t>("node", -1);
  r.trace_id = doc->number_at<std::uint64_t>("trace");
  r.kind = doc->string_at("kind");
  r.detail = doc->string_at("detail");
  ingest_trace(r);
}

void OtlpSink::ingest_trace(const TraceFields& r) {
  const std::uint64_t id = r.trace_id;
  if (id == 0) return;  // untraced record
  auto it = spans_.find(id);
  if (it == spans_.end()) {
    if (spans_.size() >= kMaxSpans) {
      const auto at =
          std::lower_bound(dropped_ids_.begin(), dropped_ids_.end(), id);
      if (at == dropped_ids_.end() || *at != id) dropped_ids_.insert(at, id);
      return;
    }
    Span s;
    s.trace_id = id;
    s.start_t = s.end_t = r.t;
    s.origin_node = r.node;
    if (namer_) s.name = namer_(r.kind, r.detail);
    if (s.name.empty()) s.name = r.kind.empty() ? "trace" : std::string(r.kind);
    it = spans_.emplace(id, std::move(s)).first;
  }
  Span& s = it->second;
  ++s.records;
  s.start_t = std::min(s.start_t, r.t);
  s.end_t = std::max(s.end_t, r.t);
  // Receivers' acks carry the id of the frame they answer and flood
  // forwards keep the flood's id, so only the origin's transmissions
  // count: the first is the send, every later one replays its frame.
  if (r.kind == "tx" && r.node >= 0 && r.node == s.origin_node) ++s.origin_tx;
}

void OtlpSink::ingest_metrics(std::string_view line) {
  const auto doc = parse_json(line);
  if (!doc) return;
  const double tv = doc->number_at("t");
  auto room = [this] {
    std::size_t points = 0;
    for (const auto& [_, v] : sums_) points += v.size();
    for (const auto& [_, v] : gauges_) points += v.size();
    return points < kMaxPoints;
  };
  if (const JsonValue* counters = doc->find("counters")) {
    for (const auto& [name, v] : counters->members()) {
      if (!room()) return;
      // A counter that is no uint64 (negative, too large) has no sum.
      if (const auto n = v.number_as<std::uint64_t>()) {
        sums_[name].push_back(SumPoint{tv, *n});
      }
    }
  }
  if (const JsonValue* gauges = doc->find("gauges")) {
    for (const auto& [name, v] : gauges->members()) {
      if (!room()) return;
      gauges_[name].push_back(GaugePoint{tv, v.as_number()});
    }
  }
  if (const JsonValue* hists = doc->find("histograms")) {
    for (const auto& [name, h] : hists->members()) {
      for (const char* q : {"p50", "p90", "p99"}) {
        const JsonValue* qv = h.find(q);
        if (!qv) continue;
        if (!room()) return;
        gauges_[name + "." + q].push_back(GaugePoint{tv, qv->as_number()});
      }
    }
  }
}

void OtlpSink::ingest_timeline(std::string_view line) {
  const auto doc = parse_json(line);
  if (!doc) return;
  const JsonValue* t = doc->find("t");
  if (!t) return;  // schema header or malformed
  const double tv = t->as_number();
  static constexpr struct {
    const char* key;
    const char* metric;
  } kSeries[] = {
      {"covered", "decor.coverage.fraction"},
      {"alive", "decor.nodes.alive"},
      {"uncovered", "decor.coverage.uncovered_points"},
      {"arq_in_flight", "decor.arq.in_flight"},
  };
  for (const auto& s : kSeries) {
    const JsonValue* v = doc->find(s.key);
    if (!v || !v->is_number()) continue;
    auto& series = gauges_[s.metric];
    if (series.size() >= kMaxPoints) continue;
    series.push_back(GaugePoint{tv, v->as_number()});
  }
}

std::string OtlpSink::render_document() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("resourceSpans");
  w.begin_array();
  if (!spans_.empty()) {
    w.begin_object();
    write_resource(w, service_name_);
    w.key("scopeSpans");
    w.begin_array();
    w.begin_object();
    w.key("scope");
    w.begin_object();
    w.key("name");
    w.value("decor.trace");
    w.end_object();
    w.key("spans");
    w.begin_array();
    for (const auto& [id, s] : spans_) {
      w.begin_object();
      w.key("traceId");
      w.value(hex_id(id, 32));
      w.key("spanId");
      w.value(hex_id(id, 16));
      w.key("name");
      w.value(s.name);
      w.key("kind");
      w.value(std::int64_t{1});  // SPAN_KIND_INTERNAL
      w.key("startTimeUnixNano");
      w.value(sim_nanos(s.start_t));
      w.key("endTimeUnixNano");
      w.value(sim_nanos(s.end_t));
      w.key("attributes");
      w.begin_array();
      if (s.origin_node >= 0) write_int_attr(w, "decor.node", s.origin_node);
      write_int_attr(w, "decor.records",
                     static_cast<std::int64_t>(s.records));
      write_int_attr(w, "decor.retransmits",
                     s.origin_tx > 1
                         ? static_cast<std::int64_t>(s.origin_tx - 1)
                         : 0);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("resourceMetrics");
  w.begin_array();
  if (!sums_.empty() || !gauges_.empty()) {
    w.begin_object();
    write_resource(w, service_name_);
    w.key("scopeMetrics");
    w.begin_array();
    w.begin_object();
    w.key("scope");
    w.begin_object();
    w.key("name");
    w.value("decor.metrics");
    w.end_object();
    w.key("metrics");
    w.begin_array();
    for (const auto& [name, points] : sums_) {
      w.begin_object();
      w.key("name");
      w.value(name);
      w.key("sum");
      w.begin_object();
      w.key("aggregationTemporality");
      w.value(std::int64_t{2});  // CUMULATIVE
      w.key("isMonotonic");
      w.value(true);
      w.key("dataPoints");
      w.begin_array();
      for (const auto& p : points) {
        w.begin_object();
        w.key("timeUnixNano");
        w.value(sim_nanos(p.t));
        w.key("asInt");
        w.value(std::to_string(p.value));
        w.end_object();
      }
      w.end_array();
      w.end_object();
      w.end_object();
    }
    for (const auto& [name, points] : gauges_) {
      w.begin_object();
      w.key("name");
      w.value(name);
      w.key("gauge");
      w.begin_object();
      w.key("dataPoints");
      w.begin_array();
      for (const auto& p : points) {
        w.begin_object();
        w.key("timeUnixNano");
        w.value(sim_nanos(p.t));
        w.key("asDouble");
        w.value(p.value);
        w.end_object();
      }
      w.end_array();
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    w.end_array();
    w.end_object();
  }
  w.end_array();
  if (!dropped_ids_.empty()) {
    w.key("droppedSpans");
    w.value(spans_dropped());
  }
  w.end_object();
  return os.str();
}

void OtlpSink::flush() {
  // Rewrite the whole document so flush is idempotent.
  std::ofstream out(path_, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    DECOR_LOG_ERROR("otlp: cannot open export file: " + path_);
    return;
  }
  out << render_document() << '\n';
}

}  // namespace decor::common
