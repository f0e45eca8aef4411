// Telemetry bus, metrics snapshots and OTLP export.
//
// The bus contract under test: per-stream sequence numbering, header
// replay to late-attached sinks in publication order, the has_sink_for
// fast path, and byte-identity of the JSONL file sink with a plain
// ofstream. The OTLP sink is validated by parsing its rendered document
// back with common::parse_json, never by eyeballing substrings.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/otlp.hpp"
#include "common/telemetry.hpp"
#include "common/rng.hpp"
#include "decor/sim_runner.hpp"
#include "decor/voronoi_sim.hpp"
#include "lds/random_points.hpp"
#include "net/messages.hpp"
#include "sim/metrics_snapshot.hpp"
#include "sim/simulator.hpp"

namespace {

using decor::common::TelemetryBus;
using decor::common::TelemetryEvent;
using decor::common::TelemetrySink;
using decor::common::TelemetryStream;

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

fs::path temp_path(const std::string& name) {
  return fs::temp_directory_path() / name;
}

/// Captures every event verbatim, optionally restricted to one stream.
class CaptureSink : public TelemetrySink {
 public:
  explicit CaptureSink(bool only_timeline = false)
      : only_timeline_(only_timeline) {}

  bool wants(TelemetryStream s) const noexcept override {
    return !only_timeline_ || s == TelemetryStream::kTimeline;
  }
  void on_event(const TelemetryEvent& e) override {
    events.push_back({e.stream, e.seq, e.header, std::string(e.line)});
  }
  void flush() override { ++flushes; }

  struct Seen {
    TelemetryStream stream;
    std::uint64_t seq;
    bool header;
    std::string line;
  };
  std::vector<Seen> events;
  int flushes = 0;
  bool only_timeline_;
};

TEST(TelemetryBus, FanOutSequencingAndFiltering) {
  TelemetryBus bus;
  EXPECT_FALSE(bus.has_sink_for(TelemetryStream::kTimeline));

  auto all_owned = std::make_unique<CaptureSink>();
  auto timeline_owned = std::make_unique<CaptureSink>(true);
  CaptureSink* all = all_owned.get();
  CaptureSink* timeline_only = timeline_owned.get();
  bus.add_sink(std::move(all_owned));
  bus.add_sink(std::move(timeline_owned));
  EXPECT_TRUE(bus.has_sink_for(TelemetryStream::kTimeline));
  EXPECT_TRUE(bus.has_sink_for(TelemetryStream::kTrace));
  EXPECT_EQ(bus.num_sinks(), 2u);

  bus.publish(TelemetryStream::kTimeline, "{\"t\":1}");
  bus.publish(TelemetryStream::kTrace, "{\"t\":1,\"kind\":\"tx\"}");
  bus.publish(TelemetryStream::kTimeline, "{\"t\":2}");

  ASSERT_EQ(all->events.size(), 3u);
  EXPECT_EQ(all->events[0].seq, 1u);
  EXPECT_EQ(all->events[2].seq, 2u);  // per-stream numbering
  EXPECT_EQ(all->events[1].stream, TelemetryStream::kTrace);
  EXPECT_EQ(all->events[1].seq, 1u);

  ASSERT_EQ(timeline_only->events.size(), 2u);
  EXPECT_EQ(timeline_only->events[1].line, "{\"t\":2}");

  bus.flush();
  EXPECT_EQ(all->flushes, 1);
  EXPECT_EQ(bus.events_published(), 3u);
}

TEST(TelemetryBus, HeaderReplayToLateSinks) {
  TelemetryBus bus;
  bus.publish(TelemetryStream::kTimeline,
              "{\"schema\":\"decor.timeline.v1\"}", /*header=*/true);
  bus.publish(TelemetryStream::kField, "{\"schema\":\"decor.field.v1\"}",
              /*header=*/true);
  bus.publish(TelemetryStream::kTimeline, "{\"t\":0}");

  // A sink attached after the fact still sees both headers, in original
  // publication order, before any further data.
  auto late_owned = std::make_unique<CaptureSink>();
  CaptureSink* late = late_owned.get();
  bus.add_sink(std::move(late_owned));
  ASSERT_EQ(late->events.size(), 2u);
  EXPECT_TRUE(late->events[0].header);
  EXPECT_EQ(late->events[0].seq, 0u);  // headers carry seq 0
  EXPECT_EQ(late->events[0].stream, TelemetryStream::kTimeline);
  EXPECT_EQ(late->events[1].stream, TelemetryStream::kField);

  bus.publish(TelemetryStream::kTimeline, "{\"t\":1}");
  ASSERT_EQ(late->events.size(), 3u);
  EXPECT_EQ(late->events[2].line, "{\"t\":1}");
  EXPECT_EQ(late->events[2].seq, 2u);  // numbering unaffected by replay
}

TEST(TelemetryBus, RemoveSinkFlushesAndStopsDelivery) {
  TelemetryBus bus;
  const auto id = bus.add_sink(std::make_unique<CaptureSink>());
  bus.publish(TelemetryStream::kAudit, "{\"t\":0}");
  auto removed = bus.remove_sink(id);
  ASSERT_NE(removed, nullptr);
  auto* sink = static_cast<CaptureSink*>(removed.get());
  EXPECT_EQ(sink->flushes, 1);  // removal flushes the departing sink
  bus.publish(TelemetryStream::kAudit, "{\"t\":1}");
  EXPECT_EQ(sink->events.size(), 1u);
  EXPECT_FALSE(bus.has_sink_for(TelemetryStream::kAudit));
  EXPECT_EQ(bus.remove_sink(id), nullptr);  // unknown id
}

TEST(TelemetryBus, JsonlFileSinkMatchesPlainOfstreamBytes) {
  const auto path = temp_path("decor_telemetry_sink_test.jsonl");
  const std::vector<std::string> lines = {
      "{\"schema\":\"decor.timeline.v1\"}", "{\"t\":0,\"covered\":0.5}",
      "{\"t\":1,\"covered\":1}"};
  {
    TelemetryBus bus;
    bus.publish(TelemetryStream::kTimeline, lines[0], /*header=*/true);
    auto sink = std::make_unique<decor::common::JsonlFileSink>(
        path.string(), TelemetryStream::kTimeline);
    ASSERT_TRUE(sink->ok());
    bus.add_sink(std::move(sink));  // header replayed on attach
    bus.publish(TelemetryStream::kTimeline, lines[1]);
    bus.publish(TelemetryStream::kField, "{\"ignored\":true}");
    bus.publish(TelemetryStream::kTimeline, lines[2]);
    bus.flush();
  }
  std::string expected;
  for (const auto& l : lines) expected += l + "\n";
  EXPECT_EQ(read_file(path), expected);
  fs::remove(path);
}

TEST(TelemetryBus, FrameStreamSinkWritesResyncableFrames) {
  const auto path = temp_path("decor_telemetry_frames_test.dtlm");
  {
    TelemetryBus bus;
    auto owned =
        std::make_unique<decor::common::FrameStreamSink>(path.string());
    decor::common::FrameStreamSink* sink = owned.get();
    ASSERT_TRUE(sink->ok());
    bus.add_sink(std::move(owned));
    bus.publish(TelemetryStream::kTimeline, "{\"t\":0}");
    bus.publish(TelemetryStream::kTrace, "{\"t\":0,\"kind\":\"tx\"}");
    bus.publish(TelemetryStream::kMetrics, "{\"t\":0,\"counters\":{}}");
    bus.flush();
    // Trace is excluded from the default subscription (too hot for a
    // live dashboard feed).
    EXPECT_EQ(sink->frames_written(), 2u);
    EXPECT_EQ(sink->frames_dropped(), 0u);
  }
  const std::string raw = read_file(path);
  EXPECT_EQ(raw,
            "DTLM timeline 1 7\n{\"t\":0}\n"
            "DTLM metrics 1 21\n{\"t\":0,\"counters\":{}}\n");
  fs::remove(path);
}

TEST(HistogramQuantile, InterpolatesWithinBuckets) {
  decor::common::MetricsRegistry& m = decor::common::metrics();
  m.enable(true);
  auto& h = m.histogram("test.quantile.hist", {10.0, 20.0, 40.0});
  h.reset();
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  // 10 observations in [0,10], 10 in (10,20].
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  // rank(0.5) = 10 -> exactly fills bucket 0 -> its upper edge.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  // rank(0.75) = 15 -> halfway through bucket 1: 10 + (20-10)*5/10.
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);
  // rank(1.0) = 20 -> end of bucket 1.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  // Overflow observations clamp to the last bound.
  h.observe(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
  EXPECT_EQ(h.total_count(), 21u);
}

TEST(MetricsSnapshot, SnapshotJsonCarriesQuantileSummaries) {
  auto& m = decor::common::metrics();
  m.enable(true);
  m.counter("test.snapshot.counter").inc(7);
  m.gauge("test.snapshot.gauge").set(2.5);
  auto& h = m.histogram("test.snapshot.hist", {1.0, 2.0});
  h.reset();
  h.observe(0.5);
  h.observe(1.5);

  const std::string line = decor::sim::MetricsSnapshotter::snapshot_json(3.5);
  const auto doc = decor::common::parse_json(line);
  ASSERT_TRUE(doc.has_value()) << line;
  EXPECT_EQ(doc->get("t")->as_number(), 3.5);
  EXPECT_EQ(doc->get("counters", "test.snapshot.counter")->as_number(), 7.0);
  EXPECT_EQ(doc->get("gauges", "test.snapshot.gauge")->as_number(), 2.5);
  const auto* hist = doc->get("histograms", "test.snapshot.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->get("total")->as_number(), 2.0);
  ASSERT_NE(hist->get("p50"), nullptr);
  ASSERT_NE(hist->get("p90"), nullptr);
  ASSERT_NE(hist->get("p99"), nullptr);
  EXPECT_DOUBLE_EQ(hist->get("p50")->as_number(), 1.0);
}

TEST(MetricsSnapshot, PeriodicSnapshotsOnSimulatorCadence) {
  decor::common::metrics().enable(true);
  decor::sim::Simulator sim;
  TelemetryBus bus;
  auto owned = std::make_unique<CaptureSink>();
  CaptureSink* capture = owned.get();
  bus.add_sink(std::move(owned));

  decor::sim::MetricsSnapshotter snap;
  snap.attach_bus(&bus);
  snap.start(sim, 1.0);
  sim.run_until(3.5);
  snap.stop();

  // Ticks at t = 0, 1, 2, 3, preceded by the lazily published header.
  EXPECT_EQ(snap.snapshots_taken(), 4u);
  ASSERT_EQ(capture->events.size(), 5u);
  EXPECT_TRUE(capture->events[0].header);
  EXPECT_EQ(capture->events[0].line, "{\"schema\":\"decor.metrics.v1\"}");
  EXPECT_EQ(capture->events[0].stream, TelemetryStream::kMetrics);
  const auto doc = decor::common::parse_json(capture->events[2].line);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("t")->as_number(), 1.0);
  EXPECT_EQ(snap.tail().size(), 4u);
}

TEST(OtlpSink, RenderedDocumentParsesAndCarriesSpans) {
  decor::common::OtlpSink sink("unused.json");
  sink.set_span_namer(decor::core::otlp_span_name);
  // One exchange, trace id 7: original tx, a retransmission (second tx
  // by the origin on the same causality id), the receiver's ack tx, a
  // forward by a third node, and the rx leg. Only the origin's second
  // tx is a retransmission.
  sink.on_event({TelemetryStream::kTrace, 1, false,
                 "{\"t\":0.5,\"kind\":\"tx\",\"node\":3,"
                 "\"detail\":\"kind=3\",\"trace\":7}"});
  sink.on_event({TelemetryStream::kTrace, 2, false,
                 "{\"t\":0.9,\"kind\":\"tx\",\"node\":3,"
                 "\"detail\":\"kind=3\",\"trace\":7}"});
  sink.on_event({TelemetryStream::kTrace, 3, false,
                 "{\"t\":1,\"kind\":\"tx\",\"node\":4,"
                 "\"detail\":\"kind=9\",\"trace\":7}"});
  sink.on_event({TelemetryStream::kTrace, 4, false,
                 "{\"t\":1.1,\"kind\":\"tx\",\"node\":5,"
                 "\"detail\":\"kind=3\",\"trace\":7}"});
  sink.on_event({TelemetryStream::kTrace, 5, false,
                 "{\"t\":1.25,\"kind\":\"rx\",\"node\":4,"
                 "\"detail\":\"kind=3\",\"trace\":7}"});
  sink.on_event({TelemetryStream::kTimeline, 1, false,
                 "{\"t\":1,\"covered\":0.75,\"uncovered\":5,\"alive\":9,"
                 "\"arq_in_flight\":2}"});
  EXPECT_EQ(sink.spans(), 1u);

  const std::string doc_text = sink.render_document();
  const auto doc = decor::common::parse_json(doc_text);
  ASSERT_TRUE(doc.has_value()) << doc_text;

  const auto* scope_spans =
      doc->get("resourceSpans")->items().front().get("scopeSpans");
  ASSERT_NE(scope_spans, nullptr);
  const auto& span =
      scope_spans->items().front().get("spans")->items().front();
  EXPECT_EQ(span.get("traceId")->as_string(),
            "00000000000000000000000000000007");
  EXPECT_EQ(span.get("spanId")->as_string(), "0000000000000007");
  // detail "kind=3" resolves through the wire vocabulary (kElect).
  EXPECT_EQ(span.get("name")->as_string(),
            std::string("msg.") + decor::net::msg_kind_name(3));
  EXPECT_EQ(span.get("startTimeUnixNano")->as_string(), "500000000");
  EXPECT_EQ(span.get("endTimeUnixNano")->as_string(), "1250000000");
  // decor.retransmits = the origin's tx records beyond the first.
  bool found_retx = false;
  for (const auto& attr : span.get("attributes")->items()) {
    if (attr.get("key")->as_string() == "decor.retransmits") {
      found_retx = true;
      EXPECT_EQ(attr.get("value", "intValue")->as_string(), "1");
    }
  }
  EXPECT_TRUE(found_retx);

  // The timeline sample landed as gauges under resourceMetrics.
  const auto* scope_metrics =
      doc->get("resourceMetrics")->items().front().get("scopeMetrics");
  ASSERT_NE(scope_metrics, nullptr);
  std::vector<std::string> names;
  for (const auto& metric :
       scope_metrics->items().front().get("metrics")->items()) {
    names.push_back(metric.get("name")->as_string());
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "decor.coverage.fraction"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "decor.nodes.alive"),
            names.end());

  // Deterministic: rendering twice yields identical bytes.
  EXPECT_EQ(sink.render_document(), doc_text);
}

/// Sum of the decor.retransmits attribute over every span of an OTLP
/// document.
std::uint64_t otlp_retransmits(const decor::common::JsonValue& doc) {
  std::uint64_t sum = 0;
  for (const auto& rs : doc.get("resourceSpans")->items()) {
    for (const auto& ss : rs.get("scopeSpans")->items()) {
      for (const auto& span : ss.get("spans")->items()) {
        for (const auto& attr : span.get("attributes")->items()) {
          if (attr.get("key")->as_string() != "decor.retransmits") continue;
          sum += std::stoull(attr.get("value", "intValue")->as_string());
        }
      }
    }
  }
  return sum;
}

// Receivers' acks and flood forwards share the causality id of the
// exchange they belong to, so the exported retransmit count of a lossy
// run must equal the ARQ's own retransmission count on both runners.
TEST(OtlpSink, RetransmitsMatchArqStatsOnLossyRuns) {
  for (const bool voronoi : {false, true}) {
    decor::core::RunConfig cfg;
    cfg.params.field = decor::geom::make_rect(0, 0, 20, 20);
    cfg.params.num_points = 200;
    cfg.params.k = 1;
    cfg.seed = 7;
    decor::common::Rng rng(cfg.seed);
    cfg.initial_positions =
        decor::lds::random_points(cfg.params.field, 8, rng);
    cfg.radio.loss_prob = 0.3;
    const fs::path out = temp_path(
        std::string("decor_otlp_retx_") + (voronoi ? "voronoi" : "grid") +
        ".json");
    cfg.otlp = out.string();
    decor::core::RunResult r;
    if (voronoi) {
      r = decor::core::VoronoiSimHarness(decor::core::VoronoiSimConfig{cfg})
              .run();
    } else {
      r = decor::core::GridSimHarness(decor::core::SimRunConfig{cfg}).run();
    }
    ASSERT_GT(r.arq.retx, 0u) << "a 30% loss run must retransmit";
    const auto doc = decor::common::parse_json(read_file(out));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(otlp_retransmits(*doc), r.arq.retx)
        << (voronoi ? "voronoi" : "grid");
    fs::remove(out);
  }
}

TEST(OtlpSink, MetricsLinesBecomeSumsAndGauges) {
  decor::common::OtlpSink sink("unused.json");
  sink.on_event({TelemetryStream::kMetrics, 1, false,
                 "{\"t\":2,\"counters\":{\"sim.radio.tx\":12},"
                 "\"gauges\":{\"sim.radio.in_flight\":3},"
                 "\"histograms\":{\"h\":{\"total\":4,\"p50\":1.5,"
                 "\"p90\":2,\"p99\":2}}}"});
  const auto doc = decor::common::parse_json(sink.render_document());
  ASSERT_TRUE(doc.has_value());
  const auto* metrics =
      doc->get("resourceMetrics")->items().front().get("scopeMetrics");
  ASSERT_NE(metrics, nullptr);
  bool saw_sum = false, saw_quantile_gauge = false;
  for (const auto& metric :
       metrics->items().front().get("metrics")->items()) {
    const std::string name = metric.get("name")->as_string();
    if (name == "sim.radio.tx") saw_sum = metric.get("sum") != nullptr;
    if (name == "h.p50") saw_quantile_gauge = true;
  }
  EXPECT_TRUE(saw_sum);
  EXPECT_TRUE(saw_quantile_gauge);
}

}  // namespace
