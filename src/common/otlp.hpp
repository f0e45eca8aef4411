// OTLP/JSON exporter riding the telemetry bus.
//
// OpenTelemetry's protocol (OTLP) is the lingua franca of observability
// backends; exporting in its JSON encoding lets a decor run land in any
// collector (Jaeger, Tempo, Prometheus via the collector) without a
// bespoke adapter. The sink subscribes to three bus streams:
//
//  - trace: each distinct trace causality id becomes one span —
//    start/end from the first/last record carrying that id, origin node
//    and retransmit count (the origin's tx records beyond the first) as
//    attributes, and the name derived from the first record's detail via
//    a caller-supplied namer (common cannot depend on net's message
//    vocabulary).
//  - metrics: decor.metrics.v1 snapshots become resourceMetrics —
//    counters as monotonic sums, gauges as gauges, histogram quantile
//    summaries as <name>.p50/.p90/.p99 gauges.
//  - timeline: covered fraction / alive nodes / ARQ in-flight become
//    gauges too, so a run's convergence curve shows up in a metrics
//    backend even when the registry is disabled.
//
// Sim time maps to nanoseconds-from-zero (OTLP wants absolute unix nanos;
// a simulated world has no wall clock, and zero-based times keep the
// export deterministic). Endpoints: a file path (the whole document is
// rewritten on flush — idempotent), or "http://host:port/path" for a
// best-effort blocking POST of the same document on flush.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry.hpp"

namespace decor::common {

class OtlpSink : public TelemetrySink {
 public:
  /// Derives a span name from a trace record's kind and detail strings
  /// (e.g. "restore.request"). Empty result falls back to the kind.
  using SpanNamer =
      std::function<std::string(std::string_view kind, std::string_view detail)>;

  explicit OtlpSink(const std::string& endpoint,
                    std::string service_name = "decor-sim");

  void set_span_namer(SpanNamer namer) { namer_ = std::move(namer); }

  bool wants(TelemetryStream s) const noexcept override {
    return s == TelemetryStream::kTrace || s == TelemetryStream::kMetrics ||
           s == TelemetryStream::kTimeline;
  }
  void on_event(const TelemetryEvent& e) override;
  /// Renders and writes/POSTs the full OTLP document.
  void flush() override;

  /// Renders the current document (exposed for tests).
  std::string render_document() const;

  std::uint64_t spans() const noexcept { return spans_.size(); }
  std::uint64_t spans_dropped() const noexcept { return spans_dropped_; }

 private:
  struct Span {
    std::uint64_t trace_id = 0;
    double start_t = 0.0;
    double end_t = 0.0;
    std::string name;
    std::int64_t origin_node = -1;
    std::uint64_t records = 0;
    /// Transmissions by the origin node on this trace id; an ARQ
    /// exchange's retransmissions are the count beyond the first.
    std::uint64_t origin_tx = 0;
  };
  struct GaugePoint {
    double t = 0.0;
    double value = 0.0;
  };
  struct SumPoint {
    double t = 0.0;
    std::uint64_t value = 0;
  };

  void ingest_trace(std::string_view line);
  void ingest_metrics(std::string_view line);
  void ingest_timeline(std::string_view line);
  void write_to_endpoint(const std::string& doc);

  std::string endpoint_;
  std::string service_name_;
  SpanNamer namer_;
  // Keyed by trace id: deterministic document order regardless of record
  // interleaving.
  std::map<std::uint64_t, Span> spans_;
  std::map<std::string, std::vector<SumPoint>> sums_;
  std::map<std::string, std::vector<GaugePoint>> gauges_;
  std::uint64_t spans_dropped_ = 0;
  static constexpr std::size_t kMaxSpans = 50000;
  static constexpr std::size_t kMaxPoints = 100000;
};

}  // namespace decor::common
