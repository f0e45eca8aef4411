// Streaming telemetry bus: one publish/fan-out layer under every
// artifact writer.
//
// Before this layer each observability producer (sim::Timeline,
// coverage::FieldRecorder, sim::AuditLog, the trace JSONL dump, metrics
// snapshots) owned its own std::ofstream, so a run's telemetry could only
// ever land in files. The bus decouples *what* a producer emits (one
// serialized JSON line per event, exactly the bytes the old sinks wrote)
// from *where* it goes: any number of sinks attach to the bus, each
// declaring which streams it wants, and every published line fans out to
// all interested sinks. The original file sinks are now JsonlFileSink
// instances riding the bus — their byte output is identical to the
// pre-bus ofstreams — and the same events can simultaneously feed a live
// length-prefixed stream for `decor watch` and an OTLP exporter.
//
// Contracts:
//  - Events are serialized JSON objects without a trailing newline; the
//    producer serializes once, the bus never re-renders. A trace event
//    also carries its record's fields (TraceFields), so a sink that
//    folds records reads them directly instead of re-parsing the line.
//  - Header lines (the decor.*.v1 schema line a JSONL artifact starts
//    with) are remembered per stream and replayed, in publication order,
//    to sinks that attach later — a late sink still writes a well-formed
//    artifact.
//  - Delivery is synchronous and in publication order; sinks write files
//    and stdout only, so no sink may block on a peer and none drops an
//    event.
//  - The bus is single-threaded like the simulator that feeds it.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace decor::common {

/// The event streams the repo's producers publish. A sink filters on
/// these rather than on schema strings so filtering is a branch, not a
/// string compare.
enum class TelemetryStream : int {
  kTimeline = 0,  // decor.timeline.v1 convergence samples
  kField,         // decor.field.v1 k-deficit snapshots
  kAudit,         // decor.audit.v1 placement decisions
  kTrace,         // trace JSONL records (no schema header)
  kMetrics,       // decor.metrics.v1 registry snapshots
};
inline constexpr std::size_t kNumTelemetryStreams = 5;

/// Stable lowercase stream name ("timeline", "field", ...), used by the
/// framed live stream and anything else that labels events on the wire.
const char* telemetry_stream_name(TelemetryStream s) noexcept;

/// The fields of one trace record, as its JSONL line holds them. The
/// views are only valid for the duration of the on_event call.
struct TraceFields {
  double t = 0.0;
  /// -1 when the record names no node.
  std::int64_t node = -1;
  /// Causality id (0 = none).
  std::uint64_t trace_id = 0;
  std::string_view kind;
  std::string_view detail;
};

struct TelemetryEvent {
  TelemetryStream stream = TelemetryStream::kTimeline;
  /// Per-stream 1-based publication number; header lines carry 0.
  std::uint64_t seq = 0;
  /// True for a schema header line (replayed to late sinks).
  bool header = false;
  /// Serialized JSON object, no trailing newline. Only valid for the
  /// duration of the on_event call.
  std::string_view line;
  /// The record behind `line` on the trace stream, when the publisher
  /// had one (sim::Trace does); null otherwise. Same lifetime as `line`.
  const TraceFields* trace = nullptr;
};

class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  /// Stream filter; the bus only delivers events this returns true for
  /// (headers included).
  virtual bool wants(TelemetryStream s) const noexcept {
    (void)s;
    return true;
  }
  virtual void on_event(const TelemetryEvent& e) = 0;
  /// Push any buffered state out (end of run, flight dump).
  virtual void flush() {}
};

class TelemetryBus {
 public:
  using SinkId = std::uint64_t;

  /// Attaches a sink; any headers already published on streams the sink
  /// wants are replayed immediately, in original publication order.
  /// Returns an id for remove_sink.
  SinkId add_sink(std::unique_ptr<TelemetrySink> sink);

  /// Detaches and returns the sink (nullptr for an unknown id). The sink
  /// is flushed first.
  std::unique_ptr<TelemetrySink> remove_sink(SinkId id);

  /// Publishes one serialized line to every interested sink, with the
  /// trace record's fields when `trace` is non-null. Header lines are
  /// additionally remembered for late-sink replay.
  void publish(TelemetryStream s, std::string_view line, bool header = false,
               const TraceFields* trace = nullptr);

  /// True when at least one attached sink wants `s` — producers use this
  /// to skip serialization entirely on silent streams.
  bool has_sink_for(TelemetryStream s) const noexcept;

  void flush();

  std::size_t num_sinks() const noexcept { return sinks_.size(); }
  std::uint64_t events_published() const noexcept { return published_; }

 private:
  struct Entry {
    SinkId id;
    std::unique_ptr<TelemetrySink> sink;
  };
  std::vector<Entry> sinks_;
  SinkId next_id_ = 1;
  std::array<std::uint64_t, kNumTelemetryStreams> seq_{};
  /// Headers in publication order (stream, line) for late-sink replay.
  std::vector<std::pair<TelemetryStream, std::string>> headers_;
  std::uint64_t published_ = 0;
};

/// One producer's connection to the bus: the stream it publishes on, its
/// schema header line, the bus, and the file sink open_jsonl added. Each
/// producer (timeline, field recorder, audit log, trace, metrics
/// snapshots) holds one instead of repeating this plumbing.
///
/// The bus is the harness's (attach_bus) or, for a producer used on its
/// own, one the channel creates at open_jsonl. The header goes out at
/// open_jsonl, or otherwise just before the first event some sink wants;
/// an empty header (the trace stream has none) is never sent.
class TelemetryChannel {
 public:
  TelemetryChannel(TelemetryStream stream, std::string header);

  /// Publishes through `bus` instead of an owned one; must precede
  /// open_jsonl, so every producer of a run shares the harness bus.
  void attach_bus(TelemetryBus* bus);

  /// Adds a JsonlFileSink for `path`, header first; logs and returns
  /// false when the file cannot be opened.
  bool open_jsonl(const std::string& path);
  void close_jsonl();

  /// True when some sink wants the stream: producers serialize an event
  /// only then.
  bool wanted() const noexcept {
    return bus_ != nullptr && bus_->has_sink_for(stream_);
  }
  /// Publishes one event line (and a trace record's fields, if any),
  /// preceded by the header if still unsent.
  void publish(std::string_view line, const TraceFields* trace = nullptr);

  const std::string& header() const noexcept { return header_; }

 private:
  TelemetryBus& ensure_bus();
  void publish_header();

  TelemetryStream stream_;
  std::string header_;
  TelemetryBus* bus_ = nullptr;
  std::unique_ptr<TelemetryBus> owned_bus_;
  bool header_published_ = false;
  TelemetryBus::SinkId file_sink_ = 0;
};

/// The classic artifact file: writes every line of one stream, newline
/// terminated, in delivery order — byte-identical to the pre-bus
/// per-producer ofstreams.
class JsonlFileSink : public TelemetrySink {
 public:
  JsonlFileSink(const std::string& path, TelemetryStream stream);

  /// False when the file could not be opened (the caller should not
  /// attach a dead sink).
  bool ok() const noexcept { return out_.is_open(); }

  bool wants(TelemetryStream s) const noexcept override {
    return s == stream_;
  }
  void on_event(const TelemetryEvent& e) override;
  void flush() override { out_.flush(); }

 private:
  TelemetryStream stream_;
  std::ofstream out_;
};

/// Live length-prefixed stream for `decor watch` and other tailers.
///
/// Wire format, one frame per event:
///   "DTLM <stream> <seq> <len>\n" followed by exactly <len> payload
///   bytes (the JSON line) and a terminating "\n".
/// The ASCII header makes frames self-delimiting and resyncable: a
/// reader skips lines that do not start with "DTLM " (interleaved human
/// output) and trusts <len> for the payload, so payloads may contain
/// anything.
///
/// Targets: "-" (stdout, flushed after every frame so a piped `decor
/// watch -` sees each one as it is published) or a file path. Every
/// stream but trace, which is too chatty for a live dashboard, is sent.
class FrameStreamSink : public TelemetrySink {
 public:
  explicit FrameStreamSink(const std::string& target);

  /// False when the target file could not be opened.
  bool ok() const noexcept { return to_stdout_ || file_.is_open(); }

  bool wants(TelemetryStream s) const noexcept override {
    return s != TelemetryStream::kTrace;
  }
  void on_event(const TelemetryEvent& e) override;
  void flush() override;

  std::uint64_t frames_written() const noexcept { return frames_; }

 private:
  /// std::cout for "-", otherwise the file.
  std::ostream& stream() noexcept;

  bool to_stdout_;
  std::ofstream file_;
  std::uint64_t frames_ = 0;
};

}  // namespace decor::common
