#include "common/telemetry.hpp"

#include <iostream>

#include "common/log.hpp"
#include "common/require.hpp"

namespace decor::common {

const char* telemetry_stream_name(TelemetryStream s) noexcept {
  switch (s) {
    case TelemetryStream::kTimeline:
      return "timeline";
    case TelemetryStream::kField:
      return "field";
    case TelemetryStream::kAudit:
      return "audit";
    case TelemetryStream::kTrace:
      return "trace";
    case TelemetryStream::kMetrics:
      return "metrics";
  }
  return "unknown";
}

TelemetryBus::SinkId TelemetryBus::add_sink(
    std::unique_ptr<TelemetrySink> sink) {
  const SinkId id = next_id_++;
  // Replay remembered headers so a late sink still starts a well-formed
  // artifact. Headers keep seq 0 on replay, matching first delivery.
  for (const auto& [stream, line] : headers_) {
    if (sink->wants(stream)) {
      TelemetryEvent e;
      e.stream = stream;
      e.seq = 0;
      e.header = true;
      e.line = line;
      sink->on_event(e);
    }
  }
  sinks_.push_back(Entry{id, std::move(sink)});
  return id;
}

std::unique_ptr<TelemetrySink> TelemetryBus::remove_sink(SinkId id) {
  for (auto it = sinks_.begin(); it != sinks_.end(); ++it) {
    if (it->id == id) {
      std::unique_ptr<TelemetrySink> sink = std::move(it->sink);
      sinks_.erase(it);
      sink->flush();
      return sink;
    }
  }
  return nullptr;
}

void TelemetryBus::publish(TelemetryStream s, std::string_view line,
                           bool header, const TraceFields* trace) {
  TelemetryEvent e;
  e.stream = s;
  e.header = header;
  e.trace = trace;
  if (header) {
    e.seq = 0;
    headers_.emplace_back(s, std::string(line));
  } else {
    e.seq = ++seq_[static_cast<std::size_t>(s)];
  }
  e.line = line;
  ++published_;
  for (auto& entry : sinks_) {
    if (entry.sink->wants(s)) entry.sink->on_event(e);
  }
}

bool TelemetryBus::has_sink_for(TelemetryStream s) const noexcept {
  for (const auto& entry : sinks_) {
    if (entry.sink->wants(s)) return true;
  }
  return false;
}

void TelemetryBus::flush() {
  for (auto& entry : sinks_) entry.sink->flush();
}

TelemetryChannel::TelemetryChannel(TelemetryStream stream,
                                   std::string header)
    : stream_(stream), header_(std::move(header)) {}

TelemetryBus& TelemetryChannel::ensure_bus() {
  if (bus_ == nullptr) {
    owned_bus_ = std::make_unique<TelemetryBus>();
    bus_ = owned_bus_.get();
  }
  return *bus_;
}

void TelemetryChannel::attach_bus(TelemetryBus* bus) {
  const char* name = telemetry_stream_name(stream_);
  DECOR_REQUIRE_MSG(bus != nullptr, std::string(name) + ": null bus");
  DECOR_REQUIRE_MSG(!owned_bus_ && file_sink_ == 0,
                    std::string(name) + ": attach_bus must precede open_jsonl");
  bus_ = bus;
}

void TelemetryChannel::publish_header() {
  if (header_published_ || header_.empty()) return;
  header_published_ = true;
  ensure_bus().publish(stream_, header_, true);
}

bool TelemetryChannel::open_jsonl(const std::string& path) {
  auto sink = std::make_unique<JsonlFileSink>(path, stream_);
  if (!sink->ok()) {
    DECOR_LOG_ERROR("cannot open " << telemetry_stream_name(stream_)
                                   << " JSONL sink: " << path);
    return false;
  }
  publish_header();
  file_sink_ = ensure_bus().add_sink(std::move(sink));
  return true;
}

void TelemetryChannel::close_jsonl() {
  if (file_sink_ != 0 && bus_ != nullptr) bus_->remove_sink(file_sink_);
  file_sink_ = 0;
}

void TelemetryChannel::publish(std::string_view line,
                               const TraceFields* trace) {
  publish_header();
  bus_->publish(stream_, line, false, trace);
}

JsonlFileSink::JsonlFileSink(const std::string& path, TelemetryStream stream)
    : stream_(stream), out_(path) {}

void JsonlFileSink::on_event(const TelemetryEvent& e) {
  out_ << e.line << '\n';
}

FrameStreamSink::FrameStreamSink(const std::string& target)
    : to_stdout_(target == "-") {
  if (to_stdout_) return;
  file_.open(target, std::ios::out | std::ios::trunc);
  if (!file_.is_open()) {
    DECOR_LOG_ERROR("telemetry: cannot open stream target: " + target);
  }
}

std::ostream& FrameStreamSink::stream() noexcept {
  return to_stdout_ ? std::cout : file_;
}

void FrameStreamSink::on_event(const TelemetryEvent& e) {
  std::ostream& out = stream();
  // A stream that failed (unopened file, closed pipe) stays silent for
  // the rest of the run.
  if (!out) return;
  out << "DTLM " << telemetry_stream_name(e.stream) << ' ' << e.seq << ' '
      << e.line.size() << '\n'
      << e.line << '\n';
  if (to_stdout_) out.flush();
  ++frames_;
}

void FrameStreamSink::flush() { stream().flush(); }

}  // namespace decor::common
