// Structured event tracing for the simulator.
//
// Tests and examples assert on traces (who detected which failure, when a
// leader rotated) rather than scraping logs; benches leave tracing off.
// Two memory regimes: the default unbounded vector (tests want every
// record), and a bounded ring buffer (`set_capacity`) that keeps only the
// most recent records — long protocol runs stay at a fixed footprint.
// Independently of the in-memory buffer, `open_jsonl` streams every
// record to disk as one JSON object per line. The reading side turns such
// a dump back into records (trace_record_from_json) and message
// exchanges (ExchangeTracker) for every consumer.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry.hpp"
#include "sim/event_queue.hpp"

namespace decor::common {
class JsonValue;
}

namespace decor::sim {

enum class TraceKind : int {
  kSpawn,
  kKill,
  kTx,
  kRx,
  kDrop,
  kTimer,
  kProtocol,  // free-form protocol milestone
  kReboot,    // dead node restarted in place with fresh state
};

/// Stable lowercase name of a kind ("spawn", "tx", ...), used by the
/// JSONL sink and anything else that serializes records.
const char* trace_kind_name(TraceKind kind) noexcept;

struct TraceRecord;

/// Serializes one record as a trace JSONL line (no trailing newline);
/// shared by the live sink and the flight recorder.
std::string trace_record_json(const TraceRecord& r);

struct TraceRecord {
  Time at = 0.0;
  TraceKind kind = TraceKind::kProtocol;
  std::uint32_t node = 0;
  std::string detail;
  /// Causality id of the message this record belongs to (0 = none).
  std::uint64_t trace_id = 0;
  /// Per-run monotonically increasing record number (1-based), assigned
  /// on record(). Survives ring-buffer wraparound, so a JSONL dump or the
  /// ring contents are order-verifiable after the fact.
  std::uint64_t seq = 0;
};

// --- reading traces back ---------------------------------------------------

/// The fields of a radio record's detail text: "kind=N", "kind=N from=M"
/// or "crc kind=N from=M". kind and from are -1 when absent.
struct TraceDetail {
  int kind = -1;
  std::int64_t from = -1;
  bool crc = false;
};

/// The one parser of the radio's detail text; any other detail
/// ("converged", "dead-peer=7") yields the defaults.
TraceDetail parse_trace_detail(std::string_view detail) noexcept;

/// The reader twin of trace_record_json: the record a parsed trace JSONL
/// row holds, or nullopt when the row names no known kind (a schema
/// header or a foreign line).
std::optional<TraceRecord> trace_record_from_json(
    const common::JsonValue& row);

/// What one record is to its message exchange.
enum class TraceLeg {
  kNone,  // no causality id, or not a tx/rx/drop record
  kSend,  // the exchange's first transmission
  kRetransmit,
  kForward,
  kAck,
  kRx,
  kAckRx,
  kDrop,
};

/// Lowercase leg name ("send", "ack-rx", ...), as the Perfetto export
/// labels its span events; "" for kNone.
const char* trace_leg_name(TraceLeg leg) noexcept;

/// One message exchange: the tx/rx/drop records sharing a causality id.
struct TraceExchange {
  Time first_t = 0.0;
  Time last_t = 0.0;
  /// The first transmitter, once a tx was seen.
  bool has_origin = false;
  std::uint32_t origin = 0;
  /// Message kind of the first transmission.
  int kind = -1;
  /// Later non-ack transmissions by the origin.
  std::uint64_t retransmits = 0;
  /// Some node transmitted an ack on the exchange.
  bool acked = false;
};

/// Folds records, in time order, into one exchange per causality id and
/// decides each record's leg. The Perfetto export, `decor explain` and
/// `decor trace report` all classify legs here, so they agree.
class ExchangeTracker {
 public:
  /// `ack_kind` is the link-layer acknowledgement's message kind (-1
  /// when the run has no ARQ layer).
  explicit ExchangeTracker(int ack_kind) : ack_kind_(ack_kind) {}

  TraceLeg add(const TraceRecord& r);

  /// Exchanges by causality id.
  const std::map<std::uint64_t, TraceExchange>& exchanges() const noexcept {
    return exchanges_;
  }

 private:
  int ack_kind_;
  std::map<std::uint64_t, TraceExchange> exchanges_;
};

/// In-memory trace with optional recording (disabled by default; recording
/// every rx in a large run would dominate memory).
class Trace {
 public:
  void enable(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Bounds the in-memory buffer to the `cap` most recent records
  /// (0 restores the unbounded default). Clears the current buffer.
  void set_capacity(std::size_t cap);
  std::size_t capacity() const noexcept { return capacity_; }

  /// Records accepted since construction/clear(), including any that have
  /// since been overwritten in ring mode.
  std::uint64_t total_recorded() const noexcept { return total_; }
  /// Records overwritten by the ring (0 when unbounded or not yet full).
  std::uint64_t dropped() const noexcept {
    return total_ - static_cast<std::uint64_t>(records_.size());
  }

  /// Bus plumbing, as common::TelemetryChannel documents it. Records are
  /// serialized only when some sink wants the trace stream, so purely
  /// in-memory tracing stays cheap. open_jsonl streams every later record
  /// as one JSON line
  /// ({"seq":1,"t":...,"kind":"tx","node":3,"trace":7,"detail":"..."});
  /// the stream has no schema header. The file sees records regardless of
  /// the ring capacity, but only while recording is enabled.
  void attach_bus(common::TelemetryBus* bus) { channel_.attach_bus(bus); }
  bool open_jsonl(const std::string& path) {
    return channel_.open_jsonl(path);
  }
  void close_jsonl() { channel_.close_jsonl(); }

  void record(Time at, TraceKind kind, std::uint32_t node,
              std::string detail, std::uint64_t trace_id = 0);

  /// Raw buffer. In ring mode after a wrap the storage order is rotated;
  /// use chronological() (or filter/grep, which compensate) when order
  /// matters.
  const std::vector<TraceRecord>& records() const noexcept { return records_; }
  /// Buffered records, oldest first.
  std::vector<TraceRecord> chronological() const;
  void clear() noexcept;

  /// Records matching a kind, oldest first.
  std::vector<TraceRecord> filter(TraceKind kind) const;

  /// Records whose detail contains `needle`, oldest first.
  std::vector<TraceRecord> grep(const std::string& needle) const;

 private:
  /// Index into records_ of the i-th oldest buffered record.
  std::size_t slot(std::size_t i) const noexcept;

  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // ring mode: next slot to overwrite once full
  std::uint64_t total_ = 0;
  std::vector<TraceRecord> records_;
  common::TelemetryChannel channel_{common::TelemetryStream::kTrace, ""};
};

}  // namespace decor::sim
