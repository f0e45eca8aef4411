// Wire messages of the DECOR protocol suite.
//
// Kinds are globally unique small integers so traces remain readable; the
// payload structs are tiny PODs carried through sim::Message::make.
#pragma once

#include <cstdint>
#include <string>

#include "geometry/point.hpp"

namespace decor::net {

enum MsgKind : int {
  kHello = 1,          // neighbor discovery: "I exist at pos"
  kHeartbeat = 2,      // periodic liveness + position refresh
  kElect = 3,          // leader election bid for a cell
  kLeader = 4,         // election winner announcement
  kPlacement = 5,      // "a new sensor was deployed at pos"
  kCoverageQuery = 6,  // leader asks members for known sensors
  kCoverageReply = 7,  // member replies with its position
  kReport = 8,         // data/report toward the base station
  kAck = 9,            // link-layer acknowledgement (ReliableLink)
  kSinkBeacon = 10,    // sink-rooted gradient beacon (DataPlane tree)
  kReading = 11,       // sensor reading routed hop-by-hop to the sink
};

struct HelloPayload {
  geom::Point2 pos;
};

struct HeartbeatPayload {
  geom::Point2 pos;
  /// Cell the sender currently believes it belongs to (grid scheme).
  std::uint32_t cell = 0;
  /// Sender's boot time (incarnation stamp): a known peer id announcing
  /// a later boot has rebooted with amnesia, so receivers must drop the
  /// link-layer dedup state of its previous incarnation.
  double boot = 0.0;
};

struct ElectPayload {
  std::uint32_t cell = 0;
  /// Election priority for this term; highest wins, id breaks ties.
  std::uint64_t priority = 0;
  std::uint32_t term = 0;
};

struct LeaderPayload {
  std::uint32_t cell = 0;
  std::uint32_t term = 0;
};

struct PlacementPayload {
  geom::Point2 pos;
  /// Cell of the placing leader (grid scheme) or 0 (Voronoi scheme).
  std::uint32_t origin_cell = 0;
};

struct CoverageQueryPayload {
  std::uint32_t cell = 0;
};

struct CoverageReplyPayload {
  geom::Point2 pos;
};

struct ReportPayload {
  double value = 0.0;
};

struct AckPayload {
  /// Sequence number of the frame being acknowledged.
  std::uint32_t seq = 0;
  /// Cumulative acknowledgement: the receiver has seen every sequence
  /// number from this sender up to and including `cum`. 0 (the
  /// stop-and-wait value) carries no cumulative information, which keeps
  /// window=1 byte-identical to the historical per-frame protocol.
  std::uint32_t cum = 0;
};

/// Sink-rooted gradient beacon (DataPlane): receivers adopt the sender
/// as parent when (epoch, hops) improves on their current route.
struct SinkBeaconPayload {
  std::uint32_t epoch = 0;
  std::uint32_t hops = 0;  // sender's distance from the sink
};

/// One sensor reading, forwarded hop-by-hop toward the base station.
struct ReadingPayload {
  std::uint32_t origin = 0;    // originating sensor
  std::uint32_t seq = 0;       // per-origin reading counter (dedup at sink)
  std::uint32_t hops = 0;      // hops travelled so far
  double origin_time = 0.0;    // sim time the reading was produced
  double value = 0.0;
  geom::Point2 pos;            // origin position
  /// Origin's boot time (incarnation stamp): a rebooted origin restarts
  /// its seq counter, so the sink keys its dedup floor on (origin, boot)
  /// and rejects stale readings from earlier incarnations.
  double boot = 0.0;
};

/// Stable lowercase name of a protocol kind ("hello", "ack", ...), used
/// by trace exports and reports; unknown kinds return nullptr.
inline const char* msg_kind_name(int kind) noexcept {
  switch (kind) {
    case kHello:
      return "hello";
    case kHeartbeat:
      return "heartbeat";
    case kElect:
      return "elect";
    case kLeader:
      return "leader";
    case kPlacement:
      return "placement";
    case kCoverageQuery:
      return "coverage_query";
    case kCoverageReply:
      return "coverage_reply";
    case kReport:
      return "report";
    case kAck:
      return "ack";
    case kSinkBeacon:
      return "sink_beacon";
    case kReading:
      return "reading";
  }
  return nullptr;
}

/// msg_kind_name, or "kind-N" for a kind the vocabulary does not name.
inline std::string msg_kind_label(int kind) {
  const char* name = msg_kind_name(kind);
  return name != nullptr ? name : "kind-" + std::to_string(kind);
}

/// Nominal wire sizes (bytes) used by the energy model; roughly two floats
/// of position plus headers, matching mote-class packet sizes. The sizes
/// include the frame CRC trailer (sim::Message::kChecksumBytes) and the
/// compact boot stamps above — both were always part of the accounting,
/// so fault-capable builds charge exactly the historical energy/airtime.
inline std::size_t wire_size(MsgKind kind) {
  switch (kind) {
    case kHello:
    case kHeartbeat:
    case kCoverageReply:
      return 24;
    case kElect:
    case kLeader:
      return 20;
    case kPlacement:
      return 28;
    case kCoverageQuery:
      return 16;
    case kReport:
      return 32;
    case kAck:
      return 12;
    case kSinkBeacon:
      return 16;
    case kReading:
      return 36;
  }
  return 32;
}

}  // namespace decor::net
