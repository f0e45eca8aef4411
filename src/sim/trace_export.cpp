#include "sim/trace_export.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/json.hpp"

namespace decor::sim {

namespace {

/// Microseconds timestamp for the trace_event "ts" field.
std::string ts_us(Time at) { return common::format_double(at * 1e6); }

/// The shared prefix of every event in one message span: async events
/// correlate on (cat, id, name), and "id2.global" makes the id explicitly
/// cross-process so one exchange threads through several node tracks.
std::string span_head(const std::string& name, std::uint64_t trace_id,
                      char phase) {
  std::string out = "{\"name\":\"";
  out += common::json_escape(name);
  out += "\",\"cat\":\"msg\",\"ph\":\"";
  out += phase;
  out += "\",\"id2\":{\"global\":\"";
  out += std::to_string(trace_id);
  out += "\"}";
  return out;
}

void write_span_event(std::ostream& os, const std::string& name,
                      std::uint64_t trace_id, char phase, Time at,
                      std::uint32_t pid, const char* leg) {
  os << ",\n"
     << span_head(name, trace_id, phase) << ",\"ts\":" << ts_us(at)
     << ",\"pid\":" << pid << ",\"tid\":0,\"args\":{\"leg\":\"" << leg
     << "\",\"trace\":" << trace_id << "}}";
}

void write_instant(std::ostream& os, const std::string& name, Time at,
                   std::uint32_t pid) {
  os << ",\n{\"name\":\"" << common::json_escape(name)
     << "\",\"cat\":\"node\",\"ph\":\"i\",\"s\":\"p\",\"ts\":" << ts_us(at)
     << ",\"pid\":" << pid << ",\"tid\":0}";
}

}  // namespace

void write_chrome_trace(const std::vector<TraceRecord>& records,
                        std::ostream& os, const MsgKindNamer& namer,
                        int ack_kind) {
  // Fold the message records into exchanges (the input is chronological)
  // and keep each exchange's records with their legs.
  ExchangeTracker tracker(ack_kind);
  std::map<std::uint64_t, std::vector<std::pair<const TraceRecord*, TraceLeg>>>
      spans;
  std::set<std::uint32_t> nodes;
  for (const auto& r : records) {
    nodes.insert(r.node);
    const TraceLeg leg = tracker.add(r);
    if (leg != TraceLeg::kNone) spans[r.trace_id].emplace_back(&r, leg);
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
     << "{\"name\":\"decor\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"decor simulation\"}}";
  for (std::uint32_t n : nodes) {
    os << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << n
       << ",\"tid\":0,\"args\":{\"name\":\"node " << n << "\"}}";
  }

  for (const auto& [trace_id, group] : spans) {
    // The span opens at the send; a group with no tx at all (ring
    // wraparound ate the send) opens at its first record, under that
    // record's own leg.
    const auto send = std::find_if(group.begin(), group.end(), [](auto& e) {
      return e.second == TraceLeg::kSend;
    });
    const auto& [anchor, anchor_leg] =
        send != group.end() ? *send : group.front();
    const int kind = parse_trace_detail(anchor->detail).kind;
    std::string name =
        namer && kind >= 0 ? namer(kind) : "kind-" + std::to_string(kind);

    write_span_event(os, name, trace_id, 'b', anchor->at, anchor->node,
                     trace_leg_name(anchor_leg));
    for (const auto& [r, leg] : group) {
      if (r == anchor) continue;
      write_span_event(os, name, trace_id, 'n', r->at, r->node,
                       trace_leg_name(leg));
    }
    write_span_event(os, name, trace_id, 'e', group.back().first->at,
                     anchor->node, "end");
  }

  for (const auto& r : records) {
    switch (r.kind) {
      case TraceKind::kSpawn:
        write_instant(os, "spawn", r.at, r.node);
        break;
      case TraceKind::kKill:
        write_instant(os, "kill", r.at, r.node);
        break;
      case TraceKind::kReboot:
        write_instant(os, "reboot", r.at, r.node);
        break;
      case TraceKind::kProtocol:
        write_instant(os, r.detail.empty() ? "protocol" : r.detail, r.at,
                      r.node);
        break;
      default:
        break;
    }
  }
  os << "\n]}\n";
}

}  // namespace decor::sim
