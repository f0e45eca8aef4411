#include "sim/trace.hpp"

#include <algorithm>
#include <charconv>

#include "common/json.hpp"

namespace decor::sim {

const char* trace_kind_name(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kSpawn:
      return "spawn";
    case TraceKind::kKill:
      return "kill";
    case TraceKind::kTx:
      return "tx";
    case TraceKind::kRx:
      return "rx";
    case TraceKind::kDrop:
      return "drop";
    case TraceKind::kTimer:
      return "timer";
    case TraceKind::kProtocol:
      return "protocol";
    case TraceKind::kReboot:
      return "reboot";
  }
  return "unknown";
}

void Trace::set_capacity(std::size_t cap) {
  capacity_ = cap;
  records_.clear();
  records_.shrink_to_fit();
  if (capacity_ > 0) records_.reserve(capacity_);
  head_ = 0;
  total_ = 0;
}

std::string trace_record_json(const TraceRecord& r) {
  std::string out = "{\"seq\":";
  out += std::to_string(r.seq);
  out += ",\"t\":";
  out += common::format_double(r.at);
  out += ",\"kind\":\"";
  out += trace_kind_name(r.kind);
  out += "\",\"node\":";
  out += std::to_string(r.node);
  out += ",\"trace\":";
  out += std::to_string(r.trace_id);
  out += ",\"detail\":\"";
  out += common::json_escape(r.detail);
  out += "\"}";
  return out;
}

TraceDetail parse_trace_detail(std::string_view detail) noexcept {
  TraceDetail d;
  d.crc = detail.starts_with("crc ");
  if (d.crc) detail.remove_prefix(4);
  // Reads "<key><number>" off the front of `detail` into `out`; leaves
  // `out` as it is when the text does not match.
  const auto take = [&detail](std::string_view key, auto& out) {
    if (!detail.starts_with(key)) return;
    const char* end = detail.data() + detail.size();
    const auto r = std::from_chars(detail.data() + key.size(), end, out);
    if (r.ec == std::errc()) {
      detail.remove_prefix(static_cast<std::size_t>(r.ptr - detail.data()));
    }
  };
  take("kind=", d.kind);
  take(" from=", d.from);
  return d;
}

std::optional<TraceRecord> trace_record_from_json(
    const common::JsonValue& row) {
  const std::string& kind = row.string_at("kind");
  // kReboot is the last kind.
  for (int k = 0; k <= static_cast<int>(TraceKind::kReboot); ++k) {
    if (kind != trace_kind_name(static_cast<TraceKind>(k))) continue;
    return TraceRecord{row.number_at("t"),
                       static_cast<TraceKind>(k),
                       row.number_at<std::uint32_t>("node"),
                       row.string_at("detail"),
                       row.number_at<std::uint64_t>("trace"),
                       row.number_at<std::uint64_t>("seq")};
  }
  return std::nullopt;
}

const char* trace_leg_name(TraceLeg leg) noexcept {
  static constexpr const char* kNames[] = {
      "", "send", "retransmit", "forward", "ack", "rx", "ack-rx", "drop"};
  return kNames[static_cast<int>(leg)];
}

TraceLeg ExchangeTracker::add(const TraceRecord& r) {
  if (r.trace_id == 0 || (r.kind != TraceKind::kTx &&
                          r.kind != TraceKind::kRx &&
                          r.kind != TraceKind::kDrop)) {
    return TraceLeg::kNone;
  }
  const auto [it, fresh] = exchanges_.try_emplace(r.trace_id);
  TraceExchange& ex = it->second;
  if (fresh) ex.first_t = ex.last_t = r.at;
  ex.last_t = std::max(ex.last_t, r.at);
  if (r.kind == TraceKind::kDrop) return TraceLeg::kDrop;
  const int kind = parse_trace_detail(r.detail).kind;
  if (r.kind == TraceKind::kRx) {
    return kind == ack_kind_ ? TraceLeg::kAckRx : TraceLeg::kRx;
  }
  if (!ex.has_origin) {
    ex.has_origin = true;
    ex.origin = r.node;
    ex.kind = kind;
    return TraceLeg::kSend;
  }
  if (kind == ack_kind_) {
    ex.acked = true;
    return TraceLeg::kAck;
  }
  if (r.node != ex.origin) return TraceLeg::kForward;
  // The origin sending its frame again: an ARQ retransmission.
  ++ex.retransmits;
  return TraceLeg::kRetransmit;
}

void Trace::record(Time at, TraceKind kind, std::uint32_t node,
                   std::string detail, std::uint64_t trace_id) {
  if (!enabled_) return;
  const std::uint64_t seq = ++total_;
  if (channel_.wanted()) {
    channel_.publish(trace_record_json(
        TraceRecord{at, kind, node, detail, trace_id, seq}));
  }
  if (capacity_ == 0 || records_.size() < capacity_) {
    records_.push_back(
        TraceRecord{at, kind, node, std::move(detail), trace_id, seq});
    return;
  }
  // Ring mode, buffer full: overwrite the oldest record in place.
  records_[head_] =
      TraceRecord{at, kind, node, std::move(detail), trace_id, seq};
  head_ = (head_ + 1) % capacity_;
}

std::size_t Trace::slot(std::size_t i) const noexcept {
  // head_ is only nonzero after a wrap, in which case records_[head_] is
  // the oldest buffered record.
  return (head_ + i) % records_.size();
}

std::vector<TraceRecord> Trace::chronological() const {
  std::vector<TraceRecord> out;
  out.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    out.push_back(records_[slot(i)]);
  }
  return out;
}

void Trace::clear() noexcept {
  records_.clear();
  head_ = 0;
  total_ = 0;
}

std::vector<TraceRecord> Trace::filter(TraceKind kind) const {
  std::vector<TraceRecord> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[slot(i)];
    if (r.kind == kind) out.push_back(r);
  }
  return out;
}

std::vector<TraceRecord> Trace::grep(const std::string& needle) const {
  std::vector<TraceRecord> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[slot(i)];
    if (r.detail.find(needle) != std::string::npos) out.push_back(r);
  }
  return out;
}

}  // namespace decor::sim
