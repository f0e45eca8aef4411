#include "sim/audit_log.hpp"

#include <sstream>

#include "common/json.hpp"

namespace decor::sim {

void AuditLog::record(AuditRecord r) {
  if (channel_.wanted()) channel_.publish(record_json(r));
  records_.push_back(std::move(r));
}

std::string AuditLog::record_json(const AuditRecord& r) {
  std::ostringstream os;
  os << "{\"t\":" << common::format_double(r.t) << ",\"actor\":" << r.actor
     << ",\"cell\":" << r.cell << ",\"reason\":\""
     << common::json_escape(r.reason) << "\",\"point\":" << r.point
     << ",\"x\":" << common::format_double(r.pos.x)
     << ",\"y\":" << common::format_double(r.pos.y)
     << ",\"benefit\":" << r.benefit << ",\"runner_up\":" << r.runner_up
     << ",\"candidates\":" << r.candidates
     << ",\"newly_satisfied\":" << r.newly_satisfied
     << ",\"trace_id\":" << r.trace_id << "}";
  return os.str();
}

std::optional<AuditRecord> audit_record_from_json(
    const common::JsonValue& row) {
  const auto t = common::data_row_time(row);
  if (!t) return std::nullopt;
  AuditRecord r;
  r.t = *t;
  r.actor = row.number_at<std::uint64_t>("actor");
  r.cell = row.number_at<std::int64_t>("cell", -1);
  r.reason = row.string_at("reason");
  r.point = row.number_at<std::uint64_t>("point");
  r.pos = {row.number_at("x"), row.number_at("y")};
  r.benefit = row.number_at<std::uint64_t>("benefit");
  r.runner_up = row.number_at<std::uint64_t>("runner_up");
  r.candidates = row.number_at<std::uint64_t>("candidates");
  r.newly_satisfied = row.number_at<std::uint64_t>("newly_satisfied");
  r.trace_id = row.number_at<std::uint64_t>("trace_id");
  return r;
}

}  // namespace decor::sim
