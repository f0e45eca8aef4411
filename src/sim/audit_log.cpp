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

}  // namespace decor::sim
