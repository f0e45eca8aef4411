#include "sim/timeline.hpp"

#include <sstream>

#include "common/json.hpp"
#include "common/require.hpp"

namespace decor::sim {

void Timeline::start(Simulator& sim, Time period, Probe probe) {
  DECOR_REQUIRE_MSG(period > 0.0, "timeline period must be positive");
  DECOR_REQUIRE_MSG(probe != nullptr, "timeline needs a probe");
  sim_ = &sim;
  period_ = period;
  probe_ = std::move(probe);
  active_ = true;
  sim_->schedule(0.0, [this] { tick(); });
}

void Timeline::stop() { active_ = false; }

void Timeline::sample_once() {
  if (!probe_) return;
  TimelineSample s = probe_();
  write_sample(s);
  samples_.push_back(std::move(s));
}

void Timeline::tick() {
  if (!active_) return;
  TimelineSample s = probe_();
  write_sample(s);
  samples_.push_back(std::move(s));
  sim_->schedule(period_, [this] { tick(); });
}

void Timeline::write_sample(const TimelineSample& s) {
  if (channel_.wanted()) channel_.publish(timeline_sample_json(s));
}

Time convergence_time(const std::vector<TimelineSample>& samples) noexcept {
  for (const auto& s : samples) {
    if (s.uncovered_points == 0) return s.t;
  }
  return -1.0;
}

std::vector<TimelineSample> Timeline::tail(std::size_t n) const {
  const std::size_t start = samples_.size() > n ? samples_.size() - n : 0;
  return {samples_.begin() + static_cast<std::ptrdiff_t>(start),
          samples_.end()};
}

std::string timeline_sample_json(const TimelineSample& s) {
  std::ostringstream os;
  os << "{\"t\":" << common::format_double(s.t)
     << ",\"covered\":" << common::format_double(s.covered_fraction)
     << ",\"uncovered\":" << s.uncovered_points
     << ",\"alive\":" << s.alive_nodes
     << ",\"arq_in_flight\":" << s.arq_in_flight << ",\"leaders\":\""
     << common::json_escape(s.leaders) << "\"";
  if (s.has_readings) {
    os << ",\"readings\":" << s.readings_delivered
       << ",\"reading_bytes\":" << s.reading_bytes;
  }
  if (s.has_invariants) {
    os << ",\"invariant_violations\":" << s.invariant_violations;
  }
  if (s.has_arq_detail) {
    os << ",\"arq_sent\":" << s.arq_sent << ",\"arq_retx\":" << s.arq_retx;
  }
  os << "}";
  return os.str();
}

std::optional<TimelineSample> timeline_sample_from_json(
    const common::JsonValue& row) {
  const auto t = common::data_row_time(row);
  const common::JsonValue* uncovered = row.find("uncovered");
  const auto uncovered_points =
      uncovered != nullptr ? uncovered->number_as<std::uint64_t>()
                           : std::nullopt;
  if (!t || !uncovered_points) return std::nullopt;
  TimelineSample s;
  s.t = *t;
  s.covered_fraction = row.number_at("covered");
  s.uncovered_points = *uncovered_points;
  s.alive_nodes = row.number_at<std::uint64_t>("alive");
  s.arq_in_flight = row.number_at<std::uint64_t>("arq_in_flight");
  s.leaders = row.string_at("leaders");
  s.has_readings = row.find("readings") != nullptr;
  s.readings_delivered = row.number_at<std::uint64_t>("readings");
  s.reading_bytes = row.number_at<std::uint64_t>("reading_bytes");
  s.has_invariants = row.find("invariant_violations") != nullptr;
  s.invariant_violations =
      row.number_at<std::uint64_t>("invariant_violations");
  s.has_arq_detail = row.find("arq_sent") != nullptr;
  s.arq_sent = row.number_at<std::uint64_t>("arq_sent");
  s.arq_retx = row.number_at<std::uint64_t>("arq_retx");
  return s;
}

}  // namespace decor::sim
