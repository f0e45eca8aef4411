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

Time Timeline::convergence_time() const noexcept {
  for (const auto& s : samples_) {
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

}  // namespace decor::sim
