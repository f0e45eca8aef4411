#include "sim/metrics_snapshot.hpp"

#include <sstream>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/require.hpp"

namespace decor::sim {

void MetricsSnapshotter::start(Simulator& sim, Time period) {
  DECOR_REQUIRE_MSG(period > 0.0, "metrics snapshot period must be positive");
  sim_ = &sim;
  period_ = period;
  active_ = true;
  sim_->schedule(0.0, [this] { tick(); });
}

void MetricsSnapshotter::stop() { active_ = false; }

void MetricsSnapshotter::tick() {
  if (!active_) return;
  take(sim_->now());
  sim_->schedule(period_, [this] { tick(); });
}

void MetricsSnapshotter::snapshot_once() {
  take(sim_ ? sim_->now() : 0.0);
}

void MetricsSnapshotter::take(double t) {
  std::string line = snapshot_json(t);
  ++taken_;
  if (channel_.wanted()) channel_.publish(line);
  tail_.push_back(std::move(line));
  while (tail_.size() > kTailCap) tail_.pop_front();
}

std::vector<std::string> MetricsSnapshotter::tail() const {
  return {tail_.begin(), tail_.end()};
}

std::string MetricsSnapshotter::snapshot_json(double t) {
  std::ostringstream os;
  common::JsonWriter w(os);
  w.begin_object();
  w.key("t");
  w.value(t);
  common::metrics().write_summary_members(w);
  w.end_object();
  return os.str();
}

}  // namespace decor::sim
