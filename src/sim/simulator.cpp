#include "sim/simulator.hpp"

#include "common/profile.hpp"
#include "common/require.hpp"

namespace decor::sim {

namespace {
common::Histogram& drain_hist() {
  static common::Histogram& h =
      common::profile_histogram("profile.sim.drain_us");
  return h;
}
}  // namespace

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

void Simulator::schedule(Time delay, std::function<void()> fn) {
  DECOR_REQUIRE_MSG(delay >= 0.0, "cannot schedule into the past");
  queue_.schedule(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(Time at, std::function<void()> fn) {
  DECOR_REQUIRE_MSG(at >= now_, "cannot schedule into the past");
  queue_.schedule(at, std::move(fn));
}

void Simulator::run() {
  common::ProfileScope profile(drain_hist());
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) {
    // Advance the clock before running the event so the callback observes
    // its own timestamp (and schedules relative to it).
    now_ = queue_.next_time();
    queue_.pop_and_run();
    ++executed_;
  }
}

void Simulator::run_until(Time until) {
  DECOR_REQUIRE_MSG(until >= now_, "run_until into the past");
  common::ProfileScope profile(drain_hist());
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) {
    const Time at = queue_.next_time();
    if (at > until) break;
    now_ = at;
    queue_.pop_and_run();
    ++executed_;
  }
  if (!stopped_) now_ = until;
}

}  // namespace decor::sim
