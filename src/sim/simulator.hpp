// The simulation clock and run loop.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace decor::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  Time now() const noexcept { return now_; }

  /// Schedules `fn` after `delay` seconds (delay >= 0).
  void schedule(Time delay, std::function<void()> fn);

  /// Schedules `fn` at absolute time `at` (at >= now()).
  void schedule_at(Time at, std::function<void()> fn);

  /// Runs until the queue drains or `stop()` is called.
  void run();

  /// Runs events with time <= `until`, then advances the clock to `until`.
  void run_until(Time until);

  /// Requests the run loop to return after the current event.
  void stop() noexcept { stopped_ = true; }

  std::uint64_t events_executed() const noexcept { return executed_; }

  /// Simulation-wide RNG (all protocol randomness draws from here so a run
  /// is reproducible from the constructor seed).
  common::Rng& rng() noexcept { return rng_; }

 private:
  EventQueue queue_;
  Time now_ = 0.0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  common::Rng rng_;
};

}  // namespace decor::sim
