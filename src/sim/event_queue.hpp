// The discrete-event core: a time-ordered queue of callbacks.
//
// Determinism matters more than raw speed here — every experiment must be
// reproducible from its seed — so ties in time are broken by insertion
// sequence number, never by heap internals.
//
// Callbacks live in a slot table recycled through a free list; a 4-ary
// heap orders small trivially copyable (at, seq, slot) keys, which halves
// the depth a pop sifts through compared with a binary heap. Scheduling
// and dispatching therefore allocate nothing once the table and heap have
// grown to the run's peak, unless a callback's captures overflow
// std::function's inline buffer. A scheduled event always runs: nothing
// removes a key before it reaches the front.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace decor::sim {

/// Simulated time in seconds.
using Time = double;

class EventQueue {
 public:
  EventQueue() = default;
  // A copy would run every pending callback twice.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  EventQueue(EventQueue&&) = delete;
  EventQueue& operator=(EventQueue&&) = delete;

  /// Schedules `fn` at absolute time `at` (must not precede the time of
  /// the last popped event).
  void schedule(Time at, std::function<void()> fn);

  bool empty() const noexcept { return heap_.empty(); }

  /// Time of the earliest pending event.
  Time next_time() const;

  /// Pops and runs the earliest event; returns its time.
  Time pop_and_run();

  std::uint64_t scheduled_total() const noexcept { return seq_; }

 private:
  /// Heap entry; the heap's front is the smallest (at, seq).
  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const Key& a, const Key& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void push(Key key);
  /// Removes the front key.
  void pop_front() noexcept;

  std::vector<Key> heap_;
  std::vector<std::function<void()>> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t seq_ = 0;
};

}  // namespace decor::sim
