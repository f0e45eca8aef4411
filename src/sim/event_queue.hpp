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
// std::function's inline buffer.
//
// A cancelled event's key stays in the heap until it reaches the front;
// pop and cancel drop such keys there at once, so the front key is
// always live and empty()/next_time() read it without a check.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace decor::sim {

/// Simulated time in seconds.
using Time = double;

class EventQueue;

/// Cancellation token for a scheduled event: the queue slot holding its
/// callback plus the event's sequence number. cancel() releases the slot
/// only while it still holds that event, so a handle whose event already
/// ran — or whose slot now holds a later event — cancels nothing. A
/// handle points into its queue and must not outlive it.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel() noexcept;
  bool valid() const noexcept { return queue_ != nullptr; }
  /// True once cancel() was called on this handle.
  bool cancelled() const noexcept { return cancelled_; }

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint64_t seq)
      : queue_(queue), slot_(slot), seq_(seq) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  bool cancelled_ = false;
  std::uint64_t seq_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  // Handles hold the queue's address.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  EventQueue(EventQueue&&) = delete;
  EventQueue& operator=(EventQueue&&) = delete;

  /// Schedules `fn` at absolute time `at` (must not precede the time of
  /// the last popped event).
  EventHandle schedule(Time at, std::function<void()> fn);

  bool empty() const noexcept { return heap_.empty(); }

  /// Time of the earliest pending (non-cancelled) event.
  Time next_time() const;

  /// Pops and runs the earliest event; returns its time.
  Time pop_and_run();

  /// Heap keys, including those of cancelled events not yet at the
  /// front.
  std::size_t pending() const noexcept { return heap_.size(); }
  std::uint64_t scheduled_total() const noexcept { return seq_; }

 private:
  friend class EventHandle;

  struct Slot {
    std::uint64_t seq = 0;
    bool live = false;
    std::function<void()> fn;
  };
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
  /// The key's slot still holds its event (it was not cancelled).
  bool live(const Key& k) const noexcept {
    const Slot& s = slots_[k.slot];
    return s.live && s.seq == k.seq;
  }

  void cancel(std::uint32_t slot, std::uint64_t seq) noexcept;
  void push(Key key);
  /// Removes the front key.
  void pop_front() noexcept;
  /// Pops cancelled keys off the front until a live one leads.
  void drop_cancelled_front() noexcept;

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t seq_ = 0;
};

inline void EventHandle::cancel() noexcept {
  if (queue_ == nullptr) return;
  cancelled_ = true;
  queue_->cancel(slot_, seq_);
}

}  // namespace decor::sim
