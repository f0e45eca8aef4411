#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/require.hpp"

namespace decor::sim {

EventHandle EventQueue::schedule(Time at, std::function<void()> fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t seq = seq_++;
  Slot& s = slots_[slot];
  s.seq = seq;
  s.live = true;
  s.fn = std::move(fn);
  heap_.push_back(Key{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle(this, slot, seq);
}

void EventQueue::cancel(std::uint32_t slot, std::uint64_t seq) noexcept {
  Slot& s = slots_[slot];
  if (!s.live || s.seq != seq) return;  // already ran, or slot reused
  // Free the slot before the callback's captures are destroyed, so a
  // destructor that touches the queue sees it consistent. Its heap key
  // stays behind and is skipped on pop (lazy deletion).
  std::function<void()> dropped = std::move(s.fn);
  s.live = false;
  free_slots_.push_back(slot);
}

void EventQueue::skip_cancelled() const {
  while (!heap_.empty()) {
    const Key& top = heap_.front();
    const Slot& s = slots_[top.slot];
    if (s.live && s.seq == top.seq) return;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool EventQueue::empty() const noexcept {
  skip_cancelled();
  return heap_.empty();
}

Time EventQueue::next_time() const {
  skip_cancelled();
  DECOR_REQUIRE_MSG(!heap_.empty(), "next_time on empty event queue");
  return heap_.front().at;
}

Time EventQueue::pop_and_run() {
  skip_cancelled();
  DECOR_REQUIRE_MSG(!heap_.empty(), "pop on empty event queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  // Move the callback out and free its slot before running it: the
  // callback may schedule, which can reuse the slot or grow the table.
  Slot& s = slots_[key.slot];
  std::function<void()> fn = std::move(s.fn);
  s.live = false;
  free_slots_.push_back(key.slot);
  fn();
  return key.at;
}

}  // namespace decor::sim
