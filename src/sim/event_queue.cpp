#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/require.hpp"

namespace decor::sim {

namespace {
/// Children of heap index i sit at kArity * i + 1 ... kArity * i + kArity.
constexpr std::size_t kArity = 4;
}  // namespace

void EventQueue::schedule(Time at, std::function<void()> fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  push(Key{at, seq_++, slot});
}

void EventQueue::push(Key key) {
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void EventQueue::pop_front() noexcept {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Sift the former last key down from the root through the smallest
  // child of each level.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

Time EventQueue::next_time() const {
  DECOR_REQUIRE_MSG(!heap_.empty(), "next_time on empty event queue");
  return heap_.front().at;
}

Time EventQueue::pop_and_run() {
  DECOR_REQUIRE_MSG(!heap_.empty(), "pop on empty event queue");
  const Key key = heap_.front();
  pop_front();
  // Move the callback out and free its slot before running it: the
  // callback may schedule, which can reuse the slot or grow the table.
  std::function<void()> fn = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  // Start loading the next event's callback while this one runs; without
  // it the next dispatch stalls on the slot table's cache miss.
  if (!heap_.empty()) __builtin_prefetch(&slots_[heap_.front().slot]);
  fn();
  return key.at;
}

}  // namespace decor::sim
