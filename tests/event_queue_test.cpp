#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <tuple>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace decor::sim;

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertion) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void(Time)> chain = [&](Time t) {
    ++fired;
    if (fired < 5) {
      q.schedule(t + 1.0, [&chain, t] { chain(t + 1.0); });
    }
  };
  q.schedule(0.0, [&chain] { chain(0.0); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, 5);
}

TEST(EventQueue, PopMovesCallbackOutOfHeap) {
  // Regression: pop_and_run used to copy the heap top (const ref from
  // priority_queue::top()), cloning every callback's capture state on
  // dispatch. Count copies of a tracked callable through the full
  // schedule -> pop -> run path: moves are fine, copies are not.
  struct CopyCounter {
    int* copies;
    explicit CopyCounter(int* c) : copies(c) {}
    CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter&& o) noexcept : copies(o.copies) {}
    CopyCounter& operator=(const CopyCounter&) = delete;
    CopyCounter& operator=(CopyCounter&&) = delete;
    void operator()() const {}
  };
  EventQueue q;
  int copies = 0;
  q.schedule(1.0, std::function<void()>(CopyCounter(&copies)));
  const int copies_after_schedule = copies;
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(copies, copies_after_schedule)
      << "pop_and_run must not copy the scheduled callable";
}

TEST(EventQueue, CallbackGrowingTheSlotTableKeepsOrder) {
  // One callback schedules 1000 events, so the slot table reallocates
  // while that callback (already moved out of its slot) is running.
  EventQueue q;
  std::vector<int> order;
  q.schedule(0.0, [&] {
    for (int i = 0; i < 1000; ++i) {
      // Times repeat every 7 events: ties must break by schedule order.
      q.schedule(1.0 + static_cast<double>((i * 3) % 7),
                 [&order, i] { order.push_back(i); });
    }
  });
  while (!q.empty()) q.pop_and_run();
  std::vector<int> expected(1000);
  for (int i = 0; i < 1000; ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(), [](int a, int b) {
    return (a * 3) % 7 < (b * 3) % 7;
  });
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, MatchesASortedReferenceUnderRandomOperations) {
  // Seeded differential test: random schedules (times on a coarse grid,
  // so many share `at`) and pops — some from inside callbacks that
  // schedule in turn. The reference is a set ordered by (at, seq); every
  // pop must run exactly its smallest element.
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    decor::common::Rng rng(seed);
    EventQueue q;
    std::set<std::tuple<Time, std::uint64_t>> pending;  // (at, seq)
    std::vector<std::uint64_t> ran;
    Time now = 0.0;

    // Schedules one event whose callback records its seq and sometimes
    // schedules one more; declared first so the callbacks can call it.
    std::function<void()> schedule_one;
    schedule_one = [&] {
      const Time at = now + 0.5 * static_cast<double>(rng.below(4));
      const std::uint64_t seq = q.scheduled_total();
      const bool nested = rng.bernoulli(0.2);
      q.schedule(at, [&, seq, nested] {
        ran.push_back(seq);
        if (nested) schedule_one();
      });
      pending.insert({at, seq});
    };

    for (int step = 0; step < 4000; ++step) {
      if (rng.uniform() < 0.45) {
        schedule_one();
      } else if (!pending.empty()) {
        ASSERT_FALSE(q.empty());
        const auto [at, seq] = *pending.begin();
        ASSERT_EQ(q.next_time(), at);
        pending.erase(pending.begin());
        now = at;
        ran.clear();
        EXPECT_EQ(q.pop_and_run(), at);
        ASSERT_FALSE(ran.empty());
        ASSERT_EQ(ran.front(), seq) << "seed " << seed << " step " << step;
      } else {
        ASSERT_TRUE(q.empty());
      }
    }
    while (!pending.empty()) {
      const auto [at, seq] = *pending.begin();
      pending.erase(pending.begin());
      now = at;
      ran.clear();
      q.pop_and_run();
      ASSERT_EQ(ran.front(), seq) << "seed " << seed << " drain";
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop_and_run(), decor::common::RequireError);
  EXPECT_THROW(q.next_time(), decor::common::RequireError);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule(2.5, [&] { times.push_back(sim.now()); });
  sim.schedule(1.0, [&] { times.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, RelativeSchedulingCompounds) {
  Simulator sim;
  double second_fire = 0.0;
  sim.schedule(1.0, [&] {
    sim.schedule(2.0, [&] { second_fire = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(second_fire, 3.0);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule(2.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopBreaksRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0.5, [] {}), decor::common::RequireError);
  EXPECT_THROW(sim.schedule(-1.0, [] {}), decor::common::RequireError);
}

TEST(Simulator, DeterministicRngFromSeed) {
  Simulator a(7), b(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.rng()(), b.rng()());
}

}  // namespace
