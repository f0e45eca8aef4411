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

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  bool ran = false;
  auto h = q.schedule(1.0, [&] { ran = true; });
  h.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelOneOfMany) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  auto h = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  h.cancel();
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  h.cancel();
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
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

TEST(EventQueue, StaleHandleCancelsNothing) {
  // The first event runs and frees its slot; the next schedule reuses
  // that slot. The old handle still names the slot, but not the event in
  // it now, so cancelling it must leave the new event alone.
  EventQueue q;
  bool first = false;
  bool second = false;
  auto stale = q.schedule(1.0, [&] { first = true; });
  q.pop_and_run();
  auto fresh = q.schedule(2.0, [&] { second = true; });
  stale.cancel();
  EXPECT_TRUE(stale.cancelled());
  EXPECT_FALSE(fresh.cancelled());
  ASSERT_FALSE(q.empty());
  q.pop_and_run();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterRunAndTwiceIsHarmless) {
  EventQueue q;
  int ran = 0;
  auto done = q.schedule(1.0, [&] { ++ran; });
  q.pop_and_run();
  done.cancel();  // its event already ran: no-op
  EXPECT_EQ(ran, 1);

  std::vector<int> order;
  auto h = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  h.cancel();
  h.cancel();  // the second cancel finds the slot free
  q.schedule(4.0, [&] { order.push_back(4); });  // may reuse h's slot
  h.cancel();  // ... and must not cancel the event now in it
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{3, 4}));
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
  // so many share `at`), cancels of live, already-cancelled and
  // already-run events (stale handles whose slot a later event may now
  // hold), and pops — some from inside callbacks that cancel or schedule
  // in turn. The reference is a set ordered by (at, seq); every pop must
  // run exactly its smallest element.
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    decor::common::Rng rng(seed);
    EventQueue q;
    std::set<std::tuple<Time, std::uint64_t>> live;  // (at, seq)
    struct Scheduled {
      EventHandle handle;
      Time at;
      std::uint64_t seq;
    };
    std::vector<Scheduled> all;
    std::vector<std::uint64_t> ran;
    Time now = 0.0;

    // Schedules one event whose callback records its seq and sometimes
    // cancels another event and schedules one more; declared first so
    // the callbacks can call it.
    std::function<void()> schedule_one;
    const auto cancel_random = [&] {
      if (all.empty()) return;
      const auto& e = all[rng.below(all.size())];
      live.erase({e.at, e.seq});  // no-op when it ran or was cancelled
      EventHandle h = e.handle;
      h.cancel();
    };
    schedule_one = [&] {
      const Time at = now + 0.5 * static_cast<double>(rng.below(4));
      const std::uint64_t seq = q.scheduled_total();
      const bool nested = rng.bernoulli(0.2);
      EventHandle h = q.schedule(at, [&, seq, nested] {
        ran.push_back(seq);
        if (nested) {
          cancel_random();
          schedule_one();
        }
      });
      all.push_back({h, at, seq});
      live.insert({at, seq});
    };

    for (int step = 0; step < 4000; ++step) {
      const double op = rng.uniform();
      if (op < 0.45) {
        schedule_one();
      } else if (op < 0.6) {
        cancel_random();
      } else if (!live.empty()) {
        ASSERT_FALSE(q.empty());
        const auto [at, seq] = *live.begin();
        ASSERT_EQ(q.next_time(), at);
        live.erase(live.begin());
        now = at;
        ran.clear();
        EXPECT_EQ(q.pop_and_run(), at);
        ASSERT_FALSE(ran.empty());
        ASSERT_EQ(ran.front(), seq) << "seed " << seed << " step " << step;
      } else {
        ASSERT_TRUE(q.empty());
      }
    }
    while (!live.empty()) {
      const auto [at, seq] = *live.begin();
      live.erase(live.begin());
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

TEST(Simulator, CancelledHandleReportsState) {
  Simulator sim;
  auto h = sim.schedule(1.0, [] {});
  EXPECT_TRUE(h.valid());
  EXPECT_FALSE(h.cancelled());
  h.cancel();
  EXPECT_TRUE(h.cancelled());
  EXPECT_FALSE(EventHandle{}.valid());
}

}  // namespace
