#include "common/parallel.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace {

using decor::common::default_thread_count;
using decor::common::parallel_for;

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(n, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, ZeroAndOneJobs) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ExplicitThreadCount) {
  std::atomic<int> sum{0};
  parallel_for(100, [&](std::size_t i) { sum += static_cast<int>(i); }, 3);
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  std::vector<std::size_t> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(
          50,
          [&](std::size_t i) {
            if (i == 13) throw std::runtime_error("job 13 broke");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, FailsFastAfterException) {
  // Regression: a thrown job must stop workers from claiming new
  // indices. Index 0 is claimed first and throws immediately; with 10000
  // remaining jobs of ~200us each, completing most of them would mean
  // the abort flag is not honored.
  std::atomic<int> completed{0};
  try {
    parallel_for(
        10000,
        [&](std::size_t i) {
          if (i == 0) throw std::logic_error("boom");
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          ++completed;
        },
        4);
    FAIL() << "should have thrown";
  } catch (const std::logic_error&) {
  }
  EXPECT_LT(completed.load(), 9000);
}

TEST(ParallelFor, FailFastStillRethrowsFirstError) {
  // The fail-fast path must preserve the contract: the first exception
  // (by claim order under abort) is the one rethrown.
  std::atomic<int> throws{0};
  try {
    parallel_for(
        1000,
        [&](std::size_t) {
          ++throws;
          throw std::runtime_error("every job throws");
        },
        4);
    FAIL() << "should have thrown";
  } catch (const std::runtime_error&) {
  }
  // At most one job per worker runs once the flag is up.
  EXPECT_LE(throws.load(), 4);
}

TEST(ParallelFor, DefaultThreadCountPositive) {
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ParallelFor, EmptyRangeEngagesNoWorkers) {
  // Regression: an empty range must neither run the body nor start any
  // worker, no matter how many threads were requested.
  int calls = 0;
  const std::size_t engaged =
      parallel_for(0, [&](std::size_t) { ++calls; }, 8);
  EXPECT_EQ(engaged, 0u);
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NeverEngagesMoreWorkersThanItems) {
  // Regression: with more threads than items, surplus workers must stay
  // idle — at most n - 1 workers join the caller.
  for (std::size_t n = 1; n <= 4; ++n) {
    std::atomic<int> calls{0};
    const std::size_t engaged =
        parallel_for(n, [&](std::size_t) { ++calls; }, 16);
    EXPECT_LE(engaged, n - 1) << "n=" << n;
    EXPECT_EQ(calls.load(), static_cast<int>(n));
  }
}

TEST(ParallelFor, InlineRunsReportZeroWorkers) {
  const std::size_t engaged =
      parallel_for(100, [](std::size_t) {}, 1);
  EXPECT_EQ(engaged, 0u);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  // A job that itself calls parallel_for (BenefitIndex::rebuild inside a
  // run_jobs job) must not start threads of its own: the nested call
  // runs inline on the worker, engaging zero extra workers.
  std::atomic<std::size_t> nested_engaged{0};
  std::atomic<int> inner_calls{0};
  parallel_for(
      4,
      [&](std::size_t) {
        const std::size_t e = parallel_for(
            50, [&](std::size_t) { ++inner_calls; }, 4);
        nested_engaged += e;
      },
      4);
  EXPECT_EQ(nested_engaged.load(), 0u);
  EXPECT_EQ(inner_calls.load(), 200);
}

TEST(ParallelFor, ManySmallCallsBackToBack) {
  // Thousands of short parallel regions in a row, each starting and
  // joining its own workers: a stress case for the tsan preset.
  std::atomic<long> total{0};
  for (int round = 0; round < 2000; ++round) {
    parallel_for(8, [&](std::size_t i) { total += static_cast<long>(i); },
                 4);
  }
  EXPECT_EQ(total.load(), 2000L * 28);
}

TEST(ParallelFor, EngagesAtMost64Workers) {
  // `--threads` is user input (a negative value casts to a huge count):
  // the request is capped, and every index still runs once.
  std::vector<std::atomic<int>> visits(200);
  const std::size_t engaged =
      parallel_for(200, [&](std::size_t i) { ++visits[i]; }, 1000);
  EXPECT_LE(engaged, 64u);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

// Threads of this process, or 0 where /proc/self/task is missing.
std::size_t thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return 0;
  return static_cast<std::size_t>(
      std::distance(it, std::filesystem::directory_iterator{}));
}

TEST(ParallelFor, LeavesNoThreadsBehind) {
  // Every worker a call starts is joined before it returns, so the
  // process's thread count is back where it was. One plain thread runs
  // first, because ThreadSanitizer starts a helper thread of its own
  // with the process's first thread.
  std::thread([] {}).join();
  const std::size_t before = thread_count();
  if (before == 0) GTEST_SKIP() << "no /proc/self/task to count threads";
  const std::size_t engaged = parallel_for(
      64, [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      },
      4);
  EXPECT_EQ(engaged, 3u);
  // An exited thread can linger in /proc for a moment; poll up to 1 s.
  std::size_t after = thread_count();
  for (int i = 0; i < 100 && after != before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = thread_count();
  }
  EXPECT_EQ(after, before);
}

TEST(ParallelFor, DeterministicResultSlots) {
  // The bench pattern: per-job slots merged after the run give the same
  // outcome regardless of scheduling.
  const std::size_t n = 200;
  std::vector<double> results(n);
  parallel_for(n, [&](std::size_t i) {
    results[i] = static_cast<double>(i) * 0.5;
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(results[i], static_cast<double>(i) * 0.5);
  }
}

}  // namespace
