#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace decor::common {

namespace {

// True on a worker thread or on a caller currently inside parallel_for:
// nested calls run inline instead of starting more threads.
thread_local bool tls_inside_parallel = false;

// Far above any sane request; guards against runaway explicit counts.
constexpr std::size_t kMaxWorkers = 64;

// One parallel_for call's shared state. `next` and `abort` are read
// without a lock; `first_error` is guarded by `error_mutex`.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
};

void work(Job& job) {
  for (;;) {
    // Fail fast: once a job has thrown, stop claiming new indices so the
    // call returns (and rethrows) without running the remaining jobs to
    // completion. Jobs already in flight still finish.
    if (job.abort.load(std::memory_order_relaxed)) return;
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    try {
      (*job.fn)(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.first_error) job.first_error = std::current_exception();
      }
      job.abort.store(true, std::memory_order_relaxed);
    }
  }
}

}  // namespace

std::size_t default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         std::size_t threads) {
  if (n == 0) return 0;
  if (threads == 0) threads = default_thread_count();
  // Never start more workers than there are items to claim.
  threads = std::min(threads, n);
  if (threads <= 1 || tls_inside_parallel) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return 0;
  }

  Job job;
  job.fn = &fn;
  job.n = n;
  std::vector<std::thread> workers;
  const std::size_t want = std::min(threads - 1, kMaxWorkers);
  workers.reserve(want);
  tls_inside_parallel = true;  // nested calls from fn run inline
  for (std::size_t w = 0; w < want; ++w) {
    try {
      workers.emplace_back([&job] {
        tls_inside_parallel = true;
        work(job);
      });
    } catch (const std::system_error&) {
      break;  // out of threads: the ones started, and the caller, finish
    }
  }
  work(job);  // the caller is always one of the workers
  for (auto& t : workers) t.join();
  tls_inside_parallel = false;

  if (job.first_error) std::rethrow_exception(job.first_error);
  return workers.size();
}

}  // namespace decor::common
