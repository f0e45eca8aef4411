// Minimal data-parallel helper for the benchmark harnesses and the
// coverage::BenefitIndex cold-start rebuild.
//
// Experiment sweeps are embarrassingly parallel over (configuration,
// trial) jobs: every job owns an independent seeded RNG and field, so
// running them on worker threads changes nothing about the results.
// Determinism is preserved by collecting each job's output into its own
// slot and merging sequentially afterwards — never by sharing mutable
// state across jobs. BenefitIndex::rebuild relies on this contract to be
// bit-identical for any thread count (guarded by a differential test in
// tests/benefit_index_test.cpp), so callers must not weaken it to
// slot-free accumulation.
//
// Each parallel call starts its worker threads and joins them before it
// returns, so no thread outlives the call. That costs about 20 µs a call
// with four threads; the programs here make at most a few parallel calls
// a process (a bench's job sweep, a large field's cold-start rebuild),
// each far longer.
// Nested parallel_for calls from inside a running job execute inline on
// the calling worker, so a sweep's jobs never multiply threads.
#pragma once

#include <cstddef>
#include <functional>

namespace decor::common {

/// Worker count used when `threads == 0`: hardware concurrency, at least 1.
std::size_t default_thread_count() noexcept;

/// Invokes fn(i) for every i in [0, n), distributing indices over worker
/// threads (atomic index claiming). Runs inline when n <= 1, only
/// one thread is requested/available, or the call is nested inside a
/// running parallel_for job. The first exception thrown by any job is
/// rethrown on the caller's thread after all workers finish; once a job
/// throws, workers stop claiming new indices (fail fast), so not every
/// index is necessarily visited on the error path.
///
/// Returns the number of worker threads started alongside the caller: 0
/// for any inline execution, never more than n - 1 (an empty range or a
/// range smaller than the requested thread count starts no idle worker)
/// and never more than 64, whatever `threads` asks for (guarded by
/// tests/parallel_test.cpp).
std::size_t parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         std::size_t threads = 0);

}  // namespace decor::common
