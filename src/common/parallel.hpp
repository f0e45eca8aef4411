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
// Workers come from one process-wide lazily-grown pool instead of being
// spawned per call, so a short sweep is not dwarfed by thread creation.
// Nested parallel_for calls from inside a running job execute inline on
// the calling worker — the pool never deadlocks waiting on itself — and
// concurrent calls from unrelated threads fall back to inline execution
// rather than queueing.
#pragma once

#include <cstddef>
#include <functional>

namespace decor::common {

/// Worker count used when `threads == 0`: hardware concurrency, at least 1.
std::size_t default_thread_count() noexcept;

/// Invokes fn(i) for every i in [0, n), distributing indices over pool
/// worker threads (atomic work stealing). Runs inline when n <= 1, only
/// one thread is requested/available, or the call is nested inside a
/// running parallel_for job. The first exception thrown by any job is
/// rethrown on the caller's thread after all workers finish; once a job
/// throws, workers stop claiming new indices (fail fast), so not every
/// index is necessarily visited on the error path.
///
/// Returns the number of pool workers engaged alongside the caller: 0 for
/// any inline execution, and never more than n - 1 — an empty range or a
/// range smaller than the requested thread count must not wake idle
/// workers (guarded by tests/parallel_test.cpp).
std::size_t parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         std::size_t threads = 0);

}  // namespace decor::common
