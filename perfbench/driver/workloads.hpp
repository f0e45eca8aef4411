// The four benchmark workloads and the runner for one seeded case.
//
// A case is one seeded protocol run through the public harness API
// (construct, run(), schedule_random_kills, world()). Every workload is a
// fixed configuration; only the initial deployment and the harness seed
// come from the case's sub-seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "decor/params.hpp"
#include "geometry/point.hpp"
#include "net/data_plane.hpp"
#include "net/reliable_link.hpp"
#include "sim/radio.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  std::string name;
  decor::core::DecorParams params;
  std::size_t initial = 0;
  bool grid = false;     // run the grid runner
  bool voronoi = false;  // run the Voronoi runner (after grid, if both)
  /// Simulated-time cap of every run; a run that has not reached full
  /// k-coverage by then counts as not converged.
  double run_time = 300.0;
  double linger = 0.0;
  /// Fraction of alive nodes killed at the deploy convergence instant,
  /// followed by a restore phase (0 = deploy phase only).
  double kill_fraction = 0.0;
  /// Radio bitrate (0 = no airtime, no collisions).
  double bitrate_bps = 0.0;
  /// Gilbert–Elliott channel loss and mean burst length (0 = lossless).
  double ge_loss = 0.0;
  double ge_burst = 0.0;
  decor::net::ReliableLinkParams arq;
  decor::net::DataPlaneParams data_plane;
  /// Arm every run-directory sink (trace, timeline, field, audit,
  /// metrics, DTLM, OTLP) into the case's temporary directory.
  bool sinks = false;
  /// Distinct sub-seeds whose exact metrics a run reports.
  std::size_t cases = 1;
  /// Simulator events one runner may execute before the case is cut
  /// short (about twice the largest case seen in tuning). Rare
  /// dataplane_lossy sub-seeds fall into a collision storm that would run
  /// for minutes; a cut case counts as not converged.
  std::uint64_t event_budget = 5000000;
};

/// Looks a workload up by name; `toy` shrinks it to a seconds-long smoke
/// size. Returns false for an unknown name.
bool find_workload(const std::string& name, bool toy, Workload* out);

/// Seconds one short host-speed probe takes: hash map, heap and
/// std::function traffic like the simulator's, using none of the
/// repository's code. Its slowdown against its time on an idle host is
/// how much slower the host runs right now.
double host_probe_s();

/// Radio parameters of `w` with a fresh channel model: the
/// Gilbert–Elliott chain carries state, so every World needs its own.
decor::sim::RadioParams fresh_radio(const Workload& w);

/// The sub-seed of case `i` of a run seeded with `seed`.
std::uint64_t case_seed(std::uint64_t seed, std::size_t i);

/// The `w.cases` sub-seeds a run seeded with `seed` measures. A workload
/// with sinks keeps only sub-seeds whose unobserved run converges, so it
/// measures the sinks on equal work instead of a stalled seed writing
/// sinks until its horizon; `skipped` receives the ones passed over.
std::vector<std::uint64_t> run_seeds(const Workload& w, std::uint64_t seed,
                                     std::vector<std::uint64_t>* skipped);

/// Which sinks to arm (grid_observed arms all; the sink-overhead table
/// arms one at a time).
struct SinkSet {
  bool trace_jsonl = false;
  bool timeline = false;
  bool field = false;
  bool audit = false;
  bool metrics = false;
  bool dtlm = false;
  bool otlp = false;

  static SinkSet all() { return {true, true, true, true, true, true, true}; }
};

/// Extra instrumentation of a traced rerun.
struct TraceOptions {
  bool on = false;
  /// Sink attached to the harness bus (counts and captures lines).
  decor::common::TelemetrySink* tap = nullptr;
};

struct Phase {
  std::string kind;  // "deploy" or "restore"
  bool covered = false;
  /// Simulated seconds from the phase start to full k-coverage (the
  /// phase's cap when it did not converge).
  double duration_s = 0.0;
  /// Independent coverage re-proof at the end of the phase.
  bool proof_ok = false;
  std::string proof_detail;
};

/// What a run leaves behind for the per-layer replays.
struct RunTrail {
  std::vector<decor::geom::Point2> initial;
  std::vector<decor::geom::Point2> placements;  // in placement order
  std::size_t placements_before_kill = 0;
  std::vector<decor::geom::Point2> killed;
  std::vector<decor::geom::Point2> final_alive;
  std::uint64_t polls = 0;
  std::uint64_t audit_benefit = 0;
  std::uint64_t audit_seed = 0;
};

struct CaseResult {
  std::uint64_t subseed = 0;
  /// A runner exceeded Workload::event_budget.
  bool cut = false;
  double setup_s = 0.0;
  /// Wall seconds of the run() calls, host-speed probes included.
  double wall_s = 0.0;
  /// Durations of the host-speed probes taken inside the case (see
  /// host_probe_s) and their sum.
  std::vector<double> probes;
  double probe_s = 0.0;
  /// Peak resident memory while the case ran, in MiB (filled by the
  /// caller that opened the measurement window; 0 when not measured).
  double peak_rss_mb = 0.0;
  std::uint64_t events = 0;
  double sim_s = 0.0;
  std::uint64_t tx = 0, rx = 0, dropped = 0, collisions = 0;
  std::uint64_t placed = 0, seeded = 0;
  std::uint64_t originated = 0, delivered = 0, bytes = 0;
  double end_time_s = 0.0;
  decor::net::ArqStats arq;
  decor::net::DataPlaneStats data;
  std::vector<Phase> phases;
  /// One trail per runner (grid first), for the traced pass.
  std::vector<RunTrail> trails;
};

/// Runs one case of `w` with sub-seed `subseed`. `tmp_dir` receives the
/// sink files when any are armed.
CaseResult run_case(const Workload& w, std::uint64_t subseed,
                    const SinkSet& sinks, const std::string& tmp_dir,
                    const TraceOptions& trace);

/// Builds the harness (point set, index, shared tables, sinks) of `w`
/// plus the initial deployment without running it; returns the seconds
/// taken.
double setup_only(const Workload& w, std::uint64_t subseed,
                  const SinkSet& sinks, const std::string& tmp_dir);

}  // namespace perfbench
