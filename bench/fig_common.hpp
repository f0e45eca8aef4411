// Shared scaffolding for the figure harnesses.
//
// Every figure binary reproduces one figure of the paper's Section 4 with
// the paper's setup: a 100x100 field approximated by 2000 Halton points,
// rs = 4, 200 initially deployed random sensors, averages over 5 seeded
// trials. Each binary accepts --trials, --initial, --points and --seed to
// explore other regimes.
#pragma once

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/options.hpp"
#include "common/require.hpp"
#include "common/parallel.hpp"
#include "common/provenance.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "decor/decor.hpp"

namespace decor::bench {

/// One measurement produced by a job; merged into a SeriesTable after
/// the parallel phase so results are independent of scheduling.
struct Sample {
  double x;
  std::string series;
  double value;
};

/// Runs `fn(job) -> samples` for every job index in parallel (each job
/// owns its field and RNG), then merges into `table` in job order —
/// results (and any --json report) are byte-identical for any `threads`.
template <typename JobFn>
void run_jobs(std::size_t jobs, common::SeriesTable& table, JobFn&& fn,
              std::size_t threads = 0) {
  std::vector<std::vector<Sample>> results(jobs);
  common::parallel_for(
      jobs, [&](std::size_t i) { results[i] = fn(i); }, threads);
  for (const auto& batch : results) {
    for (const auto& s : batch) table.add(s.x, s.series, s.value);
  }
}

struct FigSetup {
  core::DecorParams base;
  std::size_t trials = 5;
  std::size_t initial_nodes = 200;
  std::uint64_t seed = 20070326;  // IPDPS 2007 :-)
  /// Random placement safety cap (the baseline's tail is unbounded).
  std::size_t random_cap = 20000;
  /// parallel_for worker count for run_jobs (0 = hardware default).
  std::size_t threads = 0;

  explicit FigSetup(const common::Options& opts) {
    trials = static_cast<std::size_t>(opts.get_int("trials", 5));
    initial_nodes =
        static_cast<std::size_t>(opts.get_int("initial", 200));
    seed = static_cast<std::uint64_t>(opts.get_int("seed", 20070326));
    base.num_points =
        static_cast<std::size_t>(opts.get_int("points", 2000));
    base.rs = opts.get_double("rs", 4.0);
    base.rc = opts.get_double("rc", 2.0 * base.rs);
    const double side = opts.get_double("side", 100.0);
    base.field = geom::make_rect(0.0, 0.0, side, side);
    threads = static_cast<std::size_t>(opts.get_int("threads", 0));
    // A --json report embeds a metrics snapshot, so the registry must be
    // collecting; --metrics turns collection on for the text output too.
    if (opts.has("json") || opts.get_bool("metrics", false)) {
      common::metrics().reset();
      common::metrics().enable(true);
    }
  }

  /// Independent RNG for (trial, experiment-tag).
  common::Rng trial_rng(std::size_t trial, std::uint64_t tag) const {
    common::Rng root(seed);
    return root.split(common::mix64(trial * 1000003ULL + tag));
  }

  /// Fresh field with the initial random deployment for one trial.
  core::Field make_field(const core::DecorParams& params, std::size_t trial,
                         std::uint64_t tag) const {
    common::Rng rng = trial_rng(trial, tag);
    core::Field field(params, rng);
    field.deploy_random(initial_nodes, rng);
    return field;
  }

  core::EngineLimits limits_for(core::Scheme scheme) const {
    core::EngineLimits limits;
    if (scheme == core::Scheme::kRandom) limits.max_new_nodes = random_cap;
    return limits;
  }
};

inline void print_header(const std::string& figure,
                         const std::string& caption, const FigSetup& s) {
  std::cout << "=== " << figure << ": " << caption << " ===\n"
            << "setup: field " << s.base.field.width() << "x"
            << s.base.field.height() << ", " << s.base.num_points
            << " Halton points, rs=" << s.base.rs << ", "
            << s.initial_nodes << " initial nodes, " << s.trials
            << " trials, seed=" << s.seed << "\n\n";
}

/// Resolves --json into an output path: absent -> "", bare or empty
/// --json -> "<figure>.json", --json=path -> path.
inline std::string json_path(const common::Options& opts,
                             const std::string& figure) {
  if (!opts.has("json")) return {};
  return opts.get_path("json", figure + ".json");
}

/// A SeriesTable to embed in the JSON report under `name`.
struct NamedTable {
  std::string name;
  const common::SeriesTable* table;
};

/// Writes the machine-readable report for one figure run:
///   {"schema":"decor.bench.v1","figure":...,"meta":{...},"setup":{...},
///    "tables":{name: <series-table v1>...},"metrics":{...}}
/// The whole document is rendered with the round-trippable formatter and
/// integer-only metrics, so a fixed seed yields byte-identical files
/// regardless of --threads. Returns false (with a note on stderr) only
/// if the file cannot be written.
inline bool write_json_report(const std::string& path,
                              const std::string& figure, const FigSetup& s,
                              std::initializer_list<NamedTable> tables) {
  if (path.empty()) return false;
  std::ostringstream out;
  common::JsonWriter w(out);
  w.begin_object();
  w.key("schema");
  w.value("decor.bench.v1");
  w.key("figure");
  w.value(figure);
  w.key("meta");
  common::write_provenance(w);
  w.key("setup");
  w.begin_object();
  w.key("trials");
  w.value(static_cast<std::uint64_t>(s.trials));
  w.key("initial_nodes");
  w.value(static_cast<std::uint64_t>(s.initial_nodes));
  w.key("seed");
  w.value(static_cast<std::uint64_t>(s.seed));
  w.key("points");
  w.value(static_cast<std::uint64_t>(s.base.num_points));
  w.key("rs");
  w.value(s.base.rs);
  w.key("rc");
  w.value(s.base.rc);
  w.key("field_width");
  w.value(s.base.field.width());
  w.key("field_height");
  w.value(s.base.field.height());
  w.end_object();
  w.key("tables");
  w.begin_object();
  for (const auto& t : tables) {
    w.key(t.name);
    t.table->write_json(w);
  }
  w.end_object();
  w.key("metrics");
  common::metrics().write_json(w);
  w.end_object();

  // Fail fast rather than return false: a bench binary that measured for
  // minutes and then silently dropped its document is the worst outcome,
  // and callers ignore this bool in practice.
  std::ofstream f(path);
  DECOR_REQUIRE_MSG(f.is_open(), "cannot write bench report: " + path);
  f << out.str() << "\n";
  std::cout << "json report: " << path << "\n";
  return true;
}

}  // namespace decor::bench
