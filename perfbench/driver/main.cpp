// perfbench driver: runs one workload of the protocol-simulation benchmark
// and prints one JSON document of raw samples on stdout.
//
//   decor_perfbench --workload=NAME --seed=N --seconds=S --tmp=DIR
//                   [--mode=run|trace|sinks] [--toy]
//
// run    untraced cases until S seconds have passed (at least one full
//        pass over the workload's sub-seeds plus one repeat of the first)
// trace  the first case untraced, then traced, then the per-layer probes
// sinks  the first case with each run-directory sink armed alone, three
//        rounds
//
// perfbench/run.py turns the samples into the benchmark's metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/options.hpp"
#include "common/provenance.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// JSON text of a number with every digit (null when not finite).
std::string number(double v) {
  return std::isfinite(v) ? decor::common::format_double(v) : "null";
}

/// Chained builder of one JSON object, for the driver's flat records.
class Obj {
 public:
  Obj& num(const std::string& k, double v) { return raw(k, number(v)); }
  Obj& num(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Obj& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Obj& str(const std::string& k, const std::string& v) {
    std::string quoted = "\"";
    quoted += decor::common::json_escape(v);
    quoted += '"';
    return raw(k, quoted);
  }
  Obj& raw(const std::string& k, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += k;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + items[i];
  }
  return out + "]";
}

std::vector<std::string> numbers(const std::vector<double>& v) {
  std::vector<std::string> out;
  for (double x : v) out.push_back(number(x));
  return out;
}

std::vector<std::string> numbers(const std::vector<std::uint64_t>& v) {
  std::vector<std::string> out;
  for (auto x : v) out.push_back(std::to_string(x));
  return out;
}

std::string case_json(const CaseResult& c) {
  std::vector<std::string> phases;
  for (const auto& p : c.phases) {
    phases.push_back(Obj()
                         .str("kind", p.kind)
                         .boolean("covered", p.covered)
                         .num("duration_s", p.duration_s)
                         .boolean("proof_ok", p.proof_ok)
                         .str("proof_detail", p.proof_detail)
                         .done());
  }
  std::uint64_t discs = 0;
  std::uint64_t polls = 0;
  std::uint64_t choices = 0;
  std::uint64_t seeds = 0;
  for (const auto& t : c.trails) {
    discs += t.initial.size() + t.placements.size() + t.killed.size();
    polls += t.polls;
    choices += t.audit_benefit;
    seeds += t.audit_seed;
  }
  return Obj()
      .num("subseed", c.subseed)
      .boolean("cut", c.cut)
      .num("setup_s", c.setup_s)
      .num("wall_s", c.wall_s)
      .num("probe_s", c.probe_s)
      .num("peak_rss_mb", c.peak_rss_mb)
      .raw("probes", array(numbers(c.probes)))
      .num("events", c.events)
      .num("sim_s", c.sim_s)
      .num("tx", c.tx)
      .num("rx", c.rx)
      .num("dropped", c.dropped)
      .num("collisions", c.collisions)
      .num("placed", c.placed)
      .num("seeded", c.seeded + seeds)
      .num("originated", c.originated)
      .num("delivered", c.delivered)
      .num("bytes", c.bytes)
      .num("end_time_s", c.end_time_s)
      .num("arq_sent", c.arq.sent)
      .num("arq_retx", c.arq.retx)
      .num("arq_acks", c.arq.acks_sent)
      .num("arq_gave_up", c.arq.gave_up)
      .num("arq_dup_drops", c.arq.dup_drops)
      .num("arq_queued", c.arq.queued)
      .num("dp_forwarded", c.data.readings_forwarded)
      .num("dp_no_route_drops", c.data.no_route_drops)
      .num("dp_ttl_drops", c.data.ttl_drops)
      .num("dp_duplicates", c.data.duplicates_at_sink)
      .num("discs", discs)
      .num("polls", polls)
      .num("choices", choices)
      .raw("phases", array(phases))
      .done();
}

/// Starts a fresh peak-RSS window: hands freed heap back to the system
/// and resets the kernel's resident high-water mark.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Resident high-water mark (VmHWM) since the last reset, in MiB; 0 when
/// /proc does not report it.
double window_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string provenance() {
  return Obj()
      .str("git_sha", decor::common::build_git_sha())
      .str("build_type", decor::common::build_type())
      .str("compiler", decor::common::build_compiler())
      .num("nproc", static_cast<std::uint64_t>(
                        std::thread::hardware_concurrency()))
      .done();
}

/// The sub-seed of the first case a run seeded with `seed` measures.
std::uint64_t first_seed(Workload w, std::uint64_t seed) {
  w.cases = 1;
  return run_seeds(w, seed, nullptr).front();
}

void clear_dir(const std::string& dir) {
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    std::filesystem::remove_all(e.path(), ec);
  }
}

int mode_run(const Workload& w, std::uint64_t seed, double seconds,
             const std::string& tmp) {
  const SinkSet sinks = w.sinks ? SinkSet::all() : SinkSet{};
  std::vector<std::uint64_t> skipped;
  const auto seeds = run_seeds(w, seed, &skipped);
  const auto start = Clock::now();
  std::vector<std::string> cases;
  std::vector<std::string> setups;
  // One full pass over the sub-seeds, one repeat of the first (the
  // determinism witness), then repeats until the time is up.
  for (std::size_t i = 0;
       i < seeds.size() + 1 || seconds_since(start) < seconds; ++i) {
    reset_peak_rss();
    auto c = run_case(w, seeds[i % seeds.size()], sinks, tmp, {});
    c.peak_rss_mb = window_peak_rss_mb();
    clear_dir(tmp);
    cases.push_back(case_json(c));
    setups.push_back(Obj().num("s", c.setup_s).done());
  }
  // Set-up is short next to a case (and noisy where it opens sink
  // files): repeat it alone so its median rests on enough samples.
  for (std::size_t r = 0; r < 40; ++r) {
    const double s = setup_only(w, seeds[r % seeds.size()], sinks, tmp);
    clear_dir(tmp);
    setups.push_back(Obj().num("s", s).done());
  }
  std::cout << Obj()
                   .str("workload", w.name)
                   .str("mode", "run")
                   .num("seed", seed)
                   .num("distinct_cases",
                        static_cast<std::uint64_t>(seeds.size()))
                   .raw("skipped_seeds", array(numbers(skipped)))
                   .raw("cases", array(cases))
                   .raw("setups", array(setups))
                   .num("peak_rss_mb", peak_rss_mb())
                   .raw("provenance", provenance())
                   .done()
            << '\n';
  return 0;
}

int mode_trace(const Workload& w, std::uint64_t seed, double seconds,
               const std::string& tmp) {
  const SinkSet sinks = w.sinks ? SinkSet::all() : SinkSet{};
  const std::uint64_t first = first_seed(w, seed);
  const auto start = Clock::now();
  std::vector<std::string> untraced;
  for (int r = 0; r < 3; ++r) {
    untraced.push_back(case_json(run_case(w, first, sinks, tmp, {})));
    clear_dir(tmp);
    if (r >= 1 && seconds_since(start) > seconds / 3.0) break;
  }

  TapSink tap;
  const auto traced = run_case(w, first, sinks, tmp, {true, &tap});
  clear_dir(tmp);

  // Probes run at the scale and shape of the traced run's first runner.
  const RunTrail& trail = traced.trails.front();
  const bool grid = w.grid;
  // The grid runner's protocol range spans two cell diagonals.
  const double range =
      grid ? std::max(w.params.rc,
                      2.0 * w.params.cell_side * std::numbers::sqrt2)
           : w.params.rc;
  const std::uint64_t radio_ops =
      traced.rx + traced.dropped + traced.collisions;
  const double dispatch = dispatch_ns(traced.events, trail.final_alive.size());
  const double deliver =
      deliver_ns(w, range, trail.final_alive, radio_ops, dispatch);
  const double observe = observe_ns(w, range, trail.final_alive,
                                    tap.liveness_rx, deliver, dispatch);
  const double arq =
      arq_exchange_ns(w, traced.arq.sent + traced.arq.retx, dispatch);
  const auto cov = coverage_cost(w, first, trail, !grid);
  PublishCost pub;
  if (w.sinks) pub = publish_cost(tap, tmp);
  clear_dir(tmp);
  const auto setup = setup_cost(w, first);

  using decor::common::TelemetryStream;
  auto stream = [&](TelemetryStream s) {
    return w.sinks ? tap.per_stream[static_cast<std::size_t>(s)] : 0;
  };
  const std::uint64_t trace_events = stream(TelemetryStream::kTrace);
  const std::uint64_t all_events = w.sinks ? tap.events : 0;
  const auto telemetry =
      Obj()
          .num("events", all_events)
          .num("bytes", w.sinks ? tap.bytes : 0)
          .num("jsonl_events", all_events)
          .num("dtlm_events", all_events - trace_events)
          .num("otlp_events", trace_events +
                                  stream(TelemetryStream::kTimeline) +
                                  stream(TelemetryStream::kMetrics))
          .num("record_events", trace_events)
          .num("jsonl_ns", pub.jsonl_ns)
          .num("dtlm_ns", pub.dtlm_ns)
          .num("otlp_ns", pub.otlp_ns)
          .num("record_ns", pub.record_ns)
          .done();
  const auto probes = Obj()
                          .num("dispatch_ns", dispatch)
                          .num("deliver_ns", deliver)
                          .num("observe_ns", observe)
                          .num("arq_ns", arq)
                          .num("disc_ns", cov.disc_ns)
                          .num("poll_ns", cov.poll_ns)
                          .num("choose_ns", cov.choose_ns)
                          .num("points_s", setup.points_s)
                          .num("index_s", setup.index_s)
                          .done();
  std::cout << Obj()
                   .str("workload", w.name)
                   .str("mode", "trace")
                   .num("seed", seed)
                   .raw("untraced", array(untraced))
                   .raw("traced", case_json(traced))
                   .num("liveness_observes", tap.liveness_rx)
                   .raw("telemetry", telemetry)
                   .raw("probes", probes)
                   .num("peak_rss_mb", peak_rss_mb())
                   .raw("provenance", provenance())
                   .done()
            << '\n';
  return 0;
}

int mode_sinks(const Workload& w, std::uint64_t seed,
               const std::string& tmp) {
  struct Row {
    const char* name;
    SinkSet set;
  };
  std::vector<Row> rows{{"none", {}}};
  rows.push_back({"trace_jsonl", {}});
  rows.back().set.trace_jsonl = true;
  rows.push_back({"timeline", {}});
  rows.back().set.timeline = true;
  rows.push_back({"field", {}});
  rows.back().set.field = true;
  rows.push_back({"audit", {}});
  rows.back().set.audit = true;
  rows.push_back({"metrics", {}});
  rows.back().set.metrics = true;
  rows.push_back({"dtlm", {}});
  rows.back().set.dtlm = true;
  rows.push_back({"otlp", {}});
  rows.back().set.otlp = true;
  rows.push_back({"all", SinkSet::all()});
  const std::uint64_t first = first_seed(w, seed);
  std::vector<std::string> out;
  // Rounds over all rows, so a slow spell of the host hits every row.
  for (int round = 0; round < 3; ++round) {
    for (const auto& row : rows) {
      const auto c = run_case(w, first, row.set, tmp, {});
      clear_dir(tmp);
      out.push_back(Obj()
                        .str("sink", row.name)
                        .raw("case", case_json(c))
                        .done());
    }
  }
  std::cout << Obj()
                   .str("workload", w.name)
                   .str("mode", "sinks")
                   .num("seed", seed)
                   .raw("rows", array(out))
                   .raw("provenance", provenance())
                   .done()
            << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const decor::common::Options opts(argc, argv);
  Workload w;
  if (!find_workload(opts.get("workload", ""), opts.get_bool("toy", false),
                     &w)) {
    std::cerr << "unknown workload '" << opts.get("workload", "") << "'\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const double seconds = opts.get_double("seconds", 10.0);
  const std::string tmp = opts.get("tmp", "");
  if (tmp.empty() || !std::filesystem::is_directory(tmp)) {
    std::cerr << "--tmp must name an existing directory\n";
    return 2;
  }
  const std::string mode = opts.get("mode", "run");
  try {
    if (mode == "run") return mode_run(w, seed, seconds, tmp);
    if (mode == "trace") return mode_trace(w, seed, seconds, tmp);
    if (mode == "sinks") return mode_sinks(w, seed, tmp);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "unknown mode '" << mode << "'\n";
  return 2;
}
