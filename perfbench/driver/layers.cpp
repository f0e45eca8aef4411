#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numbers>
#include <utility>

#include "common/otlp.hpp"
#include "common/rng.hpp"
#include "coverage/benefit_index.hpp"
#include "coverage/coverage_map.hpp"
#include "decor/point_field.hpp"
#include "decor/sim_runner.hpp"
#include "net/messages.hpp"
#include "net/reliable_link.hpp"
#include "net/sensor_node.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"

namespace perfbench {

using namespace decor;

namespace {

/// Written with probe results so the compiler keeps the probed calls.
volatile std::uint64_t g_observable = 0;

/// A node that only transmits when told to and ignores what it hears.
class Inert final : public sim::NodeProcess {
 public:
  using NodeProcess::broadcast;
};

/// Self-rescheduling timer; the padding gives it the capture size of the
/// radio's delivery closures.
struct Tick {
  sim::Simulator* sim;
  std::uint64_t* left;
  std::uint64_t salt;
  std::array<std::uint64_t, 5> pad{};

  void operator()() const {
    if (*left == 0) return;
    --*left;
    const auto step = (salt * 2654435761ULL + *left) % 1000 + 1;
    sim->schedule(1e-3 * static_cast<double>(step), *this);
  }
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t attempts(sim::Radio& r) {
  return r.total_rx() + r.total_dropped() + r.total_collisions();
}

std::vector<geom::Point2> point_set(const Workload& w, std::uint64_t subseed) {
  // The harnesses draw their point set from this stream (Halton ignores
  // it; random point kinds would not).
  common::Rng point_rng(subseed ^ 0x5eedbeefULL);
  return core::make_points(w.params, point_rng);
}

}  // namespace

double dispatch_ns(std::uint64_t events, std::size_t chains) {
  std::uint64_t left = std::clamp<std::uint64_t>(events, 100000, 1000000);
  sim::Simulator s;
  for (std::size_t c = 0; c < std::max<std::size_t>(chains, 1); ++c) {
    s.schedule(0.0, Tick{&s, &left, c});
  }
  const auto t0 = Clock::now();
  s.run();
  return seconds_since(t0) * 1e9 /
         static_cast<double>(std::max<std::uint64_t>(s.events_executed(), 1));
}

double deliver_ns(const Workload& w, double range,
                  const std::vector<geom::Point2>& positions,
                  std::uint64_t target, double dispatch) {
  sim::World world(w.params.field, fresh_radio(w), 7, range);
  std::vector<Inert*> nodes;
  for (const auto& p : positions) {
    auto proc = std::make_unique<Inert>();
    nodes.push_back(proc.get());
    world.spawn(p, std::move(proc));
  }
  world.sim().run();
  target = std::clamp<std::uint64_t>(target, 20000, 400000);
  const std::uint64_t a0 = attempts(world.radio());
  const std::uint64_t e0 = world.sim().events_executed();
  const auto t0 = Clock::now();
  const double n = static_cast<double>(nodes.size());
  // Rounds of one broadcast per node spread over a simulated second, so
  // collision bookkeeping sees realistic overlap on finite-bitrate radios.
  while (attempts(world.radio()) - a0 < target && seconds_since(t0) < 1.0) {
    const double base = world.sim().now() + 1.0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      Inert* node = nodes[i];
      world.sim().schedule_at(
          base + (static_cast<double>(i) + 0.5) / n, [node, range] {
            node->broadcast(sim::Message::make(node->id(), net::kHello, 0,
                                               net::wire_size(net::kHello)),
                            range);
          });
    }
    world.sim().run();
  }
  const double t = seconds_since(t0) * 1e9;
  const auto da = attempts(world.radio()) - a0;
  const auto de = world.sim().events_executed() - e0;
  if (da == 0) return 0.0;
  return std::max(0.0, (t - static_cast<double>(de) * dispatch) /
                           static_cast<double>(da));
}

double observe_ns(const Workload& w, double range,
                  const std::vector<geom::Point2>& positions,
                  std::uint64_t target, double deliver, double dispatch) {
  sim::World world(w.params.field, fresh_radio(w), 11, range);
  net::SensorNodeParams params;
  params.rc = range;
  params.enable_arq = false;  // only HELLO/heartbeat traffic
  for (const auto& p : positions) {
    world.spawn(p, std::make_unique<net::SensorNode>(params));
  }
  world.sim().run_until(3.0);  // discovery settles
  target = std::clamp<std::uint64_t>(target, 20000, 400000);
  auto& radio = world.radio();
  const std::uint64_t r0 = radio.total_rx();
  const std::uint64_t a0 = attempts(radio);
  const std::uint64_t e0 = world.sim().events_executed();
  const auto t0 = Clock::now();
  while (radio.total_rx() - r0 < target && seconds_since(t0) < 1.0) {
    world.sim().run_until(world.sim().now() + 1.0);
  }
  const double t = seconds_since(t0) * 1e9;
  const auto dr = radio.total_rx() - r0;
  if (dr == 0) return 0.0;
  const double rest =
      t - static_cast<double>(attempts(radio) - a0) * deliver -
      static_cast<double>(world.sim().events_executed() - e0) * dispatch;
  return std::max(0.0, rest / static_cast<double>(dr));
}

double arq_exchange_ns(const Workload& w, std::uint64_t target,
                       double dispatch) {
  sim::World world(geom::make_rect(0, 0, 10, 10), sim::RadioParams{}, 13,
                   10.0);
  auto pa = std::make_unique<Inert>();
  auto pb = std::make_unique<Inert>();
  Inert* a = pa.get();
  Inert* b = pb.get();
  world.spawn({1.0, 1.0}, std::move(pa));
  world.spawn({2.0, 2.0}, std::move(pb));
  world.sim().run();
  net::ReliableLink la(*a, w.arq);
  net::ReliableLink lb(*b, w.arq);
  std::vector<sim::Message> to_a;
  std::vector<sim::Message> to_b;
  // Frames are handed straight to the peer link: no radio, no loss.
  la.start([&](std::uint32_t, const sim::Message& m) {
             to_b.push_back(m);
             return true;
           },
           [](const sim::Message&) {}, [](std::uint32_t) {});
  lb.start([&](std::uint32_t, const sim::Message& m) {
             to_a.push_back(m);
             return true;
           },
           [](const sim::Message&) {}, [](std::uint32_t) {});
  const std::uint64_t n = std::clamp<std::uint64_t>(target, 20000, 200000);
  const std::uint64_t e0 = world.sim().events_executed();
  const auto t0 = Clock::now();
  std::vector<sim::Message> batch;
  for (std::uint64_t i = 0; i < n; ++i) {
    la.send(b->id(), sim::Message::make(a->id(), net::kPlacement, i,
                                        net::wire_size(net::kPlacement)));
    while (!to_b.empty() || !to_a.empty()) {
      batch.swap(to_b);
      for (const auto& m : batch) (void)lb.on_frame(m);
      batch.clear();
      batch.swap(to_a);
      for (const auto& m : batch) (void)la.on_frame(m);
      batch.clear();
    }
    // Retransmission timers of acknowledged frames expire as no-ops.
    if (i % 512 == 511) world.sim().run_until(world.sim().now() + 5.0);
  }
  world.sim().run_until(world.sim().now() + 5.0);
  const double t = seconds_since(t0) * 1e9;
  const auto de = world.sim().events_executed() - e0;
  return std::max(0.0, (t - static_cast<double>(de) * dispatch) /
                           static_cast<double>(n));
}

CoverageCost coverage_cost(const Workload& w, std::uint64_t subseed,
                           const RunTrail& trail, bool voronoi_poll) {
  const auto points = point_set(w, subseed);
  struct Op {
    geom::Point2 pos;
    bool add;
  };
  std::vector<Op> ops;
  for (const auto& p : trail.initial) ops.push_back({p, true});
  for (std::size_t i = 0; i < trail.placements.size(); ++i) {
    if (i == trail.placements_before_kill) {
      for (const auto& p : trail.killed) ops.push_back({p, false});
    }
    ops.push_back({trail.placements[i], true});
  }
  if (trail.placements.size() <= trail.placements_before_kill) {
    for (const auto& p : trail.killed) ops.push_back({p, false});
  }
  const std::uint32_t k = w.params.k;
  const std::size_t polls = std::max<std::uint64_t>(trail.polls, 1);
  const std::size_t every = std::max<std::size_t>(ops.size() / polls, 1);

  CoverageCost cost;
  double disc_t = 0.0;
  double poll_t = 0.0;
  std::uint64_t disc_n = 0;
  std::uint64_t poll_n = 0;
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  do {
    coverage::CoverageMap map(w.params.field, points, w.params.rs);
    for (std::size_t i = 0; i < ops.size(); i += every) {
      const std::size_t end = std::min(ops.size(), i + every);
      auto t0 = Clock::now();
      for (std::size_t j = i; j < end; ++j) {
        if (ops[j].add) map.add_disc(ops[j].pos);
        else map.remove_disc(ops[j].pos);
      }
      disc_t += seconds_since(t0);
      disc_n += end - i;
      // One harness poll: fully_covered, plus num_covered on the
      // Voronoi runner's stall check while not yet covered.
      t0 = Clock::now();
      for (int r = 0; r < 4; ++r) {
        const bool full = map.fully_covered(k);
        sink += full ? 1 : 0;
        if (voronoi_poll && !full) sink += map.num_covered(k);
      }
      poll_t += seconds_since(t0);
      poll_n += 4;
    }
  } while (seconds_since(start) < 0.2);
  cost.disc_ns = disc_n > 0 ? disc_t * 1e9 / static_cast<double>(disc_n) : 0.0;
  cost.poll_ns = poll_n > 0 ? poll_t * 1e9 / static_cast<double>(poll_n) : 0.0;

  // choose_believed over cell-sized candidate sets around the initial
  // nodes, with the initial deployment's counts as the belief.
  coverage::CoverageMap map(w.params.field, points, w.params.rs);
  for (const auto& p : trail.initial) map.add_disc(p);
  const double area = w.params.field.width() * w.params.field.height();
  const double radius =
      w.voronoi && !w.grid
          ? std::sqrt(area / (std::numbers::pi *
                              static_cast<double>(std::max<std::size_t>(
                                  trail.initial.size(), 1))))
          : w.params.cell_side / 2.0;
  std::vector<std::vector<std::uint32_t>> sets;
  for (std::size_t i = 0; i < trail.initial.size() && i < 256; ++i) {
    std::vector<std::uint32_t> c;
    map.index().for_each_in_disc(
        trail.initial[i], radius,
        [&](std::size_t pid) { c.push_back(static_cast<std::uint32_t>(pid)); });
    sets.push_back(std::move(c));
  }
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  while (!sets.empty() && (calls < 20000 || seconds_since(t0) < 0.05)) {
    for (const auto& c : sets) {
      const auto choice = coverage::BenefitIndex::choose_believed(
          map.index(), w.params.rs, k, c,
          [&](std::size_t pid) -> std::optional<std::uint32_t> {
            return map.kp(pid);
          });
      sink += choice ? choice->scanned : 0;
      ++calls;
    }
  }
  cost.choose_ns =
      calls > 0 ? seconds_since(t0) * 1e9 / static_cast<double>(calls) : 0.0;
  g_observable = sink;
  return cost;
}

void TapSink::on_event(const common::TelemetryEvent& e) {
  ++events;
  bytes += e.line.size() + 1;
  const auto s = static_cast<std::size_t>(e.stream);
  ++per_stream[s];
  if (e.stream == common::TelemetryStream::kTrace &&
      e.line.find("\"kind\":\"rx\"") != std::string_view::npos &&
      (e.line.find("\"detail\":\"kind=1 ") != std::string_view::npos ||
       e.line.find("\"detail\":\"kind=2 ") != std::string_view::npos)) {
    ++liveness_rx;
  }
  if (kept_per[s] < kKeep) {
    ++kept_per[s];
    kept.push_back({e.stream, e.header, std::string(e.line)});
  }
}

PublishCost publish_cost(const TapSink& tap, const std::string& tmp_dir) {
  using common::TelemetryStream;
  PublishCost cost;
  // Publishes the kept lines a sink wants through a fresh bus; returns
  // ns per delivered event, flush included.
  auto replay = [&](std::unique_ptr<common::TelemetrySink> sink) {
    common::TelemetryBus bus;
    const auto* raw = sink.get();
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    bus.add_sink(std::move(sink));
    for (const auto& l : tap.kept) {
      if (!raw->wants(l.stream)) continue;
      bus.publish(l.stream, l.text, l.header);
      ++n;
    }
    bus.flush();
    const double t = seconds_since(t0);
    return n > 0 ? t * 1e9 / static_cast<double>(n) : 0.0;
  };
  {
    // One file per stream, as the run directory holds them.
    common::TelemetryBus bus;
    for (std::size_t s = 0; s < common::kNumTelemetryStreams; ++s) {
      const auto stream = static_cast<TelemetryStream>(s);
      bus.add_sink(std::make_unique<common::JsonlFileSink>(
          tmp_dir + "/replay." + common::telemetry_stream_name(stream) +
              ".jsonl",
          stream));
    }
    const auto t0 = Clock::now();
    for (const auto& l : tap.kept) bus.publish(l.stream, l.text, l.header);
    bus.flush();
    cost.jsonl_ns = tap.kept.empty() ? 0.0
                                     : seconds_since(t0) * 1e9 /
                                           static_cast<double>(tap.kept.size());
  }
  cost.dtlm_ns = replay(
      std::make_unique<common::FrameStreamSink>(tmp_dir + "/replay.dtlm"));
  auto otlp = std::make_unique<common::OtlpSink>(tmp_dir + "/replay.otlp.json");
  otlp->set_span_namer([](std::string_view kind, std::string_view detail) {
    return core::otlp_span_name(kind, detail);
  });
  cost.otlp_ns = replay(std::move(otlp));

  // Serializing one trace record onto a bus that has a trace sink.
  class Discard final : public common::TelemetrySink {
   public:
    bool wants(TelemetryStream s) const noexcept override {
      return s == TelemetryStream::kTrace;
    }
    void on_event(const common::TelemetryEvent& e) override {
      bytes += e.line.size();
    }
    std::uint64_t bytes = 0;
  };
  common::TelemetryBus bus;
  bus.add_sink(std::make_unique<Discard>());
  sim::Trace trace;
  trace.attach_bus(&bus);
  trace.set_capacity(1);
  trace.enable(true);
  constexpr int kRecords = 50000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kRecords; ++i) {
    trace.record(0.001 * i, sim::TraceKind::kRx,
                 static_cast<std::uint32_t>(i % 500),
                 "kind=" + std::to_string(1 + i % 2) + " from=" +
                     std::to_string(i % 499),
                 static_cast<std::uint64_t>(i));
  }
  cost.record_ns = seconds_since(t0) * 1e9 / kRecords;
  return cost;
}

SetupCost setup_cost(const Workload& w, std::uint64_t subseed) {
  std::vector<double> pts;
  std::vector<double> idx;
  std::vector<geom::Point2> points;
  for (int r = 0; r < 5; ++r) {
    auto t0 = Clock::now();
    points = point_set(w, subseed);
    pts.push_back(seconds_since(t0));
    t0 = Clock::now();
    coverage::CoverageMap map(w.params.field, points, w.params.rs);
    idx.push_back(seconds_since(t0));
  }
  return {median_of(pts), median_of(idx)};
}

}  // namespace perfbench
