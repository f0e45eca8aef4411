// Observability layer: causality ids, record sequencing, the convergence
// timeline, the Perfetto export and the flight recorder.
//
// The causality tests run a genuinely lossy deterministic simulation and
// check the end-to-end invariant the tooling depends on: every record of
// one logical exchange — the originating send, every ARQ retransmission
// of it, and the acknowledgement coming back from the receiver — carries
// the trace id minted at the original send.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/profile.hpp"
#include "common/provenance.hpp"
#include "common/require.hpp"
#include "decor/decor.hpp"
#include "decor/voronoi_sim.hpp"
#include "net/messages.hpp"
#include "sim/flight_recorder.hpp"
#include "sim/timeline.hpp"
#include "sim/trace_export.hpp"

namespace {

using namespace decor;
using core::GridSimHarness;
using core::SimRunConfig;

std::vector<geom::Point2> lattice_positions(double side, double spacing) {
  std::vector<geom::Point2> out;
  for (double x = spacing / 2.0; x < side; x += spacing) {
    for (double y = spacing / 2.0; y < side; y += spacing) {
      out.push_back({x, y});
    }
  }
  return out;
}

SimRunConfig grid_small(std::uint64_t seed) {
  SimRunConfig cfg;
  cfg.params.field = geom::make_rect(0, 0, 20, 20);
  cfg.params.num_points = 200;
  cfg.params.k = 1;
  cfg.params.rs = 4.0;
  cfg.params.rc = 8.0;
  cfg.params.cell_side = 5.0;
  cfg.seed = seed;
  cfg.run_time = 200.0;
  cfg.placement_interval = 0.2;
  cfg.seed_check_interval = 2.0;
  cfg.election = net::ElectionParams{10.0, 0.05, 0.01};
  cfg.initial_positions = lattice_positions(20.0, 10.0);
  return cfg;
}

// --- causality ids ---------------------------------------------------------

TEST(TraceCausality, LossyRunSharesTraceIdAcrossRetransmitsAndAcks) {
  auto cfg = grid_small(7);
  cfg.trace = true;
  cfg.radio.loss_prob = 0.3;
  GridSimHarness harness(cfg);
  const auto result = harness.run();
  ASSERT_TRUE(result.reached_full_coverage);
  ASSERT_GT(result.arq.retx, 0u) << "a 30% loss run must retransmit";

  // Group message records by causality id.
  struct Group {
    std::set<std::uint32_t> tx_nodes;  // non-ack transmitters
    std::map<std::string, int> tx_by_node_kind;
    int acks_tx = 0;
    std::set<std::uint32_t> ack_nodes;
  };
  std::map<std::uint64_t, Group> groups;
  std::uint64_t stamped_msgs = 0;
  for (const auto& r : harness.world().trace().chronological()) {
    if (r.kind != sim::TraceKind::kTx) continue;
    ASSERT_NE(r.trace_id, 0u) << "every transmitted frame is stamped";
    ++stamped_msgs;
    auto& g = groups[r.trace_id];
    const int kind = sim::parse_trace_detail(r.detail).kind;
    ASSERT_GE(kind, 0);
    if (kind == net::kAck) {
      ++g.acks_tx;
      g.ack_nodes.insert(r.node);
    } else {
      g.tx_nodes.insert(r.node);
      ++g.tx_by_node_kind[std::to_string(r.node) + "/" +
                          std::to_string(kind)];
    }
  }
  ASSERT_GT(stamped_msgs, 0u);

  // Neither protocol forwards frames, so all non-ack transmissions of one
  // exchange must leave a single node: the originator. A retransmission
  // is the same (node, kind) transmitting again under the same id.
  std::uint64_t retransmitted_exchanges = 0;
  std::uint64_t cross_node_acked = 0;
  for (const auto& [tid, g] : groups) {
    (void)tid;
    EXPECT_LE(g.tx_nodes.size(), 1u)
        << "one exchange must have one originator";
    for (const auto& [nk, count] : g.tx_by_node_kind) {
      (void)nk;
      if (count > 1) ++retransmitted_exchanges;
    }
    if (g.acks_tx > 0 && !g.tx_nodes.empty() &&
        g.ack_nodes.count(*g.tx_nodes.begin()) == 0) {
      ++cross_node_acked;  // the ack came back from a different node
    }
  }
  EXPECT_GT(retransmitted_exchanges, 0u)
      << "retransmitted frames must reuse the origin's trace id";
  EXPECT_GT(cross_node_acked, 0u)
      << "acks must inherit the id of the frame they acknowledge";
}

// --- seq monotonicity ------------------------------------------------------

TEST(TraceSeq, MonotoneAcrossRingWraparound) {
  sim::Trace trace;
  trace.enable(true);
  trace.set_capacity(8);
  for (int i = 0; i < 21; ++i) {
    trace.record(static_cast<double>(i), sim::TraceKind::kProtocol, 0,
                 "r" + std::to_string(i));
  }
  EXPECT_EQ(trace.total_recorded(), 21u);
  EXPECT_EQ(trace.dropped(), 13u);
  const auto chrono = trace.chronological();
  ASSERT_EQ(chrono.size(), 8u);
  for (std::size_t i = 1; i < chrono.size(); ++i) {
    EXPECT_LT(chrono[i - 1].seq, chrono[i].seq)
        << "seq must stay strictly increasing after the ring wraps";
  }
  EXPECT_EQ(chrono.back().seq, 21u);
}

TEST(TraceSeq, JsonlCarriesSeqAndTraceId) {
  const sim::TraceRecord r{1.5, sim::TraceKind::kTx, 3, "kind=5", 7, 42};
  const std::string line = sim::trace_record_json(r);
  EXPECT_NE(line.find("\"seq\":42"), std::string::npos);
  EXPECT_NE(line.find("\"trace\":7"), std::string::npos);
  EXPECT_NE(line.find("\"kind\":\"tx\""), std::string::npos);
}

TEST(TraceExport, ParseDetailKind) {
  EXPECT_EQ(sim::parse_trace_detail("kind=5").kind, 5);
  EXPECT_EQ(sim::parse_trace_detail("kind=5").from, -1);
  EXPECT_EQ(sim::parse_trace_detail("kind=9 from=3").kind, 9);
  EXPECT_EQ(sim::parse_trace_detail("kind=9 from=3").from, 3);
  EXPECT_EQ(sim::parse_trace_detail("kind=4 from=2").kind, 4);
  EXPECT_EQ(sim::parse_trace_detail("kind=4 from=2").from, 2);
  EXPECT_FALSE(sim::parse_trace_detail("kind=4 from=2").crc);
  const auto crc = sim::parse_trace_detail("crc kind=9 from=3");
  EXPECT_TRUE(crc.crc);
  EXPECT_EQ(crc.kind, 9);
  EXPECT_EQ(crc.from, 3);
  for (const char* other : {"dead-peer=7", "converged"}) {
    const auto d = sim::parse_trace_detail(other);
    EXPECT_EQ(d.kind, -1) << other;
    EXPECT_EQ(d.from, -1) << other;
    EXPECT_FALSE(d.crc) << other;
  }
}

// --- open_jsonl failure surfacing ------------------------------------------

TEST(TraceSink, OpenJsonlFailureReturnsFalse) {
  sim::Trace trace;
  EXPECT_FALSE(trace.open_jsonl("/nonexistent-dir-decor/trace.jsonl"));
  sim::Timeline timeline;
  EXPECT_FALSE(
      timeline.open_jsonl("/nonexistent-dir-decor/timeline.jsonl"));
}

TEST(TraceSink, HarnessRefusesUnopenableSink) {
  auto cfg = grid_small(1);
  cfg.trace_jsonl = "/nonexistent-dir-decor/trace.jsonl";
  EXPECT_THROW(GridSimHarness harness(cfg), common::RequireError);

  core::VoronoiSimConfig vcfg;
  vcfg.params = grid_small(1).params;
  vcfg.initial_positions = lattice_positions(20.0, 10.0);
  vcfg.trace_jsonl = "/nonexistent-dir-decor/trace.jsonl";
  EXPECT_THROW(core::VoronoiSimHarness harness(vcfg), common::RequireError);
}

// --- timeline --------------------------------------------------------------

TEST(Timeline, MonotoneSamplesAndConvergenceTime) {
  auto cfg = grid_small(11);
  cfg.timeline_interval = 1.0;
  GridSimHarness harness(cfg);
  const auto result = harness.run();
  ASSERT_TRUE(result.reached_full_coverage);

  const auto& samples = harness.timeline().samples();
  ASSERT_GE(samples.size(), 2u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i - 1].t, samples[i].t)
        << "timeline times must be non-decreasing";
    EXPECT_GT(samples[i].alive_nodes, 0u);
  }
  const double conv = harness.timeline().convergence_time();
  ASSERT_GE(conv, 0.0) << "a covered run must have a converged sample";
  EXPECT_NEAR(conv, result.finish_time, 1.0 + 1e-9);
  EXPECT_EQ(samples.back().uncovered_points, 0u);
  EXPECT_DOUBLE_EQ(samples.back().covered_fraction, 1.0);
  // Grid scheme: once a leader exists, samples carry the registry.
  EXPECT_FALSE(samples.back().leaders.empty());
}

TEST(Timeline, JsonlSinkWritesSchemaAndSamples) {
  const std::string path =
      testing::TempDir() + "/decor_timeline_test.jsonl";
  std::remove(path.c_str());
  auto cfg = grid_small(3);
  cfg.timeline_interval = 1.0;
  cfg.timeline_jsonl = path;
  std::size_t expected_samples = 0;
  {
    // Scoped: the destructor closes (and flushes) the JSONL sink.
    GridSimHarness harness(cfg);
    const auto result = harness.run();
    ASSERT_TRUE(result.reached_full_coverage);
    expected_samples = harness.timeline().samples().size();
  }

  std::ifstream f(path);
  ASSERT_TRUE(f.is_open());
  std::string header;
  ASSERT_TRUE(std::getline(f, header));
  EXPECT_NE(header.find("decor.timeline.v1"), std::string::npos);
  std::size_t lines = 0;
  std::string line;
  while (std::getline(f, line)) {
    EXPECT_NE(line.find("\"uncovered\":"), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, expected_samples);
}

// --- perfetto export -------------------------------------------------------

TEST(TraceExport, ChromeTraceSpansThreadAcrossNodeTracks) {
  auto cfg = grid_small(7);
  cfg.trace = true;
  cfg.radio.loss_prob = 0.3;
  GridSimHarness harness(cfg);
  ASSERT_TRUE(harness.run().reached_full_coverage);

  std::ostringstream os;
  sim::write_chrome_trace(harness.world().trace().chronological(), os,
                          net::msg_kind_label, net::kAck);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(doc.find("\"leg\":\"retransmit\""), std::string::npos)
      << "a lossy ARQ run must show retransmit legs";
  EXPECT_NE(doc.find("\"leg\":\"ack\""), std::string::npos);
  EXPECT_NE(doc.find("process_name"), std::string::npos);

  // Balanced span structure: every async begin has exactly one end.
  std::size_t begins = 0, ends = 0, pos = 0;
  while ((pos = doc.find("\"ph\":\"b\"", pos)) != std::string::npos) {
    ++begins;
    pos += 8;
  }
  pos = 0;
  while ((pos = doc.find("\"ph\":\"e\"", pos)) != std::string::npos) {
    ++ends;
    pos += 8;
  }
  EXPECT_EQ(begins, ends);
}

// --- flight recorder -------------------------------------------------------

std::string read_file(const std::filesystem::path& p) {
  std::ifstream f(p);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(FlightRecorder, BundleOnForcedNonConvergence) {
  // Both schemes dump through the one harness core; the manifest tags
  // each bundle with the scheme that wrote it.
  for (const std::string scheme : {"grid", "voronoi"}) {
    SCOPED_TRACE(scheme);
    const std::string dir =
        testing::TempDir() + "/decor_flight_test_" + scheme;
    std::filesystem::remove_all(dir);
    auto cfg = grid_small(5);
    cfg.trace = true;
    cfg.trace_capacity = 512;
    cfg.timeline_interval = 0.5;
    cfg.flight_dir = dir;
    cfg.run_time = 2.0;  // far too short: forced non-convergence
    bool covered = true;
    if (scheme == "grid") {
      GridSimHarness harness(cfg);
      covered = harness.run().reached_full_coverage;
    } else {
      core::VoronoiSimHarness harness(core::VoronoiSimConfig{cfg});
      covered = harness.run().reached_full_coverage;
    }
    ASSERT_FALSE(covered);

    for (const char* name :
         {"manifest.json", "trace.jsonl", "timeline.jsonl", "metrics.json"}) {
      const auto p = std::filesystem::path(dir) / name;
      ASSERT_TRUE(std::filesystem::exists(p)) << name;
      EXPECT_GT(std::filesystem::file_size(p), 0u) << name;
    }
    const std::string manifest =
        read_file(std::filesystem::path(dir) / "manifest.json");
    EXPECT_NE(manifest.find("decor.flight.v1"), std::string::npos);
    EXPECT_NE(manifest.find("non-convergence"), std::string::npos);
    EXPECT_NE(manifest.find("\"scheme\":\"" + scheme + "\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"git_sha\""), std::string::npos);

    // The bundled trace must be readable record-by-record with seqs
    // intact.
    std::ifstream tf(std::filesystem::path(dir) / "trace.jsonl");
    std::string line;
    std::uint64_t last_seq = 0, lines = 0;
    while (std::getline(tf, line)) {
      const auto p = line.find("\"seq\":");
      ASSERT_NE(p, std::string::npos);
      const auto seq = std::strtoull(line.c_str() + p + 6, nullptr, 10);
      EXPECT_GT(seq, last_seq);
      last_seq = seq;
      ++lines;
    }
    EXPECT_GT(lines, 0u);
    EXPECT_LE(lines, 512u) << "bundle dumps the bounded ring, not the run";
  }
}

TEST(FlightRecorder, BundleOnVoronoiWatchdog) {
  // From an empty field only the watchdog (the paper's robot) can make
  // progress; the stall it answers is dumped as evidence.
  const std::string dir = testing::TempDir() + "/decor_flight_watchdog";
  std::filesystem::remove_all(dir);
  core::VoronoiSimConfig cfg{grid_small(5)};
  cfg.initial_positions.clear();
  cfg.flight_dir = dir;
  core::VoronoiSimHarness harness(cfg);
  const auto result = harness.run();
  ASSERT_TRUE(result.reached_full_coverage);
  ASSERT_GE(result.seeded_nodes, 1u);
  const std::string manifest =
      read_file(std::filesystem::path(dir) / "manifest.json");
  EXPECT_NE(manifest.find("\"reason\":\"watchdog\""), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"scheme\":\"voronoi\""), std::string::npos);
}

// --- profiling -------------------------------------------------------------

TEST(Profile, ScopeObservesOnlyWhenEnabled) {
  auto& hist = common::profile_histogram("profile.test.scope_us");
  common::set_profiling_enabled(false);
  const auto before = hist.total_count();
  { common::ProfileScope scope(hist); }
  EXPECT_EQ(hist.total_count(), before) << "disabled scopes record nothing";

  common::set_profiling_enabled(true);
  { common::ProfileScope scope(hist); }
  EXPECT_EQ(hist.total_count(), before + 1);
  common::set_profiling_enabled(false);
  common::metrics().enable(false);
}

TEST(Profile, HotPathHistogramsFillDuringProfiledRun) {
  common::set_profiling_enabled(true);
  auto& drain = common::profile_histogram("profile.sim.drain_us");
  const auto before = drain.total_count();
  auto cfg = grid_small(2);
  GridSimHarness harness(cfg);
  ASSERT_TRUE(harness.run().reached_full_coverage);
  EXPECT_GT(drain.total_count(), before);
  common::set_profiling_enabled(false);
  common::metrics().enable(false);
}

TEST(Provenance, BuildStampIsPopulated) {
  EXPECT_NE(common::build_git_sha(), nullptr);
  EXPECT_STRNE(common::build_git_sha(), "");
  EXPECT_STRNE(common::build_compiler(), "");
}

}  // namespace
