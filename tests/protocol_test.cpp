#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/neighbor_table.hpp"
#include "net/sensor_node.hpp"
#include "sim/world.hpp"

namespace {

using namespace decor;
using namespace decor::net;
using geom::make_rect;
using geom::Point2;

TEST(NeighborTable, ObserveAndGet) {
  NeighborTable t;
  EXPECT_TRUE(t.observe(3, {1, 2}, 5.0).fresh);  // first sight
  EXPECT_TRUE(t.knows(3));
  EXPECT_FALSE(t.knows(4));
  const auto e = t.get(3);
  ASSERT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e->pos.x, 1.0);
  EXPECT_DOUBLE_EQ(e->last_seen, 5.0);
}

TEST(NeighborTable, ObserveRefreshes) {
  NeighborTable t;
  EXPECT_TRUE(t.observe(3, {1, 2}, 5.0).fresh);
  EXPECT_FALSE(t.observe(3, {1.5, 2}, 9.0).fresh);  // a refresh is not news
  EXPECT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.get(3)->last_seen, 9.0);
  EXPECT_DOUBLE_EQ(t.get(3)->pos.x, 1.5);
}

TEST(NeighborTable, StaleDetection) {
  NeighborTable t;
  t.observe(1, {0, 0}, 1.0);
  t.observe(2, {0, 0}, 5.0);
  t.observe(3, {0, 0}, 9.0);
  const auto stale = t.stale(5.0);  // strictly older than deadline
  EXPECT_EQ(stale, (std::vector<std::uint32_t>{1}));
  // Id-ascending whatever order the ids were inserted in.
  for (std::uint32_t id : {40u, 7u, 23u, 0u}) t.observe(id, {0, 0}, 2.0);
  EXPECT_EQ(t.stale(5.0), (std::vector<std::uint32_t>{0, 1, 7, 23, 40}));
}

TEST(NeighborTable, ForgetRemoves) {
  NeighborTable t;
  t.observe(1, {0, 0}, 1.0);
  t.forget(1);
  EXPECT_FALSE(t.knows(1));
  t.forget(99);  // no-op
  // A forgotten id is new again on its next observation.
  EXPECT_TRUE(t.observe(1, {0, 0}, 2.0).fresh);
  EXPECT_FALSE(t.observe(1, {0, 0}, 3.0).fresh);
}

TEST(NeighborTable, LaterBootOnAKnownPeerIsARebootNotNews) {
  NeighborTable t;
  auto o = t.observe(4, {0, 0}, 1.0, /*boot=*/10.0);
  EXPECT_TRUE(o.fresh);
  EXPECT_FALSE(o.rebooted);  // first contact is never a reboot
  o = t.observe(4, {0, 0}, 2.0, 10.0);
  EXPECT_FALSE(o.fresh);
  EXPECT_FALSE(o.rebooted);
  o = t.observe(4, {0, 0}, 3.0, 20.0);
  EXPECT_FALSE(o.fresh);
  EXPECT_TRUE(o.rebooted);
  o = t.observe(4, {0, 0}, 4.0, 15.0);  // a late frame of an old boot
  EXPECT_FALSE(o.rebooted);
  EXPECT_DOUBLE_EQ(t.get(4)->boot, 20.0);
}

TEST(NeighborTable, ForgottenPeerWithLaterBootIsFreshAndRebooted) {
  NeighborTable t;
  t.observe(4, {0, 0}, 1.0, /*boot=*/10.0);
  t.forget(4);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.stale(100.0).empty());
  const auto o = t.observe(4, {0, 0}, 2.0, 20.0);
  EXPECT_TRUE(o.fresh);
  EXPECT_TRUE(o.rebooted);
  EXPECT_DOUBLE_EQ(t.get(4)->boot, 20.0);
}

TEST(NeighborTable, ForgottenPeerWithSameOrOlderBootIsOnlyFresh) {
  NeighborTable t;
  t.observe(4, {0, 0}, 1.0, /*boot=*/10.0);
  t.forget(4);
  auto o = t.observe(4, {0, 0}, 2.0, 10.0);
  EXPECT_TRUE(o.fresh);
  EXPECT_FALSE(o.rebooted);
  t.forget(4);
  o = t.observe(4, {0, 0}, 3.0, 5.0);
  EXPECT_TRUE(o.fresh);
  EXPECT_FALSE(o.rebooted);
  // The older stamp did not replace the record: 7 is still no reboot.
  t.forget(4);
  o = t.observe(4, {0, 0}, 4.0, 7.0);
  EXPECT_TRUE(o.fresh);
  EXPECT_FALSE(o.rebooted);
  EXPECT_DOUBLE_EQ(t.get(4)->boot, 10.0);
}

TEST(NeighborTable, SnapshotSorted) {
  NeighborTable t;
  t.observe(9, {9, 0}, 1.0);
  t.observe(2, {2, 0}, 1.0);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, 2u);
  EXPECT_EQ(snap[1].first, 9u);
  // Still id-ascending, every entry under its own id, after a middle id
  // is forgotten.
  for (std::uint32_t id : {30u, 5u, 50u}) {
    t.observe(id, {static_cast<double>(id), 0}, 1.0);
  }
  t.forget(9);
  std::vector<std::uint32_t> ids;
  for (const auto& [id, e] : t.snapshot()) {
    EXPECT_DOUBLE_EQ(e.pos.x, static_cast<double>(id));
    ids.push_back(id);
  }
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{2, 5, 30, 50}));
}

// --- SensorNode integration on the simulator -------------------------------

class RecordingNode : public SensorNode {
 public:
  explicit RecordingNode(SensorNodeParams p) : SensorNode(p) {}

  std::vector<std::uint32_t> discovered;
  std::vector<std::uint32_t> failed;

 protected:
  void on_neighbor_discovered(std::uint32_t id, geom::Point2) override {
    discovered.push_back(id);
  }
  void on_neighbor_failed(std::uint32_t id, geom::Point2) override {
    failed.push_back(id);
  }
};

struct Net {
  std::unique_ptr<sim::World> world = std::make_unique<sim::World>(
      make_rect(0, 0, 100, 100), sim::RadioParams{1e-3, 1e-4, 0.0}, 42);
  SensorNodeParams params;

  Net() {
    params.rc = 10.0;
    params.heartbeat.period = 1.0;
    params.heartbeat.timeout_periods = 3.5;
  }

  std::uint32_t add(Point2 pos) {
    return world->spawn(pos, std::make_unique<RecordingNode>(params));
  }
  RecordingNode& node(std::uint32_t id) {
    return world->node_as<RecordingNode>(id);
  }
};

TEST(SensorNode, HelloDiscoversNeighborsBothWays) {
  Net net;
  const auto a = net.add({10, 10});
  const auto b = net.add({15, 10});
  const auto far = net.add({90, 90});
  net.world->sim().run_until(0.5);
  EXPECT_EQ(net.node(a).neighbors().size(), 1u);
  EXPECT_TRUE(net.node(a).neighbors().knows(b));
  EXPECT_TRUE(net.node(b).neighbors().knows(a));
  EXPECT_EQ(net.node(far).neighbors().size(), 0u);
}

TEST(SensorNode, LateJoinerLearnsExistingNetwork) {
  Net net;
  const auto a = net.add({10, 10});
  net.world->sim().run_until(5.0);
  std::uint32_t late = 0;
  net.world->sim().schedule(0.0, [&] { late = net.add({12, 10}); });
  net.world->sim().run_until(6.0);
  // Solicited replies introduce the old node to the newcomer immediately
  // (faster than waiting a heartbeat period).
  EXPECT_TRUE(net.node(late).neighbors().knows(a));
  EXPECT_TRUE(net.node(a).neighbors().knows(late));
}

TEST(SensorNode, HeartbeatDetectsFailure) {
  Net net;
  const auto a = net.add({10, 10});
  const auto b = net.add({15, 10});
  net.world->sim().run_until(2.0);
  EXPECT_TRUE(net.node(a).neighbors().knows(b));
  net.world->kill(b);
  // Detection needs timeout_periods * period of silence.
  net.world->sim().run_until(2.0 + 3.5 * 1.0 + 2.0);
  ASSERT_EQ(net.node(a).discovered.size(), 1u);
  ASSERT_EQ(net.node(a).failed.size(), 1u);
  EXPECT_EQ(net.node(a).failed[0], b);
  EXPECT_FALSE(net.node(a).neighbors().knows(b));
}

TEST(SensorNode, NoFalsePositivesWhileAlive) {
  Net net;
  const auto a = net.add({10, 10});
  net.add({15, 10});
  net.add({10, 15});
  net.world->sim().run_until(30.0);
  EXPECT_TRUE(net.node(a).failed.empty());
  EXPECT_EQ(net.node(a).neighbors().size(), 2u);
}

TEST(SensorNode, DetectionLatencyWithinBound) {
  Net net;
  const auto a = net.add({10, 10});
  const auto b = net.add({15, 10});
  net.world->sim().run_until(5.0);
  net.world->kill(b);
  const double kill_time = net.world->sim().now();
  // Not yet detected right away.
  EXPECT_TRUE(net.node(a).failed.empty());
  // Must be detected within timeout + one period + slack.
  net.world->sim().run_until(kill_time + 3.5 + 1.0 + 0.5);
  EXPECT_EQ(net.node(a).failed.size(), 1u);
}

TEST(SensorNode, HeartbeatsKeepTableFresh) {
  Net net;
  const auto a = net.add({10, 10});
  const auto b = net.add({15, 10});
  net.world->sim().run_until(20.0);
  const auto entry = net.node(a).neighbors().get(b);
  ASSERT_TRUE(entry.has_value());
  EXPECT_GT(entry->last_seen, 15.0);
}

TEST(SensorNode, DisabledHeartbeatSendsNothingPeriodic) {
  Net net;
  net.params.enable_heartbeat = false;
  const auto a = net.add({10, 10});
  net.add({15, 10});
  net.world->sim().run_until(30.0);
  // Only the two HELLOs (broadcast + solicited unicast reply) ever go out.
  EXPECT_LE(net.world->radio().total_tx(), 4u);
  EXPECT_TRUE(net.node(a).failed.empty());
}

TEST(SensorNode, MessageLoadIsBounded) {
  Net net;
  for (int i = 0; i < 9; ++i) {
    net.add({10.0 + static_cast<double>(i % 3) * 3.0,
             10.0 + static_cast<double>(i / 3) * 3.0});
  }
  net.world->sim().run_until(10.0);
  // 9 nodes, ~10s of 1Hz heartbeats (~90) plus discovery (9 hellos + up
  // to 72 solicited replies): tx must stay linear in nodes * time.
  EXPECT_LT(net.world->radio().total_tx(), 250u);
}

}  // namespace
