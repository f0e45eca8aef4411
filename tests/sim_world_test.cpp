#include <gtest/gtest.h>

#include <vector>

#include "common/require.hpp"
#include "sim/message.hpp"
#include "sim/node.hpp"
#include "sim/radio.hpp"
#include "sim/world.hpp"

namespace {

using namespace decor;
using namespace decor::sim;
using geom::make_rect;
using geom::Point2;

/// Minimal test node: records everything, can echo on request.
class Probe : public NodeProcess {
 public:
  void on_start() override { ++starts; }
  void on_message(const Message& msg) override {
    received.push_back(msg);
    if (msg.kind == 42 && echo_range > 0.0) {
      broadcast(Message::make(id(), 43, 0), echo_range);
    }
  }
  void on_stop() override { ++stops; }

  using NodeProcess::broadcast;
  using NodeProcess::set_timer;
  using NodeProcess::unicast;

  int starts = 0;
  int stops = 0;
  double echo_range = 0.0;
  std::vector<Message> received;
};

struct Fixture {
  World world{make_rect(0, 0, 100, 100), RadioParams{1e-3, 0.0, 0.0}, 1};

  std::uint32_t add(Point2 pos) {
    return world.spawn(pos, std::make_unique<Probe>());
  }
  Probe& probe(std::uint32_t id) { return world.node_as<Probe>(id); }
};

TEST(World, SpawnRunsOnStart) {
  Fixture f;
  const auto a = f.add({10, 10});
  f.world.sim().run();
  EXPECT_EQ(f.probe(a).starts, 1);
  EXPECT_TRUE(f.world.alive(a));
  EXPECT_EQ(f.world.alive_count(), 1u);
}

TEST(World, BroadcastReachesOnlyNodesInRange) {
  Fixture f;
  const auto a = f.add({10, 10});
  const auto b = f.add({15, 10});  // distance 5
  const auto c = f.add({30, 10});  // distance 20
  f.world.sim().run();
  f.probe(a).broadcast(Message::make(a, 7, 0), 8.0);
  f.world.sim().run();
  EXPECT_EQ(f.probe(b).received.size(), 1u);
  EXPECT_EQ(f.probe(b).received[0].kind, 7);
  EXPECT_EQ(f.probe(b).received[0].src, a);
  EXPECT_TRUE(f.probe(c).received.empty());
  EXPECT_TRUE(f.probe(a).received.empty());  // no self-delivery
}

TEST(World, BroadcastRangeIsClosed) {
  Fixture f;
  const auto a = f.add({0, 0});
  const auto b = f.add({8, 0});
  f.world.sim().run();
  f.probe(a).broadcast(Message::make(a, 1, 0), 8.0);
  f.world.sim().run();
  EXPECT_EQ(f.probe(b).received.size(), 1u);
}

TEST(World, DeliveryHasLatency) {
  Fixture f;
  const auto a = f.add({0, 0});
  const auto b = f.add({1, 0});
  f.world.sim().run();
  f.probe(a).broadcast(Message::make(a, 1, 0), 8.0);
  double deliver_time = -1.0;
  f.world.sim().schedule(0.0, [] {});
  f.world.sim().run();
  deliver_time = f.world.sim().now();
  EXPECT_GT(deliver_time, 0.0);
  EXPECT_EQ(f.probe(b).received.size(), 1u);
}

TEST(World, UnicastSemantics) {
  Fixture f;
  const auto a = f.add({0, 0});
  const auto b = f.add({5, 0});
  const auto c = f.add({50, 0});
  f.world.sim().run();
  EXPECT_TRUE(f.probe(a).unicast(b, Message::make(a, 9, 0), 8.0));
  EXPECT_FALSE(f.probe(a).unicast(c, Message::make(a, 9, 0), 8.0));  // range
  f.world.sim().run();
  EXPECT_EQ(f.probe(b).received.size(), 1u);
  EXPECT_TRUE(f.probe(c).received.empty());
}

TEST(World, KillStopsDeliveryAndTimers) {
  Fixture f;
  const auto a = f.add({0, 0});
  const auto b = f.add({5, 0});
  f.world.sim().run();
  int timer_fired = 0;
  f.probe(b).set_timer(1.0, [&] { ++timer_fired; });
  f.probe(a).broadcast(Message::make(a, 1, 0), 8.0);
  f.world.kill(b);
  f.world.sim().run();
  EXPECT_TRUE(f.probe(b).received.empty());
  EXPECT_EQ(timer_fired, 0);
  EXPECT_EQ(f.probe(b).stops, 1);
  EXPECT_FALSE(f.world.alive(b));
  EXPECT_EQ(f.world.alive_count(), 1u);
}

TEST(World, DeadSenderCannotTransmit) {
  Fixture f;
  const auto a = f.add({0, 0});
  const auto b = f.add({5, 0});
  f.world.sim().run();
  f.world.kill(a);
  f.probe(a).broadcast(Message::make(a, 1, 0), 8.0);
  f.world.sim().run();
  EXPECT_TRUE(f.probe(b).received.empty());
  EXPECT_EQ(f.world.radio().total_tx(), 0u);
}

TEST(World, RadioCountersTrackTraffic) {
  Fixture f;
  const auto a = f.add({0, 0});
  f.add({3, 0});
  f.add({0, 3});
  f.world.sim().run();
  f.probe(a).broadcast(Message::make(a, 1, 0), 8.0);
  f.world.sim().run();
  EXPECT_EQ(f.world.radio().total_tx(), 1u);
  EXPECT_EQ(f.world.radio().total_rx(), 2u);
  EXPECT_EQ(f.world.radio().tx_count(a), 1u);
  EXPECT_EQ(f.world.radio().rx_count(a), 0u);
}

TEST(World, LossDropsEverythingAtProbabilityOne) {
  World world(make_rect(0, 0, 100, 100), RadioParams{1e-3, 0.0, 1.0}, 1);
  const auto a = world.spawn({0, 0}, std::make_unique<Probe>());
  const auto b = world.spawn({5, 0}, std::make_unique<Probe>());
  world.sim().run();
  world.node_as<Probe>(a).broadcast(Message::make(a, 1, 0), 8.0);
  world.sim().run();
  EXPECT_TRUE(world.node_as<Probe>(b).received.empty());
  EXPECT_EQ(world.radio().total_dropped(), 1u);
}

TEST(World, RejectsInvalidRadioParams) {
  const auto bounds = make_rect(0, 0, 100, 100);
  const auto build = [&](auto&& tweak) {
    RadioParams params;
    tweak(params);
    World world(bounds, params, 1);
  };
  EXPECT_THROW(build([](RadioParams& p) { p.latency_base = -1e-3; }),
               common::RequireError);
  EXPECT_THROW(build([](RadioParams& p) { p.jitter = -1e-4; }),
               common::RequireError);
  EXPECT_THROW(build([](RadioParams& p) { p.loss_prob = -0.2; }),
               common::RequireError);
  EXPECT_THROW(build([](RadioParams& p) { p.loss_prob = 1.5; }),
               common::RequireError);
  EXPECT_THROW(build([](RadioParams& p) { p.bitrate_bps = -100.0; }),
               common::RequireError);
  // Total loss is a valid channel (LossDropsEverythingAtProbabilityOne).
  EXPECT_NO_THROW(build([](RadioParams& p) { p.loss_prob = 1.0; }));
  EXPECT_NO_THROW(build([](RadioParams& p) {
    p.latency_base = 0.0;
    p.jitter = 0.0;
    p.bitrate_bps = 0.0;
  }));
}

TEST(World, MessagePayloadRoundTrip) {
  struct Payload {
    int x;
    double y;
  };
  const auto msg = Message::make(3, 5, Payload{7, 2.5});
  EXPECT_EQ(msg.as<Payload>().x, 7);
  EXPECT_DOUBLE_EQ(msg.as<Payload>().y, 2.5);
}

TEST(World, EnergyDepletionKillsNode) {
  Fixture f;
  const auto a = f.add({0, 0});
  f.add({5, 0});
  f.world.sim().run();
  EnergyBudget tiny;
  tiny.capacity_j = 1e-4;  // enough for one tx (5e-5 + 32e-6), not two
  f.probe(a).set_energy_budget(tiny);
  f.probe(a).broadcast(Message::make(a, 1, 0, 32), 8.0);
  f.world.sim().run();
  EXPECT_TRUE(f.world.alive(a));
  f.probe(a).broadcast(Message::make(a, 1, 0, 32), 8.0);
  f.world.sim().run();
  EXPECT_FALSE(f.world.alive(a));
}

TEST(World, SpawnDuringRun) {
  Fixture f;
  const auto a = f.add({0, 0});
  f.world.sim().run();
  std::uint32_t spawned = 0;
  f.world.sim().schedule(5.0, [&] {
    spawned = f.world.spawn({1, 0}, std::make_unique<Probe>());
  });
  f.world.sim().run();
  EXPECT_EQ(f.world.alive_count(), 2u);
  EXPECT_EQ(f.probe(spawned).starts, 1);
  // New node is radio-reachable.
  f.probe(a).broadcast(Message::make(a, 1, 0), 8.0);
  f.world.sim().run();
  EXPECT_EQ(f.probe(spawned).received.size(), 1u);
}

TEST(World, NeighborsQueryExcludesSelfAndDead) {
  Fixture f;
  const auto a = f.add({0, 0});
  const auto b = f.add({3, 0});
  const auto c = f.add({6, 0});
  f.world.sim().run();
  auto nbs = f.world.neighbors(a, 8.0);
  EXPECT_EQ(nbs.size(), 2u);
  f.world.kill(b);
  nbs = f.world.neighbors(a, 8.0);
  ASSERT_EQ(nbs.size(), 1u);
  EXPECT_EQ(nbs[0], c);
}

TEST(World, TraceRecordsLifecycle) {
  Fixture f;
  f.world.trace().enable(true);
  const auto a = f.add({0, 0});
  f.add({2, 0});
  f.world.sim().run();
  f.probe(a).broadcast(Message::make(a, 1, 0), 8.0);
  f.world.sim().run();
  f.world.kill(a);
  EXPECT_EQ(f.world.trace().filter(TraceKind::kSpawn).size(), 2u);
  EXPECT_EQ(f.world.trace().filter(TraceKind::kKill).size(), 1u);
  EXPECT_EQ(f.world.trace().filter(TraceKind::kTx).size(), 1u);
  EXPECT_EQ(f.world.trace().filter(TraceKind::kRx).size(), 1u);
  EXPECT_FALSE(f.world.trace().grep("kind=1").empty());
}

TEST(World, EchoInteraction) {
  Fixture f;
  const auto a = f.add({0, 0});
  const auto b = f.add({4, 0});
  f.world.sim().run();
  f.probe(b).echo_range = 8.0;
  f.probe(a).broadcast(Message::make(a, 42, 0), 8.0);
  f.world.sim().run();
  // b echoed kind 43 back to a.
  ASSERT_EQ(f.probe(a).received.size(), 1u);
  EXPECT_EQ(f.probe(a).received[0].kind, 43);
}

}  // namespace
