// Allocation regression test for the simulator's hot path.
//
// This binary replaces the global operator new with a counting one, so it
// is built alone. Once the event queue's slot table, its key heap and the
// radio's in-flight slab have grown, a broadcast and its receptions must
// not allocate at all (the broadcast walks the spatial index in place,
// with no receiver list), and neither must scheduling a captureless
// timer. With a ring-bounded trace streaming to a sink, the records of
// a warm broadcast must not allocate either: each line is serialized
// into one reused buffer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/telemetry.hpp"
#include "sim/message.hpp"
#include "sim/node.hpp"
#include "sim/radio.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"

namespace {
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace decor;
using namespace decor::sim;

/// Transmits when told to and ignores what it hears.
class Inert final : public NodeProcess {
 public:
  using NodeProcess::broadcast;
};

/// Wants the trace stream only and counts what it is handed.
class TraceCounter final : public common::TelemetrySink {
 public:
  bool wants(common::TelemetryStream s) const noexcept override {
    return s == common::TelemetryStream::kTrace;
  }
  void on_event(const common::TelemetryEvent& e) override {
    ++events;
    if (e.trace != nullptr) ++typed;
  }
  std::uint64_t events = 0;
  std::uint64_t typed = 0;
};

constexpr int kReceivers = 49;

/// Blocks allocated by one broadcast to kReceivers nodes plus the run
/// that delivers it, measured after an identical warm-up broadcast.
/// `traced` records into a ring-bounded trace on a bus whose only sink
/// wants the trace stream.
std::uint64_t broadcast_allocations(double bitrate_bps, bool traced = false) {
  RadioParams params;
  params.latency_base = 1e-3;
  params.jitter = 1e-4;
  params.bitrate_bps = bitrate_bps;
  common::TelemetryBus bus;
  auto counter_owned = std::make_unique<TraceCounter>();
  const TraceCounter* counter = counter_owned.get();
  bus.add_sink(std::move(counter_owned));
  World world(geom::make_rect(0, 0, 100, 100), params, 3);
  if (traced) {
    world.trace().attach_bus(&bus);
    world.trace().set_capacity(64);
    world.trace().enable(true);
  }
  // A 7x7 block of receivers around a sender that sits off the lattice;
  // every receiver is within 5 units of it.
  for (int i = 0; i < kReceivers; ++i) {
    world.spawn({45.0 + i % 7, 45.0 + i / 7}, std::make_unique<Inert>());
  }
  const auto sender = world.spawn({48.5, 48.5}, std::make_unique<Inert>());
  world.sim().run();
  auto& node = world.node_as<Inert>(sender);
  const Message msg = Message::make(sender, 1, 0, 32);

  node.broadcast(msg, 8.0);  // warm-up: slot table, heap, slab, inbound
  world.sim().run();
  // Spaced past the airtime, so the second round does not collide.
  world.sim().schedule(1.0, [] {});
  world.sim().run();

  const std::uint64_t rx0 = world.radio().total_rx();
  const std::uint64_t events0 = counter->events;
  const std::uint64_t before = g_allocations;
  node.broadcast(msg, 8.0);
  world.sim().run();
  const std::uint64_t allocated = g_allocations - before;
  EXPECT_EQ(world.radio().total_rx() - rx0,
            static_cast<std::uint64_t>(kReceivers));
  // One tx record and one rx record per receiver, each with its fields.
  const std::uint64_t records = traced ? 1 + kReceivers : 0;
  EXPECT_EQ(counter->events - events0, records);
  EXPECT_EQ(counter->typed, counter->events);
  return allocated;
}

TEST(SimAllocations, WarmBroadcastAllocatesNothing) {
  EXPECT_EQ(broadcast_allocations(0.0), 0u);
}

TEST(SimAllocations, WarmCollisionModelBroadcastAllocatesNothing) {
  EXPECT_EQ(broadcast_allocations(250000.0), 0u);
}

TEST(SimAllocations, WarmTracedBroadcastAllocatesNothing) {
  EXPECT_EQ(broadcast_allocations(0.0, /*traced=*/true), 0u);
}

TEST(SimAllocations, CapturelessTimersOnAWarmQueueAllocateNothing) {
  Simulator sim;
  const auto round = [&sim] {
    for (int i = 0; i < 100; ++i) {
      sim.schedule(1e-3 * static_cast<double>(i % 10), [] {});
    }
    sim.run();
  };
  round();  // warm-up: the slot table and heap reach 100 entries
  const std::uint64_t before = g_allocations;
  round();
  const std::uint64_t allocated = g_allocations - before;
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(sim.events_executed(), 200u);
}

}  // namespace
