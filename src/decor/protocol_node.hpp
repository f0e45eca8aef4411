// What the node types of both protocol schemes share. Internal to the
// harness implementations (protocol_harness.cpp, sim_runner.cpp,
// voronoi_sim.cpp); API users only see the opaque NodeShared.
#pragma once

#include <cstddef>
#include <functional>

#include "decor/params.hpp"
#include "decor/protocol_harness.hpp"
#include "geometry/grid_index.hpp"
#include "net/sensor_node.hpp"
#include "sim/audit_log.hpp"

namespace decor::core {

/// Field knowledge and accounting every simulated node of one harness
/// shares. ProtocolHarness::finish_setup fills it; the scheme's Shared
/// derives from it to add its own.
struct NodeShared {
  DecorParams params;
  /// Every node's SensorNode parameters (rc = the scheme's radio range).
  net::SensorNodeParams node;
  ProtocolHarness* harness = nullptr;
  const geom::PointGridIndex* points = nullptr;
  /// Placement audit sink, or nullptr when auditing is off. Nodes only
  /// pre-mint kPlacement trace ids when auditing, so non-audited runs
  /// keep their exact pre-audit trace-id sequences.
  sim::AuditLog* audit = nullptr;
  /// Per-world ARQ accounting every node's link feeds (simulation is
  /// single-threaded; surfaced through RunResult).
  net::ArqStats arq_stats;
  /// Per-world data-plane accounting (zeros unless the data plane runs).
  net::DataPlaneStats data_stats;
};

/// Exact-position keys: spawn positions are approximation-point
/// coordinates copied bit-for-bit, so double equality is reliable here.
struct PosKey {
  double x, y;
  bool operator==(const PosKey&) const = default;
};
struct PosKeyHash {
  std::size_t operator()(const PosKey& k) const noexcept {
    std::hash<double> h;
    return h(k.x) * 1000003u ^ h(k.y);
  }
};

}  // namespace decor::core
