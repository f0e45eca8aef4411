// SensorNode: the protocol base every simulated sensor runs.
//
// Integrates neighbor discovery (HELLO with solicited replies), the
// heartbeat failure detector and a neighbor table. DECOR's sim-driven
// deployment logic (src/decor/sim_runner.*) subclasses this and reacts to
// the hooks; examples reuse it directly.
#pragma once

#include <cstdint>
#include <memory>

#include "net/data_plane.hpp"
#include "net/heartbeat.hpp"
#include "net/messages.hpp"
#include "net/neighbor_table.hpp"
#include "net/reliable_link.hpp"
#include "sim/node.hpp"

namespace decor::net {

struct SensorNodeParams {
  /// Communication radius rc; all protocol traffic uses this range.
  double rc = 8.0;
  HeartbeatParams heartbeat;
  /// Heartbeats can be disabled for pure-deployment runs to keep the
  /// event count down.
  bool enable_heartbeat = true;
  /// ARQ layer for control-plane traffic (send_reliable /
  /// broadcast_reliable). Disabling it turns those helpers into plain
  /// fire-and-forget sends.
  bool enable_arq = true;
  ReliableLinkParams arq;
  /// Continuous sensing workload toward the base station; off by
  /// default so control-plane-only runs stay byte-identical.
  DataPlaneParams data_plane;
};

class SensorNode : public sim::NodeProcess {
 public:
  explicit SensorNode(SensorNodeParams params) : params_(params) {}

  void on_start() override;
  void on_message(const sim::Message& msg) override;
  void on_stop() override;

  const NeighborTable& neighbors() const noexcept { return table_; }
  const SensorNodeParams& params() const noexcept { return params_; }

  /// The ARQ layer; null when enable_arq is false or before on_start.
  ReliableLink* link() noexcept { return link_.get(); }

  /// The sensing workload; null unless data_plane.enabled.
  DataPlane* data_plane() noexcept { return data_plane_.get(); }

  /// Routes ARQ accounting into a harness-owned sink (must outlive the
  /// node); no-op when the ARQ layer is disabled.
  void set_arq_stats(ArqStats* stats) noexcept {
    arq_stats_ = stats;
    if (link_) link_->set_stats(stats);
  }

  /// Routes data-plane accounting into a harness-owned sink (must
  /// outlive the node); no-op when the data plane is disabled.
  void set_data_stats(DataPlaneStats* stats) noexcept {
    data_stats_ = stats;
    if (data_plane_) data_plane_->set_stats(stats);
  }

 protected:
  /// Non-core message kinds are forwarded here.
  virtual void handle_message(const sim::Message& msg) { (void)msg; }

  /// First contact with a neighbor (any message carrying its position).
  virtual void on_neighbor_discovered(std::uint32_t id, geom::Point2 pos) {
    (void)id;
    (void)pos;
  }

  /// The failure detector timed a neighbor out.
  virtual void on_neighbor_failed(std::uint32_t id, geom::Point2 last_pos) {
    (void)id;
    (void)last_pos;
  }

  /// Cell id carried in this node's heartbeats (grid scheme); default 0.
  virtual std::uint32_t heartbeat_cell() const { return 0; }

  void send_hello(bool solicit_reply);
  void send_heartbeat();

  /// Reliable unicast of a control message to `dst` (falls back to a
  /// best-effort unicast when the ARQ layer is disabled).
  void send_reliable(std::uint32_t dst, sim::Message msg);

  /// Reliable broadcast of a control message: transmitted once, then
  /// retransmitted until every *currently known* neighbor acknowledged.
  /// Peers not yet in the table hear it best-effort (and learn missed
  /// state through the protocols' own recovery paths).
  void broadcast_reliable(sim::Message msg);

  SensorNodeParams params_;
  NeighborTable table_;
  std::unique_ptr<HeartbeatDetector> detector_;
  std::unique_ptr<ReliableLink> link_;
  std::unique_ptr<DataPlane> data_plane_;

 private:
  void observe(std::uint32_t id, geom::Point2 pos, double boot);

  ArqStats* arq_stats_ = nullptr;
  DataPlaneStats* data_stats_ = nullptr;
};

/// Hello payload with the solicited-reply flag (kept out of messages.hpp
/// because only SensorNode uses the flag).
struct HelloExtPayload {
  geom::Point2 pos;
  bool solicit_reply = false;
  /// Sender's boot time (incarnation stamp, like HeartbeatPayload::boot).
  double boot = 0.0;
};

}  // namespace decor::net
