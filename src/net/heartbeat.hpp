// Heartbeat-based failure detection.
//
// Each node broadcasts a heartbeat with period Tc (plus per-node phase
// jitter so the network never synchronizes) and declares a neighbor failed
// after `timeout_periods * Tc` of silence. The component is embedded in a
// NodeProcess — it does not own the radio. The host records every
// heartbeat/hello it hears in the shared NeighborTable; the detector only
// ages entries out of it.
#pragma once

#include <cstdint>
#include <functional>

#include "net/neighbor_table.hpp"
#include "sim/node.hpp"

namespace decor::net {

struct HeartbeatParams {
  /// Heartbeat period Tc (seconds).
  double period = 1.0;
  /// Silence threshold in periods before declaring failure.
  double timeout_periods = 3.5;
};

class HeartbeatDetector {
 public:
  using FailureCallback = std::function<void(std::uint32_t failed_id,
                                             geom::Point2 last_pos)>;

  HeartbeatDetector(sim::NodeProcess& host, HeartbeatParams params,
                    NeighborTable& table);

  /// Starts the periodic beat/check cycle; `send_beat` is invoked each
  /// period and must transmit the host's heartbeat message.
  void start(std::function<void()> send_beat, FailureCallback on_failure);

  const HeartbeatParams& params() const noexcept { return params_; }

 private:
  void tick();

  sim::NodeProcess& host_;
  HeartbeatParams params_;
  NeighborTable& table_;
  std::function<void()> send_beat_;
  FailureCallback on_failure_;
};

}  // namespace decor::net
