// Unit-disc radio medium.
//
// The paper's communication model: a node reaches exactly the nodes within
// its communication radius rc. The radio adds a small propagation/MAC
// latency, optional uniform jitter and optional i.i.d. loss, and keeps the
// per-node tx/rx counters behind the message-overhead results (Figure 10).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "sim/message.hpp"
#include "sim/propagation.hpp"

namespace decor::sim {

class World;
class NodeProcess;

/// Radio's constructor rejects a negative latency, jitter or bit rate and
/// a loss probability outside [0, 1].
struct RadioParams {
  /// Fixed per-hop latency (transmission + MAC), seconds.
  double latency_base = 1e-3;
  /// Additional uniform latency in [0, jitter) to de-synchronize nodes.
  double jitter = 1e-4;
  /// Per-delivery independent loss probability.
  double loss_prob = 0.0;
  /// Link bit rate; > 0 enables receiver-side collision modelling: a
  /// frame occupies the receiver for size_bytes*8/bitrate seconds and
  /// two overlapping frames at one receiver destroy each other. 0 keeps
  /// the idealized instantaneous reception.
  double bitrate_bps = 0.0;
  /// Propagation model; null means the paper's ideal unit disc.
  std::shared_ptr<const PropagationModel> propagation;
};

class Radio {
 public:
  Radio(World& world, RadioParams params);

  // Scheduled receptions hold the radio's address.
  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  /// Delivers `msg` to every alive node (except the sender) within
  /// `range` of the sender, after per-receiver latency.
  void broadcast(NodeProcess& src, const Message& msg, double range);

  /// Delivers to `dst` only; returns false if dst is dead or out of range
  /// (tx energy is charged regardless). Callers must consume the verdict:
  /// route the send through net::ReliableLink, handle the failure, or
  /// discard explicitly with a comment saying why best-effort is safe.
  [[nodiscard]] bool unicast(NodeProcess& src, std::uint32_t dst,
                             const Message& msg, double range);

  std::uint64_t total_tx() const noexcept { return total_tx_; }
  std::uint64_t total_rx() const noexcept { return total_rx_; }
  /// Frames lost to random loss or propagation fading (partition blocks
  /// are included here too, so drop totals stay comparable across runs;
  /// total_partition_blocked() isolates the partitioned subset).
  std::uint64_t total_dropped() const noexcept { return total_dropped_; }
  /// Frames destroyed by receiver-side collisions (bitrate_bps > 0).
  std::uint64_t total_collisions() const noexcept { return collisions_; }

  std::uint64_t tx_count(std::uint32_t id) const;
  std::uint64_t rx_count(std::uint32_t id) const;

  /// Deterministic link cut (radio partition fault): the predicate
  /// returns true when the pair of node ids is currently severed. Cuts
  /// are evaluated before any loss randomness, so a cut-free run draws
  /// exactly the same RNG sequence whether or not the fault engine is
  /// compiled in. Returns a handle for remove_partition (scheduled
  /// healing).
  using CutPredicate = std::function<bool(std::uint32_t, std::uint32_t)>;
  std::uint64_t add_partition(CutPredicate cut);
  void remove_partition(std::uint64_t handle);
  bool partitions_active() const noexcept { return !cuts_.empty(); }
  /// Frames blocked by an active partition cut (subset of
  /// total_dropped()).
  std::uint64_t total_partition_blocked() const noexcept {
    return partition_blocked_;
  }

  /// Frame corruption fault: per-bit flip probability applied to every
  /// delivered frame while > 0. Wire sizes already account for a frame
  /// checksum (Message::kChecksumBytes), so a corrupted frame is
  /// *detected* at the receiver: it pays rx energy, fails the CRC, and
  /// is counted in total_corrupted() — distinct from loss, which never
  /// reaches the receiver at all. 0 disables (and draws no randomness).
  void set_corruption_ber(double ber) noexcept { corruption_ber_ = ber; }
  double corruption_ber() const noexcept { return corruption_ber_; }
  /// Frames delivered but rejected by the receiver's CRC check.
  std::uint64_t total_corrupted() const noexcept { return corrupted_; }

 private:
  /// A frame between deliver_later and its reception event. Records sit
  /// in a slab recycled through a free list, so the reception event
  /// captures only (this, index) and fits std::function's inline buffer.
  struct InFlight {
    std::uint32_t dst = 0;
    bool crc_failed = false;
    /// Destroyed by an overlapping frame at the receiver.
    bool corrupted = false;
    Message msg;
  };
  /// A frame's airtime at its receiver, for collision bookkeeping.
  struct Pending {
    double start;
    double end;
    std::uint32_t frame;  // index into in_flight_
  };

  bool frame_reaches(const NodeProcess& src, std::uint32_t dst,
                     geom::Point2 dst_pos, double range);
  bool pair_cut(std::uint32_t a, std::uint32_t b) const;
  void deliver_later(std::uint32_t dst, const Message& msg);
  void receive(std::uint32_t frame);
  void charge_tx(NodeProcess& src, const Message& msg);
  void note_node(std::uint32_t id);

  World& world_;
  RadioParams params_;
  std::uint64_t total_tx_ = 0;
  std::uint64_t total_rx_ = 0;
  std::uint64_t total_dropped_ = 0;
  std::uint64_t collisions_ = 0;
  std::uint64_t partition_blocked_ = 0;
  std::uint64_t corrupted_ = 0;
  double corruption_ber_ = 0.0;
  std::uint64_t next_cut_handle_ = 1;
  std::vector<std::pair<std::uint64_t, CutPredicate>> cuts_;
  std::vector<std::uint64_t> tx_;
  std::vector<std::uint64_t> rx_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_frames_;
  /// Frames whose airtime may still overlap a new arrival, by receiver
  /// id (bitrate_bps > 0 only).
  std::vector<std::vector<Pending>> inbound_;
};

}  // namespace decor::sim
