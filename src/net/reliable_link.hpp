// ReliableLink: an ARQ layer between the protocol nodes and the lossy
// radio, running either as stop-and-wait-per-frame (window == 1, the
// historical protocol, byte-identical) or as a per-peer sliding window
// with cumulative acknowledgements, adaptive RTO and AIMD pacing
// (window > 1, the heavy-traffic data-plane transport).
//
// The paper's restoration protocols assume that control messages (leader
// announcements, placement notifications, coverage queries) eventually
// reach every neighbor; the raw radio only offers fire-and-forget
// delivery. This component earns the assumption: every reliable frame
// carries a sequence number, receivers acknowledge with kAck and suppress
// duplicates, and the sender retransmits with exponential backoff plus
// jitter until every expected peer has acknowledged or the retry budget
// is exhausted — at which point a dead-peer callback lets the host purge
// its neighbor table. kHello/kHeartbeat stay best-effort (seq == 0), as
// in real WSN stacks: they are periodic and self-healing by design.
//
// Windowed mode (window > 1) adds, per destination peer:
//   - a send window: at most `effective_window` unicast frames in flight,
//     excess sends queue FIFO and are admitted as acks free slots;
//   - AIMD congestion control: cwnd grows by 1/cwnd per useful ack (up to
//     `window`) and shrinks multiplicatively on a retransmission timeout,
//     so senders back off a saturated collision channel;
//   - adaptive RTO: Jacobson/Karels srtt/rttvar from Karn-filtered RTT
//     samples (never from retransmitted frames), clamped to
//     [rto_initial, rto_max], with the existing backoff + jitter on top;
//   - cumulative acks: each kAck carries the receiver's per-sender floor
//     ("seen everything <= cum"), clearing stragglers whose dedicated ack
//     was lost;
//   - bounded receiver dedup: each frame carries the sender's smallest
//     unacked seq (`Message::seq_floor`); receivers keep only a floor plus
//     the sparse set of seen seqs above it, so dedup state is O(window)
//     per peer instead of growing with the whole conversation.
// Broadcasts bypass the window and keep the fixed retransmission
// schedule: the control plane is low-rate and a broadcast's pacing would
// otherwise be governed by its slowest peer.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "sim/node.hpp"

namespace decor::net {

struct ReliableLinkParams {
  /// Initial retransmission timeout; must cover one round trip
  /// (latency_base + jitter each way) plus the receiver's turnaround.
  double rto_initial = 0.05;
  /// Backoff multiplier applied per retransmission.
  double rto_backoff = 2.0;
  /// Ceiling on the backed-off timeout.
  double rto_max = 2.0;
  /// Uniform random fraction of the timeout added per (re)arm so
  /// synchronized losses do not produce synchronized retransmissions.
  double rto_jitter_frac = 0.25;
  /// Retransmissions before a silent peer is declared dead.
  std::uint32_t max_retries = 8;
  /// Maximum unicast frames in flight per peer. 1 selects the historical
  /// stop-and-wait-per-frame code path (byte-identical trajectories);
  /// values > 1 enable the sliding-window machinery above.
  std::uint32_t window = 1;
  /// Jacobson/Karels smoothing gains for srtt / rttvar (windowed mode).
  double rtt_alpha = 0.125;
  double rtt_beta = 0.25;
  /// Multiplicative decrease applied to cwnd on a unicast timeout.
  double aimd_decrease = 0.5;
  /// Purge the receiver-side dedup state of a peer when the sender side
  /// gives it up for dead (see forget_peer). Required for fault
  /// campaigns with reboots: a rebooted peer restarts its seq space at
  /// 1, and stale dedup state would silently swallow (and falsely ack)
  /// its fresh traffic. Off by default because re-opening the dedup
  /// window changes loss-only trajectories where give-ups are false
  /// alarms; the harnesses switch it on whenever a fault plan is active.
  bool purge_on_give_up = false;
};

/// Per-world ARQ accounting the harnesses surface in their run results
/// (the global common::metrics() counters aggregate across worlds, which
/// is the wrong granularity for per-run overhead reporting). The
/// simulator is single-threaded, so plain integers suffice.
struct ArqStats {
  std::uint64_t sent = 0;       // first transmissions of reliable frames
  std::uint64_t retx = 0;       // retransmissions
  std::uint64_t acks_sent = 0;  // kAck frames transmitted
  std::uint64_t acks_rx = 0;    // useful (non-stale) acks received
  std::uint64_t dup_drops = 0;  // duplicate frames suppressed at receivers
  std::uint64_t gave_up = 0;    // peers abandoned after max_retries
  /// Broadcasts whose expected-acker set was empty: a single best-effort
  /// transmission with no retransmission path. Counted separately from
  /// `sent` so retx-ratio denominators only contain frames the ARQ layer
  /// actually guaranteed.
  std::uint64_t best_effort = 0;
  /// Unicast sends deferred because the peer's window was full
  /// (windowed mode only).
  std::uint64_t queued = 0;
  /// Exchange outcomes, at pending-entry granularity. Together with the
  /// live in-flight depth they satisfy the conservation law the
  /// invariant monitor asserts during fault campaigns:
  ///   sent == completed + failed + abandoned + sum(in_flight() over
  ///           alive links)
  /// (`failed` counts give-ups per entry, unlike `gave_up` which counts
  /// per silent peer and per flushed queue frame.)
  std::uint64_t completed = 0;  // entries fully acknowledged
  std::uint64_t failed = 0;     // entries erased by retry exhaustion
  std::uint64_t abandoned = 0;  // entries discarded because the host died
};

class ReliableLink {
 public:
  /// Transmission hooks; the host owns addressing and ranges.
  /// `unicast` returns the radio's delivery verdict (false = dead or
  /// out-of-range destination, a hint the link uses to give up early is
  /// deliberately NOT taken from it — the protocol must not peek at
  /// ground truth, so the value is only surfaced to stats).
  using UnicastFn =
      std::function<bool(std::uint32_t dst, const sim::Message& msg)>;
  using BroadcastFn = std::function<void(const sim::Message& msg)>;
  using DeadPeerFn = std::function<void(std::uint32_t peer)>;

  ReliableLink(sim::NodeProcess& host, ReliableLinkParams params);

  void start(UnicastFn unicast, BroadcastFn broadcast,
             DeadPeerFn on_dead_peer);

  /// Optional per-world accounting sink (e.g. owned by a harness).
  void set_stats(ArqStats* stats) noexcept { stats_ = stats; }

  /// Reliable unicast: delivers `msg` to `dst` at-least-once, or reports
  /// `dst` dead. The message's seq is assigned here (window == 1) or at
  /// window admission (window > 1; the causality id is still minted
  /// here, at the original send decision).
  void send(std::uint32_t dst, sim::Message msg);

  /// Reliable broadcast: one transmission, acknowledged independently by
  /// every peer in `expected` (usually the host's current neighbor set).
  /// Retransmissions are broadcast again — duplicate suppression at the
  /// receivers makes that idempotent. An empty `expected` degenerates to
  /// a plain best-effort-observed broadcast (single tx, no retx),
  /// counted in ArqStats::best_effort. Broadcasts are never window-gated.
  void send_to_all(sim::Message msg, std::vector<std::uint32_t> expected);

  /// Receiver-side verdict for one incoming frame.
  enum class RxAction {
    kDeliver,     // fresh frame; host should process it
    kDuplicate,   // already delivered once; host must drop it
    kAckConsumed  // it was a kAck for this link; host must drop it
  };

  /// Routes one received frame through the ARQ layer: consumes kAck,
  /// acknowledges + dedupes sequenced frames, passes best-effort frames
  /// through untouched.
  RxAction on_frame(const sim::Message& msg);

  /// Outstanding (not yet fully acknowledged) reliable sends.
  std::size_t in_flight() const noexcept { return pending_.size(); }

  /// Drops the receiver-side dedup state held for `peer` (the seen-set
  /// in stop-and-wait mode, the floor + sparse set in windowed mode).
  /// Called when `peer` is declared dead or detected as rebooted: its
  /// next incarnation reuses the id with a fresh seq space, and stale
  /// dedup state would misread that fresh traffic as duplicates.
  void forget_peer(std::uint32_t peer);

  /// Host-death bookkeeping (SensorNode::on_stop): counts every pending
  /// entry as abandoned and clears sender state, so the ArqStats
  /// conservation law stays exact across kills and reboots.
  void host_died();

  /// Unicast frames queued behind full windows (windowed mode).
  std::size_t queued_frames() const noexcept;

  /// Receiver-side dedup entries currently held for `peer` — the sparse
  /// above-floor set in windowed mode, the full seen-set in stop-and-wait
  /// mode. Exposed so tests can assert the O(window) bound.
  std::size_t dedup_entries(std::uint32_t peer) const noexcept;

 private:
  struct Outstanding {
    sim::Message msg;
    std::vector<std::uint32_t> waiting;  // peers yet to acknowledge
    std::uint32_t attempt = 0;
    bool is_unicast = false;
    double first_tx_time = 0.0;   // windowed: Karn-filtered RTT sampling
    bool retransmitted = false;   // windowed: disqualifies the RTT sample
  };

  /// Per-peer sender state (windowed mode only).
  struct PeerTx {
    std::deque<sim::Message> queue;  // sends awaiting a window slot
    std::uint32_t in_flight = 0;     // unicast frames pending to this peer
    double cwnd = 1.0;               // AIMD congestion window (>= 1)
    double srtt = 0.0;
    double rttvar = 0.0;
    bool have_rtt = false;
  };

  /// Per-sender receiver state (windowed mode only): every seq <= floor
  /// has been seen; `above` holds the sparse seen seqs beyond it.
  struct RxPeer {
    std::uint32_t floor = 0;
    std::set<std::uint32_t> above;
  };

  bool windowed() const noexcept { return params_.window > 1; }
  std::uint32_t effective_window(const PeerTx& peer) const noexcept;
  void transmit(const Outstanding& o);
  void arm_timer(std::uint32_t seq);
  void on_timeout(std::uint32_t seq);
  void on_ack(std::uint32_t from, const sim::Message& msg);
  double timeout_for(std::uint32_t attempt);
  double timeout_for_unicast(const Outstanding& o);
  /// Assigns a seq and puts one unicast frame in flight (windowed mode).
  void admit(std::uint32_t dst, sim::Message msg);
  /// Admits queued frames while `dst`'s window has room (windowed mode).
  void service_queue(std::uint32_t dst);
  /// Clears one peer from one pending entry; returns true if it was
  /// waiting there (i.e. the ack was useful).
  bool clear_waiter(std::uint32_t seq, std::uint32_t from);
  /// Smallest unacked unicast seq pending to `dst` (windowed hint).
  std::uint32_t unacked_floor_hint(std::uint32_t dst) const;
  /// Smallest unacked seq across all pending frames (broadcast hint).
  std::uint32_t global_floor_hint() const;
  void note_rtt_sample(PeerTx& peer, double sample);
  void update_rx_floor(RxPeer& rx, std::uint32_t seq,
                       std::uint32_t hint) const;
  /// Records `seq` as seen from `src` (stop-and-wait dedup); false when
  /// it had been seen already.
  bool mark_seen(std::uint32_t src, std::uint32_t seq);

  sim::NodeProcess& host_;
  ReliableLinkParams params_;
  UnicastFn unicast_;
  BroadcastFn broadcast_;
  DeadPeerFn on_dead_peer_;
  ArqStats* stats_ = nullptr;

  std::uint32_t next_seq_ = 1;
  std::unordered_map<std::uint32_t, Outstanding> pending_;
  // Receiver-side duplicate suppression (stop-and-wait mode): one record
  // per sender, id-sorted, holding every seq seen from it in ascending
  // order. Sequence numbers are per-sender unique (one link per node), so
  // a seen-set per peer is exact; bounded in practice by the sender's
  // send count. Windowed receivers use rx_ instead, which is bounded.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> seen_;
  // Windowed-mode state. Ordered maps: iteration order must not depend
  // on hash quirks when hints are computed or queues serviced.
  std::map<std::uint32_t, PeerTx> peer_tx_;
  std::map<std::uint32_t, RxPeer> rx_;
};

}  // namespace decor::net
