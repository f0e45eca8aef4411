#include "net/reliable_link.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/metrics.hpp"
#include "common/require.hpp"
#include "net/id_sorted.hpp"
#include "net/messages.hpp"
#include "sim/world.hpp"

namespace decor::net {

namespace {

// Handles resolved once; each call then costs one relaxed atomic load
// when metrics are off (same pattern as sim/radio.cpp).
common::Counter& retx_counter() {
  static common::Counter& c = common::metrics().counter("net.arq.retx");
  return c;
}
common::Counter& ack_counter() {
  static common::Counter& c = common::metrics().counter("net.arq.acks");
  return c;
}
common::Counter& dup_counter() {
  static common::Counter& c = common::metrics().counter("net.arq.dup_drop");
  return c;
}
common::Counter& gave_up_counter() {
  static common::Counter& c = common::metrics().counter("net.arq.gave_up");
  return c;
}

constexpr std::uint32_t kNoSeq = std::numeric_limits<std::uint32_t>::max();

}  // namespace

ReliableLink::ReliableLink(sim::NodeProcess& host, ReliableLinkParams params)
    : host_(host), params_(params) {
  DECOR_REQUIRE_MSG(params_.rto_initial > 0.0, "rto must be positive");
  DECOR_REQUIRE_MSG(params_.rto_backoff >= 1.0,
                    "backoff must not shrink the timeout");
  DECOR_REQUIRE_MSG(params_.window >= 1, "window must be at least 1");
  DECOR_REQUIRE_MSG(params_.aimd_decrease > 0.0 && params_.aimd_decrease <= 1.0,
                    "aimd decrease must be in (0, 1]");
}

void ReliableLink::start(UnicastFn unicast, BroadcastFn broadcast,
                         DeadPeerFn on_dead_peer) {
  unicast_ = std::move(unicast);
  broadcast_ = std::move(broadcast);
  on_dead_peer_ = std::move(on_dead_peer);
}

double ReliableLink::timeout_for(std::uint32_t attempt) {
  double rto = params_.rto_initial;
  for (std::uint32_t i = 0; i < attempt && rto < params_.rto_max; ++i) {
    rto *= params_.rto_backoff;
  }
  rto = std::min(rto, params_.rto_max);
  if (params_.rto_jitter_frac > 0.0) {
    rto += host_.world().rng().uniform(0.0, params_.rto_jitter_frac * rto);
  }
  return rto;
}

double ReliableLink::timeout_for_unicast(const Outstanding& o) {
  // Adaptive base: Jacobson/Karels srtt + 4*rttvar once a Karn-valid
  // sample exists, clamped so a wildly early estimate cannot drop below
  // the configured initial RTO or exceed the ceiling. The configured
  // backoff + jitter still apply on top, attempt by attempt.
  double base = params_.rto_initial;
  const auto pit = peer_tx_.find(o.waiting.front());
  if (pit != peer_tx_.end() && pit->second.have_rtt) {
    base = std::clamp(pit->second.srtt + 4.0 * pit->second.rttvar,
                      params_.rto_initial, params_.rto_max);
  }
  double rto = base;
  for (std::uint32_t i = 0; i < o.attempt && rto < params_.rto_max; ++i) {
    rto *= params_.rto_backoff;
  }
  rto = std::min(rto, params_.rto_max);
  if (params_.rto_jitter_frac > 0.0) {
    rto += host_.world().rng().uniform(0.0, params_.rto_jitter_frac * rto);
  }
  return rto;
}

std::uint32_t ReliableLink::effective_window(
    const PeerTx& peer) const noexcept {
  const auto cw = static_cast<std::uint32_t>(peer.cwnd);
  return std::max<std::uint32_t>(1, std::min(params_.window, cw));
}

std::uint32_t ReliableLink::unacked_floor_hint(std::uint32_t dst) const {
  // Smallest pending seq this peer still owes an ack for — including
  // reliable broadcasts it is an expected acker of, so the hint can
  // never pass a frame the peer has not acknowledged.
  std::uint32_t lo = kNoSeq;
  for (const auto& [seq, o] : pending_) {
    if (std::find(o.waiting.begin(), o.waiting.end(), dst) ==
        o.waiting.end()) {
      continue;
    }
    lo = std::min(lo, seq);
  }
  return lo;
}

std::uint32_t ReliableLink::global_floor_hint() const {
  // A broadcast reaches peers with different unacked sets; the only hint
  // safe for all of them is the global minimum over pending frames.
  std::uint32_t lo = kNoSeq;
  for (const auto& [seq, o] : pending_) {
    if (!o.waiting.empty()) lo = std::min(lo, seq);
  }
  return lo;
}

void ReliableLink::send(std::uint32_t dst, sim::Message msg) {
  if (!windowed()) {
    // Stop-and-wait-per-frame: the historical protocol, kept verbatim so
    // window=1 trajectories stay byte-identical.
    const std::uint32_t seq = next_seq_++;
    msg.seq = seq;
    // Mint the causality id before the frame is stored: every
    // retransmission replays the stored copy, so the whole exchange
    // (send, retransmits, acks) shares one trace_id.
    if (msg.trace_id == 0) msg.trace_id = host_.world().mint_trace_id();
    Outstanding o;
    o.msg = msg;
    o.waiting = {dst};
    o.is_unicast = true;
    transmit(o);
    if (stats_) ++stats_->sent;
    pending_.emplace(seq, std::move(o));
    arm_timer(seq);
    return;
  }
  // Windowed: the causality id is minted at the send decision, but the
  // seq is assigned at window admission so per-peer seqs reflect actual
  // transmission order.
  if (msg.trace_id == 0) msg.trace_id = host_.world().mint_trace_id();
  const auto [pit, inserted] = peer_tx_.try_emplace(dst);
  PeerTx& peer = pit->second;
  if (inserted) peer.cwnd = static_cast<double>(params_.window);
  if (peer.in_flight >= effective_window(peer)) {
    peer.queue.push_back(std::move(msg));
    if (stats_) ++stats_->queued;
    return;
  }
  admit(dst, std::move(msg));
}

void ReliableLink::admit(std::uint32_t dst, sim::Message msg) {
  const std::uint32_t seq = next_seq_++;
  msg.seq = seq;
  Outstanding o;
  o.msg = std::move(msg);
  o.waiting = {dst};
  o.is_unicast = true;
  o.first_tx_time = host_.world().sim().now();
  o.msg.seq_floor = std::min(seq, unacked_floor_hint(dst));
  transmit(o);
  if (stats_) ++stats_->sent;
  pending_.emplace(seq, std::move(o));
  ++peer_tx_[dst].in_flight;
  arm_timer(seq);
}

void ReliableLink::service_queue(std::uint32_t dst) {
  const auto it = peer_tx_.find(dst);
  if (it == peer_tx_.end()) return;
  PeerTx& peer = it->second;
  while (!peer.queue.empty() && peer.in_flight < effective_window(peer)) {
    sim::Message msg = std::move(peer.queue.front());
    peer.queue.pop_front();
    admit(dst, std::move(msg));
  }
}

void ReliableLink::send_to_all(sim::Message msg,
                               std::vector<std::uint32_t> expected) {
  const std::uint32_t seq = next_seq_++;
  msg.seq = seq;
  if (msg.trace_id == 0) msg.trace_id = host_.world().mint_trace_id();
  // A peer cannot ack itself; drop self-entries defensively.
  std::erase(expected, host_.id());
  Outstanding o;
  o.msg = std::move(msg);
  o.waiting = std::move(expected);
  o.is_unicast = false;
  if (windowed()) o.msg.seq_floor = std::min(seq, global_floor_hint());
  transmit(o);
  if (o.waiting.empty()) {
    // Nobody to wait for: a single best-effort transmission with no
    // retransmission path — not a reliable send, so it must not dilute
    // the retx-ratio denominator.
    if (stats_) ++stats_->best_effort;
    return;
  }
  if (stats_) ++stats_->sent;
  pending_.emplace(seq, std::move(o));
  arm_timer(seq);
}

void ReliableLink::transmit(const Outstanding& o) {
  if (o.is_unicast) {
    // The radio's verdict (dead / out-of-range) is ground truth the
    // protocol must not act on; delivery failures surface as missing
    // acks and bounded retries instead.
    (void)unicast_(o.waiting.front(), o.msg);
  } else {
    broadcast_(o.msg);
  }
}

void ReliableLink::arm_timer(std::uint32_t seq) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  const Outstanding& o = it->second;
  const double rto = (windowed() && o.is_unicast) ? timeout_for_unicast(o)
                                                  : timeout_for(o.attempt);
  host_.world().sim().schedule(rto, [this, seq] { on_timeout(seq); });
}

void ReliableLink::on_timeout(std::uint32_t seq) {
  if (!host_.alive()) return;
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // fully acknowledged meanwhile
  Outstanding& o = it->second;
  if (o.attempt >= params_.max_retries) {
    // Retry budget exhausted: every silent peer is presumed dead. Copy
    // the list out first — the callback may re-enter the link.
    const std::vector<std::uint32_t> dead = o.waiting;
    const bool was_unicast = o.is_unicast;
    pending_.erase(it);
    if (stats_) ++stats_->failed;
    for (std::uint32_t peer : dead) {
      if (stats_) ++stats_->gave_up;
      gave_up_counter().inc();
      if (windowed() && was_unicast) {
        const auto pit = peer_tx_.find(peer);
        if (pit != peer_tx_.end()) {
          if (pit->second.in_flight > 0) --pit->second.in_flight;
          // Frames queued behind the dead peer's window will never be
          // admitted; flush them as abandoned deliveries.
          for (std::size_t i = 0; i < pit->second.queue.size(); ++i) {
            if (stats_) ++stats_->gave_up;
            gave_up_counter().inc();
          }
          pit->second.queue.clear();
        }
      }
      if (params_.purge_on_give_up) forget_peer(peer);
      if (on_dead_peer_) on_dead_peer_(peer);
    }
    return;
  }
  ++o.attempt;
  if (stats_) ++stats_->retx;
  retx_counter().inc();
  if (windowed()) {
    o.retransmitted = true;  // Karn: its RTT sample is now ambiguous
    if (o.is_unicast) {
      PeerTx& peer = peer_tx_[o.waiting.front()];
      peer.cwnd = std::max(1.0, peer.cwnd * params_.aimd_decrease);
      o.msg.seq_floor =
          std::min(seq, unacked_floor_hint(o.waiting.front()));
    } else {
      o.msg.seq_floor = std::min(seq, global_floor_hint());
    }
  }
  transmit(o);
  arm_timer(seq);
}

bool ReliableLink::clear_waiter(std::uint32_t seq, std::uint32_t from) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return false;  // stale ack (late duplicate)
  Outstanding& o = it->second;
  const auto pos = std::find(o.waiting.begin(), o.waiting.end(), from);
  if (pos == o.waiting.end()) return false;  // duplicate ack
  o.waiting.erase(pos);
  if (stats_) ++stats_->acks_rx;
  ack_counter().inc();
  if (o.waiting.empty()) {
    if (windowed() && o.is_unicast) {
      const auto pit = peer_tx_.find(from);
      if (pit != peer_tx_.end() && pit->second.in_flight > 0) {
        --pit->second.in_flight;
      }
    }
    pending_.erase(it);
    if (stats_) ++stats_->completed;
  }
  return true;
}

void ReliableLink::note_rtt_sample(PeerTx& peer, double sample) {
  if (sample <= 0.0) return;
  if (!peer.have_rtt) {
    peer.srtt = sample;
    peer.rttvar = sample / 2.0;
    peer.have_rtt = true;
    return;
  }
  const double err = sample - peer.srtt;
  peer.srtt += params_.rtt_alpha * err;
  peer.rttvar += params_.rtt_beta * (std::abs(err) - peer.rttvar);
}

void ReliableLink::on_ack(std::uint32_t from, const sim::Message& ack_msg) {
  const auto& ack = ack_msg.as<AckPayload>();
  if (!windowed()) {
    (void)clear_waiter(ack.seq, from);
    return;
  }
  // Direct ack first — the RTT sample and AIMD growth need the entry's
  // bookkeeping before it is cleared.
  const auto it = pending_.find(ack.seq);
  if (it != pending_.end() && it->second.is_unicast &&
      !it->second.waiting.empty() && it->second.waiting.front() == from) {
    PeerTx& peer = peer_tx_[from];
    if (!it->second.retransmitted) {
      note_rtt_sample(peer,
                      host_.world().sim().now() - it->second.first_tx_time);
    }
    peer.cwnd = std::min(static_cast<double>(params_.window),
                         peer.cwnd + 1.0 / std::max(1.0, peer.cwnd));
  }
  (void)clear_waiter(ack.seq, from);
  if (ack.cum > 0) {
    // Cumulative pass: the receiver has seen everything <= cum, so this
    // peer can be cleared from any pending frame at or below it (its
    // dedicated ack was lost). Collect + sort first: clearing mutates
    // pending_, and admission order must not depend on hash-map
    // iteration order.
    std::vector<std::uint32_t> cleared;
    for (const auto& [seq, o] : pending_) {
      if (seq > ack.cum) continue;
      if (std::find(o.waiting.begin(), o.waiting.end(), from) !=
          o.waiting.end()) {
        cleared.push_back(seq);
      }
    }
    std::sort(cleared.begin(), cleared.end());
    for (const std::uint32_t seq : cleared) (void)clear_waiter(seq, from);
  }
  service_queue(from);
}

void ReliableLink::update_rx_floor(RxPeer& rx, std::uint32_t /*seq*/,
                                   std::uint32_t hint) const {
  // The sender vouches that everything below `hint` is acked (by every
  // peer it was waiting on), so the floor may jump there directly...
  if (hint > 0) rx.floor = std::max(rx.floor, hint - 1);
  // ...and contiguously-seen seqs extend it further, pruning the sparse
  // set as they go.
  while (!rx.above.empty() && *rx.above.begin() <= rx.floor + 1) {
    if (*rx.above.begin() == rx.floor + 1) ++rx.floor;
    rx.above.erase(rx.above.begin());
  }
}

ReliableLink::RxAction ReliableLink::on_frame(const sim::Message& msg) {
  if (msg.kind == kAck) {
    on_ack(msg.src, msg);
    return RxAction::kAckConsumed;
  }
  if (msg.seq == 0) return RxAction::kDeliver;  // best-effort frame
  if (!windowed()) {
    // Always acknowledge — the previous ack may have been the lost
    // frame. The ack inherits the frame's causality id: it is the return
    // leg of the same exchange, not a new one.
    sim::Message ack = sim::Message::make(host_.id(), kAck,
                                          AckPayload{msg.seq},
                                          wire_size(kAck));
    ack.trace_id = msg.trace_id;
    (void)unicast_(msg.src, ack);
    if (stats_) ++stats_->acks_sent;
    if (!mark_seen(msg.src, msg.seq)) {
      if (stats_) ++stats_->dup_drops;
      dup_counter().inc();
      return RxAction::kDuplicate;
    }
    return RxAction::kDeliver;
  }
  // Windowed receiver: floor + sparse above-floor set, bounded by the
  // sender's window instead of its whole send history. A frame below the
  // floor can only be a duplicate of something already delivered here —
  // or a late first copy of a broadcast this node was never an expected
  // acker of, which has best-effort semantics for this node anyway.
  RxPeer& rx = rx_[msg.src];
  const bool dup = msg.seq <= rx.floor || rx.above.count(msg.seq) > 0;
  if (!dup) rx.above.insert(msg.seq);
  update_rx_floor(rx, msg.seq, msg.seq_floor);
  sim::Message ack = sim::Message::make(host_.id(), kAck,
                                        AckPayload{msg.seq, rx.floor},
                                        wire_size(kAck));
  ack.trace_id = msg.trace_id;
  (void)unicast_(msg.src, ack);
  if (stats_) ++stats_->acks_sent;
  if (dup) {
    if (stats_) ++stats_->dup_drops;
    dup_counter().inc();
    return RxAction::kDuplicate;
  }
  return RxAction::kDeliver;
}

bool ReliableLink::mark_seen(std::uint32_t src, std::uint32_t seq) {
  auto peer = lower_by_id(seen_, src);
  if (peer == seen_.end() || peer->first != src) {
    peer = seen_.insert(peer, {src, {}});
  }
  std::vector<std::uint32_t>& seqs = peer->second;
  // A sender's seqs mostly arrive in order: the common case appends.
  if (seqs.empty() || seqs.back() < seq) {
    seqs.push_back(seq);
    return true;
  }
  const auto at = std::lower_bound(seqs.begin(), seqs.end(), seq);
  if (at != seqs.end() && *at == seq) return false;
  seqs.insert(at, seq);
  return true;
}

void ReliableLink::forget_peer(std::uint32_t peer) {
  const auto it = find_by_id(seen_, peer);
  if (it != seen_.end()) seen_.erase(it);
  rx_.erase(peer);
}

void ReliableLink::host_died() {
  if (stats_) stats_->abandoned += pending_.size();
  pending_.clear();
  // Queued frames were never counted as sent, so dropping them needs no
  // stats transfer; zeroing in_flight keeps the sender state coherent if
  // a late ack event still probes it.
  for (auto& [dst, peer] : peer_tx_) {
    peer.queue.clear();
    peer.in_flight = 0;
  }
}

std::size_t ReliableLink::queued_frames() const noexcept {
  std::size_t n = 0;
  for (const auto& [dst, peer] : peer_tx_) n += peer.queue.size();
  return n;
}

std::size_t ReliableLink::dedup_entries(std::uint32_t peer) const noexcept {
  if (windowed()) {
    const auto it = rx_.find(peer);
    return it == rx_.end() ? 0 : it->second.above.size();
  }
  const auto it = find_by_id(seen_, peer);
  return it == seen_.end() ? 0 : it->second.size();
}

}  // namespace decor::net
