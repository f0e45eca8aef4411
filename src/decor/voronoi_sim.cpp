#include "decor/voronoi_sim.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/metrics.hpp"
#include "coverage/benefit_index.hpp"
#include "decor/protocol_node.hpp"
#include "net/messages.hpp"

namespace decor::core {

struct VoronoiSimHarness::Shared : NodeShared {
  double check_interval = 0.5;
};

namespace {

class DecorVoronoiSimNode final : public net::SensorNode {
 public:
  using Shared = VoronoiSimHarness::Shared;

  explicit DecorVoronoiSimNode(std::shared_ptr<Shared> shared)
      : net::SensorNode(shared->node), shared_(std::move(shared)) {}

  void on_start() override {
    net::SensorNode::on_start();
    // Phase jitter de-synchronizes the per-node check loops.
    const double phase =
        world().rng().uniform(0.0, shared_->check_interval);
    set_timer(shared_->check_interval + phase, [this] { tick(); });
  }

 protected:
  void handle_message(const sim::Message& msg) override {
    if (msg.kind == net::kPlacement) {
      const auto& p = msg.as<net::PlacementPayload>();
      // The announcement that deployed *this very node* is not an extra
      // device — we already count ourselves, and crediting it deadlocks
      // a k>1 point with a permanent phantom. A later co-located sibling
      // is heard through its own HELLO/heartbeats instead.
      if (p.pos == pos()) return;
      // Remember out-of-range-for-HELLO deployments whose discs can
      // still cover our points; in-range nodes arrive via HELLO.
      if (geom::distance(p.pos, pos()) <= params_.rc + shared_->params.rs) {
        ++notices_[PosKey{p.pos.x, p.pos.y}];
      }
    }
  }

  void on_neighbor_failed(std::uint32_t, geom::Point2 last_pos) override {
    // The device at last_pos is gone: retire one per-device claim there
    // (a deployment of ours, else a placement notice). Claims outlive
    // the neighbor table, so without this the dead node's coverage
    // lives on as a phantom and the hole never heals.
    const PosKey key{last_pos.x, last_pos.y};
    if (auto it = my_placements_.find(key); it != my_placements_.end()) {
      if (--it->second == 0) my_placements_.erase(it);
    } else if (auto it2 = notices_.find(key); it2 != notices_.end()) {
      if (--it2->second == 0) notices_.erase(it2);
    }
    // Ownership and coverage both changed; the next tick recomputes.
    idle_streak_ = 0;
  }

 private:
  /// Points of my local Voronoi cell: within rc, closer to me than to
  /// any neighbor I can hear (ties break to the lower node id).
  std::vector<std::uint32_t> owned_points() const {
    std::vector<std::uint32_t> out;
    const auto neighbors = table_.snapshot();
    shared_->points->for_each_in_disc(
        pos(), params_.rc, [&](std::size_t pid) {
          const geom::Point2 p = shared_->points->point(pid);
          const double d_self = geom::distance_sq(p, pos());
          for (const auto& [nid, entry] : neighbors) {
            const double d_nb = geom::distance_sq(p, entry.pos);
            if (d_nb < d_self || (d_nb == d_self && nid < id())) return;
          }
          out.push_back(static_cast<std::uint32_t>(pid));
        });
    return out;
  }

  /// Believed coverage of the given points from everything this node can
  /// hear (multiplicity preserved; see sim_runner.cpp for why).
  std::unordered_map<std::size_t, std::uint32_t> believed_coverage(
      const std::vector<std::uint32_t>& pids) const {
    std::unordered_map<std::size_t, std::uint32_t> counts;
    counts.reserve(pids.size());
    for (auto pid : pids) counts.emplace(pid, 0);

    std::vector<std::pair<geom::Point2, std::uint32_t>> contributors;
    contributors.emplace_back(pos(), 1);
    std::unordered_map<PosKey, std::uint32_t, PosKeyHash> heard_at;
    for (const auto& [nid, entry] : table_.snapshot()) {
      (void)nid;
      contributors.emplace_back(entry.pos, 1);
      ++heard_at[PosKey{entry.pos.x, entry.pos.y}];
    }
    for (const auto& [key, placed] : my_placements_) {
      const auto it = heard_at.find(key);
      const std::uint32_t heard = it == heard_at.end() ? 0 : it->second;
      if (placed > heard) {
        contributors.emplace_back(geom::Point2{key.x, key.y},
                                  placed - heard);
      }
    }
    for (const auto& [key, n] : notices_) {
      // Skip notices already represented by a heard neighbor there.
      const auto it = heard_at.find(key);
      const std::uint32_t heard = it == heard_at.end() ? 0 : it->second;
      if (n > heard) {
        contributors.emplace_back(geom::Point2{key.x, key.y}, n - heard);
      }
    }

    for (const auto& [c, mult] : contributors) {
      shared_->points->for_each_in_disc(
          c, shared_->params.rs, [&](std::size_t pid) {
            auto it = counts.find(pid);
            if (it != counts.end()) it->second += mult;
          });
    }
    return counts;
  }

  void tick() {
    const auto mine = owned_points();
    const auto counts = believed_coverage(mine);

    // Max-benefit uncovered owned point (Equation 1 over my cell; points
    // outside the cell neither contribute nor qualify).
    const auto choice = coverage::BenefitIndex::choose_believed(
        *shared_->points, shared_->params.rs, shared_->params.k, mine,
        [&](std::size_t pid) -> std::optional<std::uint32_t> {
          const auto it = counts.find(pid);
          if (it == counts.end()) return std::nullopt;
          return it->second;
        });

    if (choice) {
      const auto& best = choice->best;
      const geom::Point2 best_pos = shared_->points->point(best.point);
      idle_streak_ = 0;
      ++my_placements_[PosKey{best_pos.x, best_pos.y}];
      shared_->harness->spawn_node(best_pos);
      // A neighbor that misses this places on top of the new node, so
      // the announcement is ARQed; dedup keeps retransmissions from
      // inflating notice multiplicity.
      auto msg = sim::Message::make(id(), net::kPlacement,
                                    net::PlacementPayload{best_pos, 0},
                                    net::wire_size(net::kPlacement));
      if (shared_->audit != nullptr) {
        // Pre-mint the exchange's trace id so the audit row joins onto
        // the causal trace of its own announcement.
        msg.trace_id = world().mint_trace_id();
        std::uint64_t newly = 0;
        for (const auto& [pid, c] : counts) {
          if (c + 1 != shared_->params.k) continue;
          if (geom::distance_sq(shared_->points->point(pid), best_pos) <=
              shared_->params.rs * shared_->params.rs) {
            ++newly;
          }
        }
        shared_->audit->record({world().sim().now(), id(), -1, "benefit",
                                best.point, best_pos, best.benefit,
                                choice->runner_up, choice->scanned, newly,
                                msg.trace_id});
      }
      broadcast_reliable(msg);
    } else {
      ++idle_streak_;
    }
    // Idle nodes back off exponentially (up to 8x) so a converged
    // network costs little; failures reset the streak.
    const double backoff =
        static_cast<double>(1u << std::min(idle_streak_, 3u));
    set_timer(shared_->check_interval * backoff, [this] { tick(); });
  }

  std::shared_ptr<Shared> shared_;
  std::unordered_map<PosKey, std::uint32_t, PosKeyHash> notices_;
  std::unordered_map<PosKey, std::uint32_t, PosKeyHash> my_placements_;
  std::uint32_t idle_streak_ = 0;
};

}  // namespace

VoronoiSimHarness::VoronoiSimHarness(VoronoiSimConfig cfg)
    : ProtocolHarness(cfg, cfg.params.rc, "voronoi"),
      shared_(std::make_shared<Shared>()),
      stall_timeout_(cfg.stall_timeout) {
  shared_->check_interval = cfg.check_interval;
  finish_setup(shared_);
}

std::unique_ptr<net::SensorNode> VoronoiSimHarness::make_node() {
  return std::make_unique<DecorVoronoiSimNode>(shared_);
}

std::function<void()> VoronoiSimHarness::make_stall_check() {
  // Shared by every copy of this run's poll; a later run starts afresh.
  struct Progress {
    std::size_t last_covered = 0;
    double last_progress = 0.0;
  };
  auto progress = std::make_shared<Progress>(Progress{0, world().sim().now()});
  return [this, progress] {
    const std::size_t covered = map().num_covered(config().params.k);
    if (covered > progress->last_covered) {
      progress->last_covered = covered;
      progress->last_progress = world().sim().now();
    } else if (world().sim().now() - progress->last_progress >=
               stall_timeout_) {
      watchdog_seed();
      progress->last_progress = world().sim().now();
    }
  };
}

void VoronoiSimHarness::watchdog_seed() {
  // Only unowned uncovered points stall the protocol; drop a starter at
  // the uncovered point nearest to the deployed network (or the first
  // uncovered point when the field is empty).
  const auto& cfg = config();
  const auto& index = map().index();
  geom::Point2 best_pos{};
  std::uint64_t best_pid = 0;
  double best_d = std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::size_t pid = 0; pid < index.size(); ++pid) {
    if (map().kp(pid) >= cfg.params.k) continue;
    const geom::Point2 p = index.point(pid);
    double d = 0.0;
    if (world().alive_count() > 0) {
      d = std::numeric_limits<double>::infinity();
      for (double r = cfg.params.rc;; r *= 2.0) {
        world().index().for_each_in_disc(
            p, r, [&](std::uint32_t, geom::Point2 spos) {
              d = std::min(d, geom::distance_sq(p, spos));
            });
        if (d < std::numeric_limits<double>::infinity()) break;
        if (r > 4.0 * (cfg.params.field.width() +
                       cfg.params.field.height())) {
          break;
        }
      }
    }
    if (!found || d < best_d) {
      best_d = d;
      best_pos = p;
      best_pid = pid;
      found = true;
    }
  }
  if (found) {
    world().trace().record(world().sim().now(), sim::TraceKind::kProtocol, 0,
                           "watchdog_seed");
    // The stall itself is evidence worth keeping: the bundle captures the
    // state that forced manual (robot) intervention.
    if (!cfg.flight_dir.empty()) {
      dump_flight_bundle("watchdog", "stalled; seeding frontier");
    }
    if (shared_->audit != nullptr) {
      // The watchdog is the harness (the paper's robot), not a node: no
      // actor id, no benefit scan, no announcement to trace.
      shared_->audit->record({world().sim().now(), 0, -1, "watchdog",
                              best_pid, best_pos, 0, 0, 0, 0, 0});
    }
    spawn_node(best_pos);
    ++seeded_;
  }
}

VoronoiSimResult VoronoiSimHarness::run() {
  const std::size_t seeded_before = seeded_;
  VoronoiSimResult result{run_protocol()};
  result.seeded_nodes = seeded_;
  if (common::metrics_enabled()) {
    common::metrics()
        .counter("protocol.voronoi.seeded")
        .inc(seeded_ - seeded_before);
  }
  return result;
}

VoronoiSimResult run_voronoi_decor_sim(const VoronoiSimConfig& cfg) {
  VoronoiSimHarness harness(cfg);
  return harness.run();
}

}  // namespace decor::core
