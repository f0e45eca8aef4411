#include "decor/sim_runner.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <unordered_map>
#include <unordered_set>

#include "coverage/benefit_index.hpp"
#include "decor/protocol_node.hpp"
#include "net/messages.hpp"

namespace decor::core {

struct GridSimHarness::Shared : NodeShared {
  geom::GridPartition partition;
  double placement_interval = 0.5;
  double seed_check_interval = 5.0;
  double silence_threshold = 5.0;
  net::ElectionParams election;
  /// Cell -> id of the node that most recently became that cell's leader
  /// (self-registration; used only for chaos targeting). Ordered so the
  /// leader-kill picks deterministically.
  std::map<std::uint32_t, std::uint32_t> cell_leader;

  // Per-cell point ids and the inverse maps (cell/slot of each point) —
  // static field knowledge every node shares (the point set is generated
  // deterministically, Section 3.2).
  std::vector<std::vector<std::uint32_t>> cell_points;
  std::vector<std::uint32_t> point_cell;
  std::vector<std::uint32_t> point_slot;

  explicit Shared(const SimRunConfig& cfg)
      : partition(cfg.params.field, cfg.params.cell_side),
        placement_interval(cfg.placement_interval),
        seed_check_interval(cfg.seed_check_interval),
        silence_threshold(cfg.heartbeat.period * cfg.heartbeat.timeout_periods +
                          1.0),
        election(cfg.election) {}

  void index_points(const geom::PointGridIndex& index) {
    cell_points.assign(partition.num_cells(), {});
    point_cell.resize(index.size());
    point_slot.resize(index.size());
    for (std::size_t id = 0; id < index.size(); ++id) {
      const auto c =
          static_cast<std::uint32_t>(partition.cell_of(index.point(id)));
      point_cell[id] = c;
      point_slot[id] =
          static_cast<std::uint32_t>(cell_points[c].size());
      cell_points[c].push_back(static_cast<std::uint32_t>(id));
    }
  }
};

namespace {

class DecorGridSimNode final : public net::SensorNode {
 public:
  using Shared = GridSimHarness::Shared;

  explicit DecorGridSimNode(std::shared_ptr<Shared> shared)
      : net::SensorNode(shared->node), shared_(std::move(shared)) {}

  void on_start() override {
    cell_ = static_cast<std::uint32_t>(shared_->partition.cell_of(pos()));
    net::SensorNode::on_start();
    election_ = std::make_unique<net::LeaderElection>(*this, cell_,
                                                      shared_->election);
    election_->start(
        [this](const net::ElectPayload& p) {
          // Bids stay best-effort: every member bids each term and a
          // lost bid only biases one rotation, never correctness.
          broadcast(sim::Message::make(id(), net::kElect, p,
                                       net::wire_size(net::kElect)),
                    params_.rc);
        },
        [this](const net::LeaderPayload& p) {
          // The winner announcement is control plane: a member that
          // misses it self-elects and splits the cell, so it is ARQed.
          broadcast_reliable(sim::Message::make(
              id(), net::kLeader, p, net::wire_size(net::kLeader)));
        },
        [this](std::uint32_t, bool is_self) {
          if (is_self) became_leader();
        });
  }

  /// Invariant-monitor probes (the monitor's leader-uniqueness check
  /// counts converged leaders across the alive population).
  bool is_cell_leader() const noexcept {
    return election_ != nullptr && election_->is_leader();
  }
  std::uint32_t cell() const noexcept { return cell_; }

 protected:
  std::uint32_t heartbeat_cell() const override { return cell_; }

  void handle_message(const sim::Message& msg) override {
    switch (msg.kind) {
      case net::kHeartbeat:
        note_cell(msg.as<net::HeartbeatPayload>().cell);
        break;
      case net::kElect: {
        const auto& p = msg.as<net::ElectPayload>();
        note_cell(p.cell);
        election_->on_elect(msg.src, p);
        break;
      }
      case net::kLeader: {
        const auto& p = msg.as<net::LeaderPayload>();
        note_cell(p.cell);
        election_->on_leader_msg(msg.src, p);
        break;
      }
      case net::kCoverageQuery: {
        const auto& q = msg.as<net::CoverageQueryPayload>();
        if (q.cell == cell_) break;  // own cell: nothing to replay
        // Replay our placements whose discs reach the querier's cell so
        // its new leader does not re-cover them.
        const auto target = shared_->partition.rect_of(q.cell);
        for (const auto& [key, count] : my_placements_) {
          const geom::Point2 p{key.x, key.y};
          if (!target.intersects_disc(p, shared_->params.rs)) continue;
          for (std::uint32_t c = 0; c < count; ++c) {
            // The querier bootstraps its belief from these replays; a
            // lost one would re-cover the point, so each is ARQed.
            send_reliable(msg.src,
                          sim::Message::make(
                              id(), net::kPlacement,
                              net::PlacementPayload{p, cell_},
                              net::wire_size(net::kPlacement)));
          }
        }
        break;
      }
      case net::kPlacement: {
        const auto& p = msg.as<net::PlacementPayload>();
        note_cell(p.origin_cell);
        if (p.origin_cell == cell_) break;  // in-cell nodes arrive via HELLO
        // Remember cross-boundary deployments that can cover our points.
        if (shared_->partition.rect_of(cell_).intersects_disc(
                p.pos, shared_->params.rs)) {
          ++notices_[PosKey{p.pos.x, p.pos.y}];
        }
        break;
      }
      default:
        break;
    }
  }

  void on_neighbor_failed(std::uint32_t /*id*/,
                          geom::Point2 last_pos) override {
    // The device at last_pos is gone: retire one per-device claim there
    // (an unheard deployment of ours for in-cell positions, a placement
    // notice for cross-boundary ones). Claims outlive the neighbor
    // table, so without this a sole-member cell — where leadership never
    // rotates to a fresh belief — keeps the dead node's coverage as a
    // phantom and the hole never heals.
    const PosKey key{last_pos.x, last_pos.y};
    if (shared_->partition.cell_of(last_pos) == cell_) {
      if (auto it = my_placements_.find(key); it != my_placements_.end()) {
        if (--it->second == 0) my_placements_.erase(it);
      }
      // A dead in-cell sensor may have opened a hole; the leader
      // re-checks.
      if (election_ && election_->is_leader()) ensure_loop();
    } else if (auto it = notices_.find(key); it != notices_.end()) {
      if (--it->second == 0) notices_.erase(it);
      if (election_ && election_->is_leader()) ensure_loop();
    }
  }

 private:
  void note_cell(std::uint32_t cell) {
    cell_last_heard_[cell] = world().sim().now();
    // Hearing from a cell re-arms seeding: if the cell later dies again
    // (a second disaster), it can be re-seeded.
    seeded_cells_.erase(cell);
  }

  void became_leader() {
    shared_->cell_leader[cell_] = id();  // chaos-targeting registry
    // A fresh leader may have missed earlier cross-boundary placements
    // (it could have been deployed after they were announced): query the
    // neighborhood once; established leaders replay what they placed
    // into our area (Section 3.3's boundary-information exchange).
    if (!queried_neighbors_) {
      queried_neighbors_ = true;
      broadcast_reliable(sim::Message::make(
          id(), net::kCoverageQuery, net::CoverageQueryPayload{cell_},
          net::wire_size(net::kCoverageQuery)));
    }
    ensure_loop();
    if (!seed_loop_active_) {
      seed_loop_active_ = true;
      // Random phase staggers the checks across leaders so a silent cell
      // is usually seeded once: the first seeder's heartbeats reach the
      // other candidates before their own checks fire.
      const double phase =
          world().rng().uniform(0.0, shared_->seed_check_interval);
      set_timer(shared_->seed_check_interval + phase,
                [this] { seed_check(); });
    }
  }

  void ensure_loop() {
    if (loop_active_) return;
    loop_active_ = true;
    set_timer(shared_->placement_interval, [this] { placement_tick(); });
  }

  /// The leader's belief of its cell's coverage, rebuilt from what it can
  /// hear: itself, in-cell neighbors, its own not-yet-heard deployments
  /// and the cross-boundary placement notices. Multiplicity matters —
  /// k-coverage routinely stacks several sensors on the same point — so
  /// contributors are counted per entity, never deduped by position.
  std::vector<std::uint32_t> local_counts() const {
    const auto& cell_pts = shared_->cell_points[cell_];
    std::vector<std::uint32_t> counts(cell_pts.size(), 0);

    std::vector<std::pair<geom::Point2, std::uint32_t>> contributors;
    contributors.emplace_back(pos(), 1);

    // In-cell neighbors, each a distinct device (table is keyed by id).
    std::unordered_map<PosKey, std::uint32_t, PosKeyHash> heard_at;
    for (const auto& [nid, entry] : table_.snapshot()) {
      (void)nid;
      if (shared_->partition.cell_of(entry.pos) != cell_) continue;
      contributors.emplace_back(entry.pos, 1);
      ++heard_at[PosKey{entry.pos.x, entry.pos.y}];
    }
    // Deployments of ours the table has not confirmed yet (their HELLO is
    // still in flight): count the surplus over what we already hear.
    for (const auto& [key, placed] : my_placements_) {
      const auto it = heard_at.find(key);
      const std::uint32_t heard = it == heard_at.end() ? 0 : it->second;
      if (placed > heard) {
        contributors.emplace_back(geom::Point2{key.x, key.y},
                                  placed - heard);
      }
    }
    // Cross-boundary notices: one per placement message, multiplicity
    // preserved (out-of-cell nodes never appear in the in-cell set).
    for (const auto& [key, n] : notices_) {
      contributors.emplace_back(geom::Point2{key.x, key.y}, n);
    }

    for (const auto& [c, mult] : contributors) {
      shared_->points->for_each_in_disc(
          c, shared_->params.rs, [&](std::size_t pid) {
            if (shared_->point_cell[pid] == cell_) {
              counts[shared_->point_slot[pid]] += mult;
            }
          });
    }
    return counts;
  }

  void placement_tick() {
    if (!election_ || !election_->is_leader()) {
      loop_active_ = false;
      return;
    }
    const auto counts = local_counts();
    const auto& cell_pts = shared_->cell_points[cell_];

    // Max-benefit uncovered point of this cell (Algorithm 1): Equation 1
    // over the leader's belief, restricted to the points it owns.
    const auto choice = coverage::BenefitIndex::choose_believed(
        *shared_->points, shared_->params.rs, shared_->params.k, cell_pts,
        [&](std::size_t pid) -> std::optional<std::uint32_t> {
          if (shared_->point_cell[pid] != cell_) return std::nullopt;
          return counts[shared_->point_slot[pid]];
        });
    if (!choice) {
      loop_active_ = false;  // cell satisfied; failures re-arm the loop
      return;
    }
    const auto& best = choice->best;
    const geom::Point2 best_pos = shared_->points->point(best.point);
    ++my_placements_[PosKey{best_pos.x, best_pos.y}];
    shared_->harness->spawn_node(best_pos);
    // A lost placement notification makes adjacent leaders re-cover the
    // boundary, so it is ARQed to every known neighbor; receiver-side
    // dedup keeps retransmissions from inflating notice multiplicity.
    auto msg = sim::Message::make(id(), net::kPlacement,
                                  net::PlacementPayload{best_pos, cell_},
                                  net::wire_size(net::kPlacement));
    if (shared_->audit != nullptr) {
      // Pre-mint the exchange's trace id so the audit row joins onto the
      // causal trace of its own announcement (send paths mint only when
      // the id is still zero).
      msg.trace_id = world().mint_trace_id();
      std::uint64_t newly = 0;
      shared_->points->for_each_in_disc(
          best_pos, shared_->params.rs, [&](std::size_t pid) {
            if (shared_->point_cell[pid] != cell_) return;
            if (counts[shared_->point_slot[pid]] + 1 == shared_->params.k) {
              ++newly;
            }
          });
      shared_->audit->record({world().sim().now(), id(), cell_, "benefit",
                              best.point, best_pos, best.benefit,
                              choice->runner_up, choice->scanned, newly,
                              msg.trace_id});
    }
    broadcast_reliable(msg);
    set_timer(shared_->placement_interval, [this] { placement_tick(); });
  }

  void seed_check() {
    if (!election_ || !election_->is_leader()) {
      seed_loop_active_ = false;
      return;
    }
    const sim::Time now = world().sim().now();
    for (std::size_t nb : shared_->partition.neighbors_of(cell_)) {
      const auto c = static_cast<std::uint32_t>(nb);
      if (shared_->cell_points[c].empty()) continue;
      if (seeded_cells_.count(c) != 0) continue;
      const auto it = cell_last_heard_.find(c);
      const sim::Time last = it == cell_last_heard_.end() ? 0.0 : it->second;
      if (now - last <= shared_->silence_threshold) continue;
      // The adjacent cell is silent: deploy a starter node near its
      // center; its heartbeats will stop other leaders from re-seeding.
      const geom::Point2 center = shared_->partition.rect_of(c).center();
      double best_d = 0.0;
      geom::Point2 pos{};
      std::uint32_t best_pid = 0;
      bool found = false;
      for (std::uint32_t pid : shared_->cell_points[c]) {
        const auto p = shared_->points->point(pid);
        const double d2 = geom::distance_sq(p, center);
        if (!found || d2 < best_d) {
          best_d = d2;
          pos = p;
          best_pid = pid;
          found = true;
        }
      }
      if (!found) continue;
      seeded_cells_.insert(c);
      shared_->harness->spawn_node(pos);
      // Cross-cell seed probe: peers must learn the cell was seeded or
      // several leaders seed it concurrently — ARQed like placements.
      auto msg = sim::Message::make(id(), net::kPlacement,
                                    net::PlacementPayload{pos, c},
                                    net::wire_size(net::kPlacement));
      if (shared_->audit != nullptr) {
        msg.trace_id = world().mint_trace_id();
        // No benefit scan backs a seed and the seeding leader holds no
        // belief about the silent cell, so the decision-context fields
        // stay zero.
        shared_->audit->record({now, id(), static_cast<std::int64_t>(c),
                                "seed", best_pid, pos, 0, 0, 0, 0,
                                msg.trace_id});
      }
      broadcast_reliable(msg);
    }
    set_timer(shared_->seed_check_interval, [this] { seed_check(); });
  }

  std::shared_ptr<Shared> shared_;
  std::uint32_t cell_ = 0;
  std::unique_ptr<net::LeaderElection> election_;
  std::unordered_map<PosKey, std::uint32_t, PosKeyHash> notices_;
  std::unordered_map<PosKey, std::uint32_t, PosKeyHash> my_placements_;
  std::unordered_map<std::uint32_t, sim::Time> cell_last_heard_;
  std::unordered_set<std::uint32_t> seeded_cells_;
  bool loop_active_ = false;
  bool seed_loop_active_ = false;
  bool queried_neighbors_ = false;
};

}  // namespace

namespace {

/// Protocol range: must span a cell (intra-cell connectivity assumption)
/// and reach leaders of adjacent cells (up to two cell diagonals away).
double grid_radio_range(const DecorParams& p) {
  return std::max(p.rc, 2.0 * p.cell_side * std::numbers::sqrt2);
}

}  // namespace

GridSimHarness::GridSimHarness(SimRunConfig cfg)
    : ProtocolHarness(cfg, grid_radio_range(cfg.params), "grid"),
      shared_(std::make_shared<Shared>(cfg)) {
  shared_->index_points(map().index());
  finish_setup(shared_);
}

std::unique_ptr<net::SensorNode> GridSimHarness::make_node() {
  return std::make_unique<DecorGridSimNode>(shared_);
}

void GridSimHarness::add_scheme_invariants() {
  // Leader uniqueness: after quiet periods every cell converges to at
  // most one leader. Transient splits are legal (that is what term
  // rotation reconciles), so a conflict only becomes a violation once it
  // outlives a full election term; checks are suspended outright while a
  // partition is installed (split-brain is *expected* across a cut).
  monitor().add_check("single-leader-per-cell",
                      [this]() -> std::optional<std::string> {
    if (injector() != nullptr && injector()->partition_active()) {
      leader_conflict_since_.clear();
      return std::nullopt;
    }
    std::map<std::uint32_t, std::uint32_t> leaders;
    for (std::uint32_t id : world().alive_ids()) {
      if (auto* n = dynamic_cast<DecorGridSimNode*>(&world().node(id))) {
        if (n->is_cell_leader()) ++leaders[n->cell()];
      }
    }
    const double now = world().sim().now();
    const double grace = shared_->election.term_duration + 5.0;
    std::optional<std::string> verdict;
    std::map<std::uint32_t, double> still;
    for (const auto& [cell, n] : leaders) {
      if (n <= 1) continue;
      const auto it = leader_conflict_since_.find(cell);
      const double since =
          it == leader_conflict_since_.end() ? now : it->second;
      still[cell] = since;
      if (now - since > grace && !verdict) {
        verdict = "cell " + std::to_string(cell) + " held " +
                  std::to_string(n) + " leaders for over " +
                  std::to_string(grace) + "s";
      }
    }
    leader_conflict_since_ = std::move(still);
    return verdict;
  });
}

std::string GridSimHarness::timeline_leaders() {
  std::string leaders;
  for (const auto& [cell, id] : shared_->cell_leader) {
    if (!world().alive(id)) continue;
    if (!leaders.empty()) leaders += ' ';
    leaders += std::to_string(cell);
    leaders += ':';
    leaders += std::to_string(id);
  }
  return leaders;
}

const geom::GridPartition& GridSimHarness::partition() const noexcept {
  return shared_->partition;
}

void GridSimHarness::schedule_leader_kill(double at) {
  world().sim().schedule_at(at, [this] {
    for (const auto& [cell, id] : shared_->cell_leader) {
      (void)cell;
      if (world().alive(id)) {
        kill_node(id);
        return;
      }
    }
  });
}

SimRunResult run_grid_decor_sim(const SimRunConfig& cfg) {
  GridSimHarness harness(cfg);
  return harness.run();
}

}  // namespace decor::core
