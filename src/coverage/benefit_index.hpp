// Incremental maintenance of Equation-1 benefits for greedy placement.
//
// Every restoration engine repeatedly asks "which candidate point has the
// largest benefit b(p) = sum over points q within rs of p of
// max(k - k_q, 0)?" (Equation 1). Recomputing b for each candidate with a
// fresh disc sweep makes one placement cost
// O(candidates x points-per-disc) — the dominant cost at paper scale.
//
// BenefitIndex keeps b(p) for every approximation point as first-class
// state instead. Adding or removing one sensing disc of radius r changes
// the coverage count — and hence the deficit max(k - k_q, 0) — only for
// points q inside the disc, and each changed deficit shifts b(p) by the
// same delta for exactly the points p within rs of q. So one disc event
// touches only points within r + rs of its center (2*rs for the default
// radius), found through the same PointGridIndex the engines already use.
//
// The distributed engines restrict Equation 1 to the points a leader or
// node is responsible for. The index models this with per-point ownership
// labels: a point q contributes to b(p) only when owner(q) == owner(p),
// counts can be updated for a single owner's points (the grid scheme's
// per-cell beliefs), and ownership itself can be reassigned incrementally
// (Voronoi claims). Points labelled kNoOwner contribute nothing and are
// never candidates.
//
// Arg-max queries go through a lazy max-heap in the event_queue.hpp
// spirit: entries are (benefit, point) snapshots, every benefit change
// pushes a fresh snapshot, and stale or covered entries are skipped at
// pop time. Tie-breaking is (benefit desc, point id asc) — the same order
// a sequential rescan of the candidate list produces — so the index is
// exact: placement sequences are byte-identical to naive recomputation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "coverage/coverage_map.hpp"
#include "geometry/grid_index.hpp"
#include "geometry/point.hpp"

namespace decor::coverage {

class BenefitIndex {
 public:
  /// Ownership label of points outside every responsibility region.
  static constexpr std::int64_t kNoOwner = -1;

  struct Candidate {
    std::uint64_t benefit = 0;
    std::size_t point = 0;
  };

  /// Builds the index over `map`'s point set with the map's current
  /// coverage counts (the centralized ground-truth view). `owners` gives
  /// the per-point responsibility labels; empty means one shared owner 0.
  /// `threads` feeds the parallel bulk rebuild (0 = hardware default).
  BenefitIndex(const CoverageMap& map, std::uint32_t k,
               std::vector<std::int64_t> owners = {},
               std::size_t threads = 0);

  /// Builds the index over a raw point index with all counts zero (the
  /// distributed engines' belief state starts empty).
  BenefitIndex(std::shared_ptr<const geom::PointGridIndex> index, double rs,
               std::uint32_t k, std::vector<std::int64_t> owners = {},
               std::size_t threads = 0);

  std::uint32_t k() const noexcept { return k_; }
  double rs() const noexcept { return rs_; }
  std::size_t num_points() const noexcept { return counts_.size(); }
  const geom::PointGridIndex& points() const noexcept { return *index_; }

  /// Believed coverage count of one point.
  std::uint32_t count(std::size_t point_id) const {
    return counts_[point_id];
  }
  /// max(k - count, 0) for one point.
  std::uint32_t deficit(std::size_t point_id) const {
    const std::uint32_t c = counts_[point_id];
    return c >= k_ ? 0 : k_ - c;
  }
  /// Equation-1 benefit of one point, O(1). Zero for unowned points.
  std::uint64_t benefit(std::size_t point_id) const {
    return benefit_[point_id];
  }
  bool uncovered(std::size_t point_id) const {
    return counts_[point_id] < k_;
  }
  std::int64_t owner(std::size_t point_id) const {
    return owner_[point_id];
  }

  /// Registers `mult` coincident sensing discs at `pos` (multiplicity
  /// matters: k-coverage routinely stacks sensors on one point).
  void add_disc(geom::Point2 pos, double radius, std::uint32_t mult = 1);

  /// Unregisters discs previously added with the same position/radius.
  void remove_disc(geom::Point2 pos, double radius, std::uint32_t mult = 1);

  /// Count update restricted to the points labelled `owner` — one grid
  /// leader learning of a placement updates only its own cell's belief.
  /// Returns how many of those points crossed from uncovered to covered.
  std::size_t add_disc_owned(geom::Point2 pos, double radius,
                             std::int64_t owner);

  /// Reassigns one point's responsibility label (a Voronoi claim),
  /// incrementally moving its deficit contribution between the old and
  /// new owners' candidates and recomputing the point's own benefit.
  void set_owner(std::size_t point_id, std::int64_t new_owner);

  /// Recomputes every benefit from the current counts and owners (cold
  /// start) with a parallel_for over points, then reseeds the heap in
  /// point-id order. Bit-identical for any thread count: each point's
  /// benefit is written to its own slot (the parallel.hpp contract).
  void rebuild(std::size_t threads = 0);

  /// Best owned uncovered candidate, (benefit desc, point id asc), or
  /// nullopt when every owned point is covered. Non-destructive: the
  /// returned entry stays valid until the next mutation invalidates it.
  std::optional<Candidate> best() const;

  /// A choose_believed decision with the context the placement audit
  /// log records: the winning candidate, the runner-up benefit
  /// (second-best eligible candidate; equals best.benefit on a tie, 0
  /// when the winner was unopposed) and how many eligible candidates were
  /// scanned.
  struct BelievedChoice {
    Candidate best;
    std::uint64_t runner_up = 0;
    std::size_t scanned = 0;
  };

  /// One-shot arg-max used by the simulator nodes, whose believed counts
  /// are rebuilt from radio state every tick (nothing persists for the
  /// index to maintain). `count_of` returns the believed count of a point
  /// or nullopt when the point is outside the node's responsibility (it
  /// then neither contributes deficit nor qualifies as a candidate).
  /// Candidates are scanned in the given order and the first maximum
  /// wins, matching the engines' sequential scans.
  static std::optional<BelievedChoice> choose_believed(
      const geom::PointGridIndex& points, double rs, std::uint32_t k,
      const std::vector<std::uint32_t>& candidates,
      const std::function<std::optional<std::uint32_t>(std::size_t)>&
          count_of);

 private:
  struct Worse {
    bool operator()(const Candidate& a, const Candidate& b) const noexcept {
      if (a.benefit != b.benefit) return a.benefit < b.benefit;
      return a.point > b.point;
    }
  };

  using Heap =
      std::priority_queue<Candidate, std::vector<Candidate>, Worse>;

  /// Full Equation-1 sum for one point from current counts/owners.
  std::uint64_t recompute_one(std::size_t point_id) const;

  /// Expected number of points inside a disc of `radius` (field density).
  std::size_t disc_estimate(double radius) const noexcept;

  /// Applies fn(q) to the points labelled `own` within `radius` of
  /// `center`, iterating whichever is smaller: the owner's point bucket
  /// (a grid cell or Voronoi region is usually far smaller than the
  /// disc) or the spatial disc with an owner filter. Both paths use the
  /// same membership predicate; callers must be order-independent.
  void for_each_owned_in_disc(
      std::int64_t own, geom::Point2 center, double radius,
      const std::function<void(std::size_t)>& fn) const;

  std::vector<std::uint32_t>& bucket(std::int64_t own);
  void init_buckets();

  /// Applies a deficit change of point `q` to all same-owner candidates
  /// within rs (the 2*rs delta update's inner half).
  void apply_deficit_delta(std::size_t q, std::uint32_t old_count,
                           std::uint32_t new_count);

  void touch(std::size_t point_id);
  void flush_touched();

  std::shared_ptr<const geom::PointGridIndex> index_;
  double rs_;
  std::uint32_t k_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::int64_t> owner_;
  std::vector<std::uint64_t> benefit_;

  // Point ids per non-negative owner label, ascending (used to shortcut
  // owner-filtered disc sweeps when the owner's region is small).
  std::vector<std::vector<std::uint32_t>> owner_points_;
  double points_per_area_ = 0.0;

  // Lazy max-heap of (benefit, point) snapshots; stale and covered
  // entries are skipped in best(). Mutable: cleaning is observationally
  // const.
  mutable Heap heap_;

  // Epoch-stamped dedup of points touched by one mutation, so each gets
  // one fresh heap entry per event instead of one per changed neighbor.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> touch_epoch_;
  std::vector<std::uint32_t> touched_;
};

}  // namespace decor::coverage
