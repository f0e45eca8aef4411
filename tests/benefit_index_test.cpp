// Differential tests for coverage::BenefitIndex: the incremental index
// must be *exact* — benefits, counts and chosen placements byte-identical
// to naive CoverageMap::benefit rescans — through full deploy / fail /
// restore lifecycles, for owner-restricted views, and for any thread
// count in the parallel bulk rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "coverage/benefit_index.hpp"
#include "decor/decor.hpp"

namespace {

using namespace decor;
using coverage::BenefitIndex;
using geom::Point2;

core::DecorParams small_params(std::uint32_t k) {
  core::DecorParams p;
  p.field = geom::make_rect(0, 0, 40, 40);
  p.num_points = 500;
  p.k = k;
  p.rs = 4.0;
  p.rc = 8.0;
  return p;
}

/// The centralized oracle: first maximum of a sequential rescan of the
/// uncovered candidates (benefit desc, point id asc).
std::optional<BenefitIndex::Candidate> naive_best(
    const coverage::CoverageMap& map, std::uint32_t k) {
  std::optional<BenefitIndex::Candidate> best;
  for (std::size_t id : map.uncovered_points(k)) {
    const std::uint64_t b = map.benefit(map.index().point(id), k);
    if (!best || b > best->benefit) best = {b, id};
  }
  return best;
}

void expect_matches_map(const BenefitIndex& index,
                        const coverage::CoverageMap& map, std::uint32_t k,
                        const char* phase) {
  ASSERT_EQ(index.num_points(), map.num_points());
  for (std::size_t p = 0; p < map.num_points(); ++p) {
    ASSERT_EQ(index.count(p), map.kp(p)) << phase << " point " << p;
    ASSERT_EQ(index.benefit(p), map.benefit(map.index().point(p), k))
        << phase << " point " << p;
  }
  const auto lazy = index.best();
  const auto naive = naive_best(map, k);
  ASSERT_EQ(lazy.has_value(), naive.has_value()) << phase;
  if (lazy) {
    EXPECT_EQ(lazy->point, naive->point) << phase;
    EXPECT_EQ(lazy->benefit, naive->benefit) << phase;
  }
}

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Seeded, MatchesNaiveThroughDeployFailRestoreCycles) {
  common::Rng rng(GetParam());
  const std::uint32_t k = 1 + static_cast<std::uint32_t>(GetParam() % 3);
  core::Field field(small_params(k), rng);
  BenefitIndex index(field.map, k);

  // Phase 1: random initial deployment, a heterogeneous radius mix.
  for (int i = 0; i < 25; ++i) {
    const Point2 pos = lds::random_point(field.params.field, rng);
    const double rs = rng.bernoulli(0.3) ? rng.uniform(2.0, 6.0)
                                         : field.params.rs;
    field.deploy(pos, rs);
    index.add_disc(pos, rs);
  }
  expect_matches_map(index, field.map, k, "deploy");

  // Phase 2: greedy restore driven by the index, every choice checked
  // against a fresh naive rescan.
  std::size_t guard = 0;
  while (const auto best = index.best()) {
    const auto naive = naive_best(field.map, k);
    ASSERT_TRUE(naive.has_value());
    ASSERT_EQ(best->point, naive->point) << "step " << guard;
    ASSERT_EQ(best->benefit, naive->benefit) << "step " << guard;
    const Point2 pos = field.map.index().point(best->point);
    field.deploy(pos);
    index.add_disc(pos, field.params.rs);
    ASSERT_LT(++guard, 5000u);
  }
  EXPECT_TRUE(field.map.fully_covered(k));
  expect_matches_map(index, field.map, k, "restored");

  // Phase 3: random failures mirrored as remove_disc (each with the
  // radius the sensor was deployed with).
  common::Rng fail_rng(GetParam() ^ 0xfa11);
  for (std::uint32_t id :
       core::fail_random_fraction(field, 0.35, fail_rng)) {
    const auto& s = field.sensors.sensor(id);
    index.remove_disc(s.pos, s.rs > 0.0 ? s.rs : field.params.rs);
  }
  expect_matches_map(index, field.map, k, "random-failure");

  // Phase 4: a disc-shaped disaster.
  for (std::uint32_t id : core::fail_area(field, {{20, 20}, 10.0})) {
    const auto& s = field.sensors.sensor(id);
    index.remove_disc(s.pos, s.rs > 0.0 ? s.rs : field.params.rs);
  }
  expect_matches_map(index, field.map, k, "area-failure");

  // Phase 5: restore again after the compound damage.
  guard = 0;
  while (const auto best = index.best()) {
    const auto naive = naive_best(field.map, k);
    ASSERT_TRUE(naive.has_value());
    ASSERT_EQ(best->point, naive->point) << "restore step " << guard;
    const Point2 pos = field.map.index().point(best->point);
    field.deploy(pos);
    index.add_disc(pos, field.params.rs);
    ASSERT_LT(++guard, 5000u);
  }
  EXPECT_TRUE(field.map.fully_covered(k));
  expect_matches_map(index, field.map, k, "re-restored");
}

TEST_P(Seeded, CentralizedEnginePlacementsMatchReferenceAcrossCycles) {
  // Engine-level differential: the indexed centralized engine and the
  // O(placements x candidates) reference must emit byte-identical
  // placement sequences through a deploy -> fail -> restore cycle.
  const std::uint32_t k = 1 + static_cast<std::uint32_t>(GetParam() % 3);
  auto make_field = [&] {
    common::Rng rng(GetParam());
    core::Field field(small_params(k), rng);
    field.deploy_random(25, rng);
    return field;
  };
  auto a = make_field();
  auto b = make_field();

  const auto deploy_a = core::centralized_greedy(a);
  const auto deploy_b = core::centralized_greedy_reference(b);
  ASSERT_EQ(deploy_a.placements.size(), deploy_b.placements.size());
  for (std::size_t i = 0; i < deploy_a.placements.size(); ++i) {
    ASSERT_EQ(deploy_a.placements[i], deploy_b.placements[i]) << i;
  }

  common::Rng fail_a(GetParam() ^ 1), fail_b(GetParam() ^ 1);
  core::fail_random_fraction(a, 0.3, fail_a);
  core::fail_random_fraction(b, 0.3, fail_b);
  core::fail_area(a, {{15, 25}, 8.0});
  core::fail_area(b, {{15, 25}, 8.0});

  const auto restore_a = core::centralized_greedy(a);
  const auto restore_b = core::centralized_greedy_reference(b);
  ASSERT_EQ(restore_a.placements.size(), restore_b.placements.size());
  for (std::size_t i = 0; i < restore_a.placements.size(); ++i) {
    ASSERT_EQ(restore_a.placements[i], restore_b.placements[i]) << i;
  }
  EXPECT_TRUE(a.map.fully_covered(k));
  EXPECT_TRUE(b.map.fully_covered(k));
}

TEST_P(Seeded, OwnerRestrictedDeltasMatchNaiveRecompute) {
  // The distributed engines' usage pattern: ownership labels, per-owner
  // count updates and ownership reassignment. After every mutation the
  // maintained benefits must equal a from-scratch owner-restricted sum.
  common::Rng op_rng(GetParam() ^ 0xbeef);
  const auto field_rect = geom::make_rect(0, 0, 30, 30);
  coverage::CoverageMap map(field_rect, lds::halton_points(field_rect, 300),
                            3.0);
  const std::uint32_t k = 2;
  const std::int64_t kNone = BenefitIndex::kNoOwner;

  std::vector<std::int64_t> owners(map.num_points());
  for (auto& o : owners) {
    o = op_rng.bernoulli(0.15) ? kNone
                               : static_cast<std::int64_t>(op_rng.below(4));
  }
  BenefitIndex index(map.index_ptr(), map.rs(), k, owners);

  auto naive_benefit = [&](std::size_t p) -> std::uint64_t {
    if (index.owner(p) == kNone) return 0;
    std::uint64_t b = 0;
    map.index().for_each_in_disc(
        map.index().point(p), map.rs(), [&](std::size_t q) {
          if (index.owner(q) != index.owner(p)) return;
          const std::uint32_t c = index.count(q);
          if (c < k) b += k - c;
        });
    return b;
  };
  auto verify_all = [&](int op) {
    for (std::size_t p = 0; p < map.num_points(); ++p) {
      ASSERT_EQ(index.benefit(p), naive_benefit(p))
          << "op " << op << " point " << p;
    }
    // The lazy heap must agree with a sequential owned-uncovered scan.
    std::optional<BenefitIndex::Candidate> naive;
    for (std::size_t p = 0; p < map.num_points(); ++p) {
      if (index.owner(p) == kNone || index.count(p) >= k) continue;
      if (!naive || index.benefit(p) > naive->benefit) {
        naive = {index.benefit(p), p};
      }
    }
    const auto lazy = index.best();
    ASSERT_EQ(lazy.has_value(), naive.has_value()) << "op " << op;
    if (lazy) {
      ASSERT_EQ(lazy->point, naive->point) << "op " << op;
      ASSERT_EQ(lazy->benefit, naive->benefit) << "op " << op;
    }
  };

  struct Added {
    Point2 pos;
    double radius;
    std::uint32_t mult;
  };
  std::vector<Added> discs;
  for (int op = 0; op < 60; ++op) {
    const auto choice = op_rng.below(4);
    if (choice == 0 || discs.empty()) {
      const Added d{lds::random_point(field_rect, op_rng),
                    op_rng.uniform(1.5, 5.0),
                    1 + static_cast<std::uint32_t>(op_rng.below(2))};
      index.add_disc(d.pos, d.radius, d.mult);
      discs.push_back(d);
    } else if (choice == 1) {
      const auto i = op_rng.below(discs.size());
      index.remove_disc(discs[i].pos, discs[i].radius, discs[i].mult);
      discs.erase(discs.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (choice == 2) {
      index.add_disc_owned(lds::random_point(field_rect, op_rng),
                           op_rng.uniform(1.5, 5.0),
                           static_cast<std::int64_t>(op_rng.below(4)));
      // Owned count updates are belief-only; they are intentionally not
      // reversible through remove_disc bookkeeping here.
      discs.clear();
    } else {
      const std::size_t p = op_rng.below(map.num_points());
      const std::int64_t o =
          op_rng.bernoulli(0.2)
              ? kNone
              : static_cast<std::int64_t>(op_rng.below(4));
      index.set_owner(p, o);
    }
    verify_all(op);
  }
}

TEST_P(Seeded, BulkRebuildBitIdenticalForAnyThreadCount) {
  // Guards the parallel.hpp "merge sequentially" contract: the parallel
  // cold-start rebuild must yield bit-identical benefits — and therefore
  // bit-identical greedy placement sequences — for 1, 2 and the default
  // number of threads.
  common::Rng rng(GetParam());
  const std::uint32_t k = 3;
  core::Field field(small_params(k), rng);
  field.deploy_random(40, rng);

  BenefitIndex one(field.map, k, {}, 1);
  BenefitIndex two(field.map, k, {}, 2);
  BenefitIndex dflt(field.map, k, {}, 0);
  for (std::size_t p = 0; p < field.map.num_points(); ++p) {
    ASSERT_EQ(one.benefit(p), two.benefit(p)) << p;
    ASSERT_EQ(one.benefit(p), dflt.benefit(p)) << p;
  }

  // Greedy placement sequences from the three indices stay in lockstep.
  auto drain = [&](BenefitIndex& index) {
    std::vector<std::size_t> picks;
    for (int i = 0; i < 50; ++i) {
      const auto best = index.best();
      if (!best) break;
      picks.push_back(best->point);
      index.add_disc(field.map.index().point(best->point),
                     field.params.rs);
    }
    return picks;
  };
  const auto a = drain(one);
  const auto b = drain(two);
  const auto c = drain(dflt);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST_P(Seeded, BestBelievedMatchesSequentialScan) {
  // The simulator nodes' one-shot kernel must agree with the sequential
  // first-maximum scan it replaced, including candidate-order ties.
  common::Rng rng(GetParam());
  const auto field_rect = geom::make_rect(0, 0, 25, 25);
  const geom::PointGridIndex points(field_rect,
                                    lds::halton_points(field_rect, 200),
                                    3.0);
  const std::uint32_t k = 2;
  // A random "responsibility" subset with random believed counts.
  std::vector<std::optional<std::uint32_t>> counts(points.size());
  std::vector<std::uint32_t> candidates;
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (rng.bernoulli(0.6)) {
      counts[p] = static_cast<std::uint32_t>(rng.below(4));
      candidates.push_back(static_cast<std::uint32_t>(p));
    }
  }
  rng.shuffle(candidates);  // caller order is authoritative, not id order

  auto count_of = [&](std::size_t pid) { return counts[pid]; };
  const auto choice = BenefitIndex::choose_believed(points, 3.0, k,
                                                    candidates, count_of);

  std::optional<BenefitIndex::Candidate> want;
  for (const std::uint32_t pid : candidates) {
    if (*counts[pid] >= k) continue;
    std::uint64_t b = 0;
    points.for_each_in_disc(points.point(pid), 3.0, [&](std::size_t q) {
      if (counts[q] && *counts[q] < k) b += k - *counts[q];
    });
    if (!want || b > want->benefit) want = {b, pid};
  }
  ASSERT_EQ(choice.has_value(), want.has_value());
  if (choice) {
    EXPECT_EQ(choice->best.point, want->point);
    EXPECT_EQ(choice->best.benefit, want->benefit);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
