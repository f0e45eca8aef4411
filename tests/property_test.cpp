// Randomized cross-module property checks: different implementations of
// the same quantity must agree on arbitrary inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coverage/area_estimate.hpp"
#include "coverage/perimeter.hpp"
#include "decor/decor.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace decor;
using geom::make_rect;
using geom::Point2;
using geom::Rect;

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

// --- exact perimeter minimum vs sampling -------------------------------------

TEST_P(Seeded, ExactMinimumNeverExceedsSampledCoverage) {
  // If min_area_coverage says the whole field has >= m coverage, then
  // every sampled point must have >= m coverage: the dense-grid fraction
  // at level m is exactly 1. (Catches over-estimation bugs in the
  // perimeter sweep.)
  common::Rng rng(GetParam());
  const Rect field = make_rect(0, 0, 30, 30);
  coverage::SensorSet sensors(field, 4.0, 4.0);
  const auto n = 5 + rng.below(40);
  for (std::size_t i = 0; i < n; ++i) {
    sensors.add({rng.uniform(-3.0, 33.0), rng.uniform(-3.0, 33.0)},
                rng.uniform(2.0, 7.0));
  }
  const auto exact = coverage::min_area_coverage(sensors, field, 4.0);
  if (exact > 0) {
    const double frac =
        coverage::area_coverage_grid(sensors, field, exact, 4.0, 250);
    EXPECT_DOUBLE_EQ(frac, 1.0) << "exact=" << exact;
  }
  // And random probes can never dip below the exact minimum.
  for (int probe = 0; probe < 300; ++probe) {
    const Point2 p{rng.uniform(0.01, 29.99), rng.uniform(0.01, 29.99)};
    std::uint32_t c = 0;
    sensors.for_each([&](const coverage::Sensor& s) {
      if (geom::within(p, s.pos, s.rs)) ++c;
    });
    EXPECT_GE(c, exact);
  }
}

// --- event queue vs a reference model ----------------------------------------

TEST_P(Seeded, EventQueueMatchesReferenceOrdering) {
  common::Rng rng(GetParam());
  sim::EventQueue queue;
  struct Ref {
    double at;
    std::size_t seq;
  };
  std::vector<Ref> model;
  std::vector<std::size_t> executed;

  for (std::size_t i = 0; i < 200; ++i) {
    const double at = rng.uniform(0.0, 100.0);
    queue.schedule(at, [i, &executed] { executed.push_back(i); });
    model.push_back({at, i});
  }
  while (!queue.empty()) queue.pop_and_run();

  std::vector<std::size_t> expected;
  std::stable_sort(model.begin(), model.end(),
                   [](const Ref& a, const Ref& b) { return a.at < b.at; });
  for (const auto& r : model) expected.push_back(r.seq);
  EXPECT_EQ(executed, expected);
}

// --- Equation 1 conservation --------------------------------------------------

TEST_P(Seeded, BenefitBoundsTheActualDeficitReduction) {
  // Total deficit D = sum over points of max(k - k_p, 0). One new disc
  // lowers each in-range needy point's deficit by exactly 1, so the
  // reduction equals the count of needy points in range — and Equation
  // 1's benefit (the *sum* of their deficits) brackets it:
  //   reduction <= benefit <= k * reduction.
  common::Rng rng(GetParam());
  const Rect field = make_rect(0, 0, 40, 40);
  coverage::CoverageMap map(field, lds::halton_points(field, 400), 4.0);
  for (int i = 0; i < 50; ++i) {
    map.add_disc(lds::random_point(field, rng));
  }
  const std::uint32_t k = 3;
  auto deficit = [&] {
    std::uint64_t d = 0;
    for (auto c : map.counts()) {
      if (c < k) d += k - c;
    }
    return d;
  };
  for (int trial = 0; trial < 30; ++trial) {
    const Point2 pos = lds::random_point(field, rng);
    const auto benefit = map.benefit(pos, k);
    std::uint64_t needy = 0;
    map.index().for_each_in_disc(pos, map.rs(), [&](std::size_t id) {
      if (map.kp(id) < k) ++needy;
    });
    const auto before = deficit();
    map.add_disc(pos);
    const auto reduction = before - deficit();
    EXPECT_EQ(reduction, needy);
    EXPECT_LE(reduction, benefit);
    EXPECT_LE(benefit, k * reduction);
    map.remove_disc(pos);  // restore for the next round
  }
}

// --- BenefitIndex metamorphic invariants --------------------------------------

TEST_P(Seeded, IndexedBenefitMonotoneUnderAddDiscAndRestoredByRemove) {
  // Adding a disc can only raise counts, so every point's Equation-1
  // benefit is monotone non-increasing; removing the same disc must
  // restore every benefit and count exactly (the delta updates are
  // integer and owner-symmetric, so no drift is tolerated).
  common::Rng rng(GetParam());
  const Rect field = make_rect(0, 0, 35, 35);
  coverage::CoverageMap map(field, lds::halton_points(field, 400), 4.0);
  const std::uint32_t k = 3;
  coverage::BenefitIndex index(map, k);
  for (int i = 0; i < 30; ++i) {
    index.add_disc(lds::random_point(field, rng), map.rs());
  }
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::uint64_t> before(index.num_points());
    std::vector<std::uint32_t> counts(index.num_points());
    for (std::size_t p = 0; p < index.num_points(); ++p) {
      before[p] = index.benefit(p);
      counts[p] = index.count(p);
    }
    const Point2 pos = lds::random_point(field, rng);
    const double radius = rng.uniform(2.0, 6.0);
    index.add_disc(pos, radius);
    for (std::size_t p = 0; p < index.num_points(); ++p) {
      EXPECT_LE(index.benefit(p), before[p]) << "trial " << trial;
    }
    index.remove_disc(pos, radius);
    for (std::size_t p = 0; p < index.num_points(); ++p) {
      ASSERT_EQ(index.benefit(p), before[p]) << "trial " << trial;
      ASSERT_EQ(index.count(p), counts[p]) << "trial " << trial;
    }
  }
}

TEST_P(Seeded, IndexedBenefitZeroIffNeighborhoodFullyCovered) {
  // b(p) == 0 exactly when every approximation point within rs of p is
  // already k-covered — the greedy termination condition of Equation 1.
  common::Rng rng(GetParam());
  const Rect field = make_rect(0, 0, 30, 30);
  coverage::CoverageMap map(field, lds::halton_points(field, 350), 3.5);
  const std::uint32_t k = 2;
  coverage::BenefitIndex index(map, k);
  const auto n = 10 + rng.below(60);  // from sparse to near-saturated
  for (std::size_t i = 0; i < n; ++i) {
    index.add_disc(lds::random_point(field, rng), map.rs());
  }
  for (std::size_t p = 0; p < index.num_points(); ++p) {
    bool all_k_covered = true;
    map.index().for_each_in_disc(map.index().point(p), map.rs(),
                                 [&](std::size_t q) {
                                   if (index.count(q) < k) {
                                     all_k_covered = false;
                                   }
                                 });
    EXPECT_EQ(index.benefit(p) == 0, all_k_covered) << "point " << p;
  }
}

// --- grid partition tiles the field -------------------------------------------

TEST_P(Seeded, GridPartitionTilesExactly) {
  common::Rng rng(GetParam());
  const Rect field = make_rect(0, 0, 37.0, 23.0);  // non-dividing sides
  const geom::GridPartition g(field, rng.uniform(2.0, 9.0));
  // Areas of cells sum to the field area.
  double total = 0.0;
  for (std::size_t c = 0; c < g.num_cells(); ++c) {
    total += g.rect_of(c).area();
  }
  EXPECT_NEAR(total, field.area(), 1e-6);
  // Every random point maps to a cell that contains it.
  for (int i = 0; i < 500; ++i) {
    const Point2 p{rng.uniform(0.0, 37.0), rng.uniform(0.0, 23.0)};
    EXPECT_TRUE(g.rect_of(g.cell_of(p)).contains(p));
  }
}

// --- engines never un-cover ----------------------------------------------------

TEST_P(Seeded, EnginesNeverReduceAnyPointsCoverage) {
  common::Rng rng(GetParam());
  core::DecorParams params;
  params.field = make_rect(0, 0, 30, 30);
  params.num_points = 300;
  params.k = 2;
  core::Field field(params, rng);
  field.deploy_random(20, rng);
  const auto before = field.map.counts();
  core::run_engine(GetParam() % 2 == 0 ? core::Scheme::kGrid
                                       : core::Scheme::kVoronoi,
                   field, rng);
  const auto& after = field.map.counts();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_GE(after[i], before[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
