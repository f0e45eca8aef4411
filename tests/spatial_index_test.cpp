#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "geometry/grid_index.hpp"
#include "geometry/sensor_index.hpp"

namespace {

using namespace decor::geom;

std::vector<Point2> random_cloud(std::size_t n, const Rect& bounds,
                                 std::uint64_t seed) {
  decor::common::Rng rng(seed);
  std::vector<Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(bounds.x0, bounds.x1),
                   rng.uniform(bounds.y0, bounds.y1)});
  }
  return pts;
}

std::set<std::size_t> brute_disc(const std::vector<Point2>& pts,
                                 Point2 center, double r) {
  std::set<std::size_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (within(pts[i], center, r)) out.insert(i);
  }
  return out;
}

// --- PointGridIndex -------------------------------------------------------

class PointGridIndexParam : public ::testing::TestWithParam<double> {};

TEST_P(PointGridIndexParam, DiscQueryMatchesBruteForce) {
  const Rect bounds = make_rect(0, 0, 100, 100);
  const auto pts = random_cloud(500, bounds, 11);
  const PointGridIndex index(bounds, pts, GetParam());
  decor::common::Rng rng(12);
  for (int q = 0; q < 200; ++q) {
    const Point2 c{rng.uniform(-5.0, 105.0), rng.uniform(-5.0, 105.0)};
    const double r = rng.uniform(0.5, 15.0);
    const auto got = index.query_disc(c, r);
    const std::set<std::size_t> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set, brute_disc(pts, c, r));
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, PointGridIndexParam,
                         ::testing::Values(1.0, 4.0, 13.0, 200.0));

TEST(PointGridIndex, EmptySet) {
  const Rect bounds = make_rect(0, 0, 10, 10);
  const PointGridIndex index(bounds, {}, 2.0);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.query_disc({5, 5}, 100.0).empty());
}

TEST(PointGridIndex, BoundaryPointsIncluded) {
  const Rect bounds = make_rect(0, 0, 10, 10);
  const PointGridIndex index(bounds, {{0, 0}, {10, 10}, {5, 5}}, 3.0);
  const auto all = index.query_disc({5, 5}, 100.0);
  EXPECT_EQ(all.size(), 3u);
}

TEST(PointGridIndex, QueryRadiusIsClosed) {
  const Rect bounds = make_rect(0, 0, 10, 10);
  const PointGridIndex index(bounds, {{3, 4}}, 2.0);
  EXPECT_EQ(index.query_disc({0, 0}, 5.0).size(), 1u);
  EXPECT_TRUE(index.query_disc({0, 0}, 4.999).empty());
}

TEST(PointGridIndex, ForEachVisitsEachOnce) {
  const Rect bounds = make_rect(0, 0, 100, 100);
  const auto pts = random_cloud(300, bounds, 13);
  const PointGridIndex index(bounds, pts, 5.0);
  std::vector<int> visits(pts.size(), 0);
  index.for_each_in_disc({50, 50}, 30.0,
                         [&](std::size_t id) { ++visits[id]; });
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(visits[i], within(pts[i], {50, 50}, 30.0) ? 1 : 0);
  }
}

TEST(PointGridIndex, QueryRect) {
  const Rect bounds = make_rect(0, 0, 10, 10);
  const PointGridIndex index(bounds, {{1, 1}, {5, 5}, {9, 9}}, 2.0);
  const auto in = index.query_rect(make_rect(0, 0, 6, 6));
  EXPECT_EQ(in.size(), 2u);
}

TEST(PointGridIndex, OutOfBoundsPointThrows) {
  const Rect bounds = make_rect(0, 0, 10, 10);
  EXPECT_THROW(PointGridIndex(bounds, {{11, 5}}, 2.0),
               decor::common::RequireError);
}

// --- DynamicSensorIndex ---------------------------------------------------

TEST(DynamicSensorIndex, InsertQueryRemove) {
  DynamicSensorIndex idx(make_rect(0, 0, 100, 100), 8.0);
  idx.insert(1, {10, 10});
  idx.insert(2, {20, 10});
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_TRUE(idx.contains(1));
  EXPECT_EQ(idx.count_in_disc({10, 10}, 5.0), 1u);
  EXPECT_EQ(idx.count_in_disc({15, 10}, 6.0), 2u);
  idx.remove(1);
  EXPECT_FALSE(idx.contains(1));
  EXPECT_EQ(idx.count_in_disc({10, 10}, 5.0), 0u);
}

TEST(DynamicSensorIndex, RemoveAbsentIsNoop) {
  DynamicSensorIndex idx(make_rect(0, 0, 10, 10), 2.0);
  idx.remove(42);  // must not throw
  EXPECT_EQ(idx.size(), 0u);
}

TEST(DynamicSensorIndex, DuplicateIdThrows) {
  DynamicSensorIndex idx(make_rect(0, 0, 10, 10), 2.0);
  idx.insert(1, {5, 5});
  EXPECT_THROW(idx.insert(1, {6, 6}), decor::common::RequireError);
}

TEST(DynamicSensorIndex, PositionLookup) {
  DynamicSensorIndex idx(make_rect(0, 0, 10, 10), 2.0);
  idx.insert(3, {1.5, 2.5});
  const auto p = idx.position(3);
  EXPECT_DOUBLE_EQ(p.x, 1.5);
  EXPECT_DOUBLE_EQ(p.y, 2.5);
  EXPECT_THROW(idx.position(99), decor::common::RequireError);
}

class SensorIndexParam : public ::testing::TestWithParam<double> {};

TEST_P(SensorIndexParam, MatchesBruteForceUnderChurn) {
  const Rect bounds = make_rect(0, 0, 50, 50);
  DynamicSensorIndex idx(bounds, GetParam());
  decor::common::Rng rng(21);
  std::vector<std::pair<std::uint32_t, Point2>> live;
  std::uint32_t next_id = 0;
  for (int step = 0; step < 500; ++step) {
    if (live.empty() || rng.uniform() < 0.6) {
      const Point2 p{rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)};
      idx.insert(next_id, p);
      live.emplace_back(next_id, p);
      ++next_id;
    } else {
      const auto victim = rng.below(live.size());
      idx.remove(live[victim].first);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (step % 10 == 0) {
      const Point2 c{rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)};
      const double r = rng.uniform(1.0, 20.0);
      // Reference visiting order: cells row-major (y, then x), insertion
      // order within a cell. `live` is in insertion order and removals
      // keep it so; the stable sort groups it by cell.
      std::vector<std::pair<std::uint32_t, Point2>> hits;
      for (const auto& [id, p] : live) {
        if (within(p, c, r)) hits.emplace_back(id, p);
      }
      const auto cell_of = [&](Point2 p) {
        return std::make_pair(std::floor((p.y - bounds.y0) / GetParam()),
                              std::floor((p.x - bounds.x0) / GetParam()));
      };
      std::stable_sort(hits.begin(), hits.end(),
                       [&](const auto& a, const auto& b) {
                         return cell_of(a.second) < cell_of(b.second);
                       });
      std::vector<std::uint32_t> expect;
      for (const auto& hit : hits) expect.push_back(hit.first);
      EXPECT_EQ(idx.query_disc(c, r), expect);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, SensorIndexParam,
                         ::testing::Values(2.0, 8.0, 100.0));

TEST(DynamicSensorIndex, PositionsOutsideBoundsStillQueryable) {
  // Sensors may sit exactly on (or numerically past) the field border.
  DynamicSensorIndex idx(make_rect(0, 0, 10, 10), 4.0);
  idx.insert(1, {10.0, 10.0});
  idx.insert(2, {-0.5, 5.0});
  EXPECT_EQ(idx.count_in_disc({9, 9}, 2.0), 1u);
  EXPECT_EQ(idx.count_in_disc({0, 5}, 1.0), 1u);
}

TEST(DynamicSensorIndex, ForEachProvidesPositions) {
  DynamicSensorIndex idx(make_rect(0, 0, 10, 10), 4.0);
  idx.insert(7, {3, 3});
  idx.for_each_in_disc({3, 3}, 1.0, [](std::uint32_t id, Point2 p) {
    EXPECT_EQ(id, 7u);
    EXPECT_DOUBLE_EQ(p.x, 3.0);
  });
}

}  // namespace
