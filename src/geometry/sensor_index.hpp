// Dynamic uniform-grid index over sensor positions.
//
// Deployment algorithms insert sensors one at a time and failure injection
// removes them; the index supports both while answering "which sensors lie
// within distance d of p" (coverage counting, neighbor discovery) in time
// proportional to local density.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/rect.hpp"

namespace decor::geom {

class DynamicSensorIndex {
 public:
  /// `cell_size` should be on the order of the typical query radius.
  DynamicSensorIndex(const Rect& bounds, double cell_size);

  /// Inserts a sensor with caller-chosen unique id. A position outside the
  /// bounds is keyed by its own out-of-range cell, not clamped, so sensors
  /// on (or numerically past) the field border stay queryable.
  void insert(std::uint32_t id, Point2 pos);

  /// Removes a previously inserted sensor; no-op if absent. The rest of
  /// its cell keeps its order.
  void remove(std::uint32_t id);

  bool contains(std::uint32_t id) const;
  std::size_t size() const noexcept { return positions_.size(); }

  /// Position of a sensor; requires that the id is present.
  Point2 position(std::uint32_t id) const;

  /// Invokes fn(id, pos) for every sensor within `radius` of `center`:
  /// cells row-major (y, then x), sensors in insertion order within a
  /// cell. Callers that draw randomness per hit rely on this order. `fn`
  /// must not insert or remove sensors.
  template <typename Fn>
  void for_each_in_disc(Point2 center, double radius, Fn&& fn) const;

  /// IDs of sensors within `radius` of `center`, in visiting order.
  std::vector<std::uint32_t> query_disc(Point2 center, double radius) const;

  /// Number of sensors within `radius` of `center`.
  std::size_t count_in_disc(Point2 center, double radius) const;

 private:
  /// A cell stores each sensor's position beside its id, so a disc query
  /// reads both from one array.
  struct Resident {
    std::uint32_t id;
    Point2 pos;
  };

  /// Packs two signed cell coordinates into one 64-bit key (exact for
  /// |ix|,|iy| < 2^31, far beyond any realistic field).
  static std::int64_t pack_cell(std::int64_t ix, std::int64_t iy) noexcept {
    return (static_cast<std::int64_t>(static_cast<std::uint32_t>(iy))
            << 32) |
           static_cast<std::int64_t>(static_cast<std::uint32_t>(ix));
  }
  std::int64_t cell_key(Point2 p) const noexcept;

  Rect bounds_;
  double cell_size_;
  std::unordered_map<std::int64_t, std::vector<Resident>> cells_;
  std::unordered_map<std::uint32_t, Point2> positions_;
};

template <typename Fn>
void DynamicSensorIndex::for_each_in_disc(Point2 center, double radius,
                                          Fn&& fn) const {
  const double r2 = radius * radius;
  const auto ix0 = static_cast<std::int64_t>(
      std::floor((center.x - radius - bounds_.x0) / cell_size_));
  const auto ix1 = static_cast<std::int64_t>(
      std::floor((center.x + radius - bounds_.x0) / cell_size_));
  const auto iy0 = static_cast<std::int64_t>(
      std::floor((center.y - radius - bounds_.y0) / cell_size_));
  const auto iy1 = static_cast<std::int64_t>(
      std::floor((center.y + radius - bounds_.y0) / cell_size_));
  for (std::int64_t iy = iy0; iy <= iy1; ++iy) {
    for (std::int64_t ix = ix0; ix <= ix1; ++ix) {
      const auto cell = cells_.find(pack_cell(ix, iy));
      if (cell == cells_.end()) continue;
      for (const Resident& r : cell->second) {
        if (distance_sq(r.pos, center) <= r2) fn(r.id, r.pos);
      }
    }
  }
}

}  // namespace decor::geom
