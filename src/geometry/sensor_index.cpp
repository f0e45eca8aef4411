#include "geometry/sensor_index.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace decor::geom {

namespace {
/// Packs two signed cell coordinates into one 64-bit key (exact for
/// |ix|,|iy| < 2^31, far beyond any realistic field).
std::int64_t pack_cell(std::int64_t ix, std::int64_t iy) noexcept {
  return (static_cast<std::int64_t>(static_cast<std::uint32_t>(iy)) << 32) |
         static_cast<std::int64_t>(static_cast<std::uint32_t>(ix));
}
}  // namespace

DynamicSensorIndex::DynamicSensorIndex(const Rect& bounds, double cell_size)
    : bounds_(bounds), cell_size_(std::max(cell_size, 1e-6)) {
  DECOR_REQUIRE_MSG(bounds_.width() > 0 && bounds_.height() > 0,
                    "index bounds must be non-degenerate");
}

std::int64_t DynamicSensorIndex::cell_key(Point2 p) const noexcept {
  const auto ix = static_cast<std::int64_t>(
      std::floor((p.x - bounds_.x0) / cell_size_));
  const auto iy = static_cast<std::int64_t>(
      std::floor((p.y - bounds_.y0) / cell_size_));
  return pack_cell(ix, iy);
}

void DynamicSensorIndex::insert(std::uint32_t id, Point2 pos) {
  DECOR_REQUIRE_MSG(positions_.find(id) == positions_.end(),
                    "duplicate sensor id in index");
  positions_.emplace(id, pos);
  cells_[cell_key(pos)].push_back(Resident{id, pos});
}

void DynamicSensorIndex::remove(std::uint32_t id) {
  auto it = positions_.find(id);
  if (it == positions_.end()) return;
  auto cell = cells_.find(cell_key(it->second));
  if (cell != cells_.end()) {
    auto& v = cell->second;
    v.erase(std::find_if(v.begin(), v.end(),
                         [id](const Resident& r) { return r.id == id; }));
    if (v.empty()) cells_.erase(cell);
  }
  positions_.erase(it);
}

bool DynamicSensorIndex::contains(std::uint32_t id) const {
  return positions_.find(id) != positions_.end();
}

Point2 DynamicSensorIndex::position(std::uint32_t id) const {
  auto it = positions_.find(id);
  DECOR_REQUIRE_MSG(it != positions_.end(), "unknown sensor id");
  return it->second;
}

void DynamicSensorIndex::for_each_in_disc(
    Point2 center, double radius,
    const std::function<void(std::uint32_t, Point2)>& fn) const {
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
      auto cell = cells_.find(pack_cell(ix, iy));
      if (cell == cells_.end()) continue;
      for (const Resident& r : cell->second) {
        if (distance_sq(r.pos, center) <= r2) fn(r.id, r.pos);
      }
    }
  }
}

std::vector<std::uint32_t> DynamicSensorIndex::query_disc(
    Point2 center, double radius) const {
  std::vector<std::uint32_t> out;
  for_each_in_disc(center, radius,
                   [&out](std::uint32_t id, Point2) { out.push_back(id); });
  return out;
}

std::size_t DynamicSensorIndex::count_in_disc(Point2 center,
                                              double radius) const {
  std::size_t n = 0;
  for_each_in_disc(center, radius, [&n](std::uint32_t, Point2) { ++n; });
  return n;
}

}  // namespace decor::geom
