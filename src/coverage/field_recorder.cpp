#include "coverage/field_recorder.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/json.hpp"
#include "common/require.hpp"

namespace decor::coverage {

namespace {

/// The decor.field.v1 header line: the raster geometry.
std::string field_header_json(const FieldHeader& h) {
  std::ostringstream os;
  common::JsonWriter w(os);
  w.begin_object();
  w.key("schema");
  w.value("decor.field.v1");
  w.key("k");
  w.value(static_cast<std::uint64_t>(h.k));
  w.key("cols");
  w.value(static_cast<std::uint64_t>(h.cols));
  w.key("rows");
  w.value(static_cast<std::uint64_t>(h.rows));
  w.key("x0");
  w.value(h.x0);
  w.key("y0");
  w.value(h.y0);
  w.key("width");
  w.value(h.width);
  w.key("height");
  w.value(h.height);
  w.end_object();
  return os.str();
}

}  // namespace

FieldRecorder::FieldRecorder(const geom::Rect& bounds, std::uint32_t k,
                             std::size_t cols, std::size_t rows)
    : bounds_(bounds),
      k_(k),
      cols_(cols),
      rows_(rows),
      channel_(common::TelemetryStream::kField, field_header_json(header())) {
  DECOR_REQUIRE_MSG(k_ >= 1, "coverage requirement must be >= 1");
  DECOR_REQUIRE_MSG(cols_ >= 1 && rows_ >= 1,
                    "field raster needs at least one cell");
  DECOR_REQUIRE_MSG(bounds_.width() > 0.0 && bounds_.height() > 0.0,
                    "field raster needs a non-degenerate field");
}

std::size_t FieldRecorder::default_raster(const geom::Rect& bounds,
                                          double rs) {
  const double side = std::max(bounds.width(), bounds.height());
  if (rs <= 0.0) return 32;
  const double cells = std::round(side / rs);
  return static_cast<std::size_t>(std::clamp(cells, 8.0, 64.0));
}

std::size_t FieldRecorder::cell_of(geom::Point2 p) const noexcept {
  const double fx = (p.x - bounds_.x0) / bounds_.width();
  const double fy = (p.y - bounds_.y0) / bounds_.height();
  auto clamp_idx = [](double f, std::size_t n) {
    const auto i = static_cast<std::ptrdiff_t>(f * static_cast<double>(n));
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(i, 0, static_cast<std::ptrdiff_t>(n) - 1));
  };
  return clamp_idx(fy, rows_) * cols_ + clamp_idx(fx, cols_);
}

const FieldSnapshot& FieldRecorder::snapshot(double t, const CoverageMap& map,
                                             bool forced) {
  const auto& index = map.index();
  FieldSnapshot s;
  s.t = t;
  s.forced = forced;
  s.raster.assign(cols_ * rows_, 0);

  // Pass 1: rasterize the deficits and collect the under-covered points
  // per raster cell (the hole components are built over cells, so holes
  // narrower than one cell never fragment into per-point confetti).
  std::vector<std::vector<std::uint32_t>> cell_uncovered(cols_ * rows_);
  for (std::size_t pid = 0; pid < index.size(); ++pid) {
    const std::uint32_t kp = map.kp(pid);
    if (kp >= k_) continue;
    const std::uint32_t deficit = k_ - kp;
    s.total_deficit += deficit;
    ++s.uncovered_points;
    const std::size_t cell = cell_of(index.point(pid));
    s.raster[cell] = std::max(s.raster[cell], deficit);
    cell_uncovered[cell].push_back(static_cast<std::uint32_t>(pid));
  }

  // Pass 2: connected components of occupied raster cells
  // (8-connectivity), seeded in row-major order so hole identity is
  // deterministic for a given field state.
  const double point_area =
      index.size() == 0
          ? 0.0
          : bounds_.area() / static_cast<double>(index.size());
  std::vector<char> visited(cols_ * rows_, 0);
  std::vector<std::size_t> stack;
  for (std::size_t seed = 0; seed < cell_uncovered.size(); ++seed) {
    if (visited[seed] != 0 || cell_uncovered[seed].empty()) continue;
    CoverageHole hole;
    double sum_x = 0.0, sum_y = 0.0;
    stack.assign(1, seed);
    visited[seed] = 1;
    while (!stack.empty()) {
      const std::size_t cell = stack.back();
      stack.pop_back();
      for (const std::uint32_t pid : cell_uncovered[cell]) {
        const std::uint32_t deficit = k_ - map.kp(pid);
        ++hole.points;
        hole.max_deficit = std::max(hole.max_deficit, deficit);
        const geom::Point2 p = index.point(pid);
        sum_x += p.x;
        sum_y += p.y;
      }
      const std::size_t cx = cell % cols_;
      const std::size_t cy = cell / cols_;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const auto nx = static_cast<std::ptrdiff_t>(cx) + dx;
          const auto ny = static_cast<std::ptrdiff_t>(cy) + dy;
          if (nx < 0 || ny < 0 ||
              nx >= static_cast<std::ptrdiff_t>(cols_) ||
              ny >= static_cast<std::ptrdiff_t>(rows_)) {
            continue;
          }
          const std::size_t nb =
              static_cast<std::size_t>(ny) * cols_ +
              static_cast<std::size_t>(nx);
          if (visited[nb] != 0 || cell_uncovered[nb].empty()) continue;
          visited[nb] = 1;
          stack.push_back(nb);
        }
      }
    }
    hole.area = static_cast<double>(hole.points) * point_area;
    hole.centroid = {sum_x / static_cast<double>(hole.points),
                     sum_y / static_cast<double>(hole.points)};
    s.holes.push_back(hole);
  }

  snapshots_.push_back(std::move(s));
  if (channel_.wanted()) channel_.publish(snapshot_json(snapshots_.back()));
  return snapshots_.back();
}

std::string FieldRecorder::snapshot_json(const FieldSnapshot& s) {
  std::ostringstream os;
  common::JsonWriter w(os);
  w.begin_object();
  w.key("t");
  w.value(s.t);
  w.key("forced");
  w.value(s.forced);
  w.key("total_deficit");
  w.value(s.total_deficit);
  w.key("uncovered");
  w.value(s.uncovered_points);
  w.key("raster");
  w.begin_array();
  for (const std::uint32_t d : s.raster) {
    w.value(static_cast<std::uint64_t>(d));
  }
  w.end_array();
  w.key("holes");
  w.begin_array();
  for (const auto& h : s.holes) {
    w.begin_object();
    w.key("points");
    w.value(h.points);
    w.key("area");
    w.value(h.area);
    w.key("cx");
    w.value(h.centroid.x);
    w.key("cy");
    w.value(h.centroid.y);
    w.key("max_deficit");
    w.value(static_cast<std::uint64_t>(h.max_deficit));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

std::optional<FieldHeader> field_header_from_json(
    const common::JsonValue& header) {
  FieldHeader h;
  h.k = header.number_at<std::uint32_t>("k");
  h.cols = header.number_at<std::uint32_t>("cols");
  h.rows = header.number_at<std::uint32_t>("rows");
  if (!header.is_object() || h.k < 1 || h.cols < 1 || h.rows < 1) {
    return std::nullopt;
  }
  h.x0 = header.number_at("x0");
  h.y0 = header.number_at("y0");
  h.width = header.number_at("width");
  h.height = header.number_at("height");
  return h;
}

std::optional<FieldSnapshot> field_snapshot_from_json(
    const common::JsonValue& row, const FieldHeader& header) {
  const auto t = common::data_row_time(row);
  if (!t) return std::nullopt;
  FieldSnapshot s;
  s.t = *t;
  const common::JsonValue* forced = row.find("forced");
  s.forced = forced != nullptr && forced->as_bool();
  s.total_deficit = row.number_at<std::uint64_t>("total_deficit");
  s.uncovered_points = row.number_at<std::uint64_t>("uncovered");
  if (const common::JsonValue* raster = row.find("raster")) {
    s.raster.reserve(raster->items().size());
    for (const common::JsonValue& cell : raster->items()) {
      const auto d = cell.number_as<std::uint32_t>();
      if (!d) return std::nullopt;
      s.raster.push_back(*d);
    }
  }
  if (s.raster.size() != header.cols * header.rows) return std::nullopt;
  if (const common::JsonValue* holes = row.find("holes")) {
    for (const common::JsonValue& h : holes->items()) {
      s.holes.push_back(coverage_hole_from_json(h));
    }
  }
  return s;
}

CoverageHole coverage_hole_from_json(const common::JsonValue& hole) {
  return {hole.number_at<std::uint64_t>("points"), hole.number_at("area"),
          {hole.number_at("cx"), hole.number_at("cy")},
          hole.number_at<std::uint32_t>("max_deficit")};
}

}  // namespace decor::coverage
