#include "decor/bench_diff.hpp"

#include <cmath>
#include <limits>
#include <utility>

namespace decor::core {

namespace {

struct FlatMetric {
  std::string id;
  double mean = 0.0;
};

/// Flattens tables -> rows -> cells into "<table>[<x_name>=<x>].<series>"
/// ids, preserving document order so the diff reads like the source.
std::vector<FlatMetric> flatten(const common::JsonValue& doc) {
  std::vector<FlatMetric> out;
  const auto* tables = doc.find("tables");
  if (tables == nullptr) return out;
  for (const auto& [table_name, table] : tables->members()) {
    const auto* x_name_v = table.find("x_name");
    const std::string x_name =
        x_name_v != nullptr ? x_name_v->as_string("x") : "x";
    const auto* rows = table.find("rows");
    if (rows == nullptr) continue;
    for (const auto& row : rows->items()) {
      const auto* x = row.find("x");
      const std::string x_s =
          x != nullptr ? common::format_double(x->as_number()) : "?";
      const auto* cells = row.find("cells");
      if (cells == nullptr) continue;
      for (const auto& [series, cell] : cells->members()) {
        const auto* mean = cell.find("mean");
        if (mean == nullptr || !mean->is_number()) continue;
        out.push_back({table_name + "[" + x_name + "=" + x_s + "]." + series,
                       mean->as_number()});
      }
    }
  }
  return out;
}

bool is_bench_doc(const common::JsonValue& doc) {
  return doc.string_at("schema") == "decor.bench.v1" &&
         doc.find("tables") != nullptr;
}

}  // namespace

double BenchDiffResult::max_abs_delta_pct() const noexcept {
  double worst = 0.0;
  for (const auto& e : entries) {
    worst = std::max(worst, std::abs(e.delta_pct));
  }
  return worst;
}

bool BenchDiffResult::exceeds(double pct) const noexcept {
  for (const auto& e : entries) {
    if (std::abs(e.delta_pct) > pct) return true;
  }
  return false;
}

std::optional<BenchDiffResult> bench_diff(const common::JsonValue& a,
                                          const common::JsonValue& b) {
  if (!is_bench_doc(a) || !is_bench_doc(b)) return std::nullopt;
  const auto flat_a = flatten(a);
  const auto flat_b = flatten(b);

  BenchDiffResult result;
  std::vector<char> matched_b(flat_b.size(), 0);
  for (const auto& ma : flat_a) {
    // Linear probe: bench documents hold tens of metrics, and a scan
    // keeps B's duplicates (if any) matched one-to-one in order.
    std::size_t hit = flat_b.size();
    for (std::size_t i = 0; i < flat_b.size(); ++i) {
      if (matched_b[i] == 0 && flat_b[i].id == ma.id) {
        hit = i;
        break;
      }
    }
    if (hit == flat_b.size()) {
      result.only_a.push_back(ma.id);
      continue;
    }
    matched_b[hit] = 1;
    BenchDiffEntry e;
    e.metric = ma.id;
    e.a = ma.mean;
    e.b = flat_b[hit].mean;
    if (e.a == e.b) {
      e.delta_pct = 0.0;
    } else if (e.a == 0.0) {
      e.delta_pct = e.b > 0.0 ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity();
    } else {
      e.delta_pct = (e.b - e.a) / std::abs(e.a) * 100.0;
    }
    result.entries.push_back(std::move(e));
  }
  for (std::size_t i = 0; i < flat_b.size(); ++i) {
    if (matched_b[i] == 0) result.only_b.push_back(flat_b[i].id);
  }
  return result;
}

}  // namespace decor::core
