#include "net/neighbor_table.hpp"

#include <algorithm>

namespace decor::net {

namespace {

/// First entry whose id is not below `id` (const or mutable table).
template <typename Entries>
auto lower(Entries& entries, std::uint32_t id) {
  return std::lower_bound(
      entries.begin(), entries.end(), id,
      [](const auto& e, std::uint32_t key) { return e.first < key; });
}

/// The entry for `id`, or end().
template <typename Entries>
auto find(Entries& entries, std::uint32_t id) {
  const auto it = lower(entries, id);
  return it != entries.end() && it->first == id ? it : entries.end();
}

}  // namespace

bool NeighborTable::observe(std::uint32_t id, geom::Point2 pos,
                            sim::Time now) {
  const auto it = lower(entries_, id);
  if (it != entries_.end() && it->first == id) {
    it->second = {pos, now};
    return false;
  }
  entries_.insert(it, {id, {pos, now}});
  return true;
}

void NeighborTable::forget(std::uint32_t id) {
  const auto it = find(entries_, id);
  if (it != entries_.end()) entries_.erase(it);
}

bool NeighborTable::knows(std::uint32_t id) const {
  return find(entries_, id) != entries_.end();
}

std::optional<NeighborEntry> NeighborTable::get(std::uint32_t id) const {
  const auto it = find(entries_, id);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::uint32_t> NeighborTable::stale(sim::Time deadline) const {
  std::vector<std::uint32_t> out;
  for (const auto& [id, e] : entries_) {
    if (e.last_seen < deadline) out.push_back(id);
  }
  return out;
}

}  // namespace decor::net
