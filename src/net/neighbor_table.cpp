#include "net/neighbor_table.hpp"

#include <algorithm>

#include "net/id_sorted.hpp"

namespace decor::net {

Observation NeighborTable::observe(std::uint32_t id, geom::Point2 pos,
                                   sim::Time now, double boot) {
  const auto it = lower_by_id(entries_, id);
  if (it != entries_.end() && it->first == id) {
    NeighborEntry& e = it->second;
    const bool rebooted = boot > e.boot;
    e.pos = pos;
    e.last_seen = now;
    if (rebooted) e.boot = boot;
    return {false, rebooted};
  }
  // Heard again after forget(): compare with the stamp it left behind.
  bool rebooted = false;
  const auto gone = find_by_id(departed_, id);
  if (gone != departed_.end()) {
    rebooted = boot > gone->second;
    boot = std::max(boot, gone->second);
    departed_.erase(gone);
  }
  entries_.insert(it, {id, {pos, now, boot}});
  return {true, rebooted};
}

void NeighborTable::forget(std::uint32_t id) {
  const auto it = find_by_id(entries_, id);
  if (it == entries_.end()) return;
  departed_.insert(lower_by_id(departed_, id), {id, it->second.boot});
  entries_.erase(it);
}

bool NeighborTable::knows(std::uint32_t id) const {
  return find_by_id(entries_, id) != entries_.end();
}

std::optional<NeighborEntry> NeighborTable::get(std::uint32_t id) const {
  const auto it = find_by_id(entries_, id);
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
