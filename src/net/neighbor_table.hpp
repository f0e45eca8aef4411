// Neighbor tables: what one node knows about the nodes around it.
//
// Populated from HELLO and heartbeat messages; entries age out when
// heartbeats stop, which is exactly how DECOR detects node failures
// ("once a node stops receiving such messages from one of its neighbors,
// this indicates that the neighbor has failed", Section 3.2).
//
// Every HELLO and heartbeat a node hears lands here, so the table is one
// id-sorted vector the node owns: a reception costs one binary search over
// contiguous memory, which also answers the reboot question (the entry
// carries the peer's boot stamp), and stale()/snapshot() come out
// id-ascending without sorting.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "sim/event_queue.hpp"

namespace decor::net {

struct NeighborEntry {
  geom::Point2 pos;
  sim::Time last_seen = 0.0;
  /// Latest boot stamp (incarnation) heard from this peer.
  double boot = 0.0;
};

/// What one observe() learned about the peer.
struct Observation {
  /// `id` was not in the table (first contact, or first since forget()).
  bool fresh = false;
  /// The peer's boot stamp is later than any heard from it before, even
  /// before a forget(): it restarted with fresh protocol state.
  bool rebooted = false;
};

class NeighborTable {
 public:
  using Entries = std::vector<std::pair<std::uint32_t, NeighborEntry>>;

  /// Inserts or refreshes a neighbor heard at `now` carrying boot stamp
  /// `boot`.
  Observation observe(std::uint32_t id, geom::Point2 pos, sim::Time now,
                      double boot = 0.0);

  /// Removes a neighbor (explicit failure notification). Its boot stamp
  /// moves to the departed list, so a later observe() of the same id
  /// still tells a reboot from a return.
  void forget(std::uint32_t id);

  bool knows(std::uint32_t id) const;
  std::optional<NeighborEntry> get(std::uint32_t id) const;
  std::size_t size() const noexcept { return entries_.size(); }

  /// IDs whose last_seen is older than `deadline`, id-ascending; does not
  /// remove them (a copy, so callers may forget() while walking it).
  std::vector<std::uint32_t> stale(sim::Time deadline) const;

  /// All currently known (id, entry) pairs, id-ascending. The reference
  /// is invalidated by the next observe() or forget().
  const Entries& snapshot() const noexcept { return entries_; }

 private:
  Entries entries_;
  /// Boot stamps of forgotten peers, id-sorted; an id is in at most one
  /// of entries_ and departed_.
  std::vector<std::pair<std::uint32_t, double>> departed_;
};

}  // namespace decor::net
