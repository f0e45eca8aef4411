// Lookups in the network layer's flat per-peer state: vectors of
// (id, value) pairs kept sorted by id, so a reception costs one binary
// search over contiguous memory and walks come out id-ascending.
#pragma once

#include <algorithm>
#include <cstdint>

namespace decor::net {

/// First pair whose id is not below `id` (const or mutable vector).
template <typename Pairs>
auto lower_by_id(Pairs& pairs, std::uint32_t id) {
  return std::lower_bound(
      pairs.begin(), pairs.end(), id,
      [](const auto& p, std::uint32_t key) { return p.first < key; });
}

/// The pair for `id`, or end().
template <typename Pairs>
auto find_by_id(Pairs& pairs, std::uint32_t id) {
  const auto it = lower_by_id(pairs, id);
  return it != pairs.end() && it->first == id ? it : pairs.end();
}

}  // namespace decor::net
