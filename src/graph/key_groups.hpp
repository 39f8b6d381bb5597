#pragma once
/// \file key_groups.hpp
/// Grouping adjacency entries by a vertex key: the step the 1-D slice build
/// (top-down groups) and the 2-D block build (both orientations) share.
///
/// An entry packs (key, value) as key << 32 | value. The builders list a
/// slice's entries in value order, and a stable sort on the key alone then
/// yields (key, value) order: groups ascending by key, each group's values
/// ascending. The sort is an LSD radix sort, so there is no comparison sort
/// over pairs and its work is linear in the entries.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace numabfs::graph {

inline std::uint64_t pack_entry(Vertex key, Vertex value) {
  return std::uint64_t{key} << 32 | value;
}
inline Vertex entry_key(std::uint64_t e) {
  return static_cast<Vertex>(e >> 32);
}
inline Vertex entry_value(std::uint64_t e) { return static_cast<Vertex>(e); }
/// The entry with key and value exchanged.
inline std::uint64_t swap_entry(std::uint64_t e) { return std::rotl(e, 32); }

/// Stable sort of `entries` by key, for keys in [base, base + span).
/// Passes of at most 11 bits, so a call costs O(entries + 2^11) per pass
/// whatever the size of the graph. `scratch` is working space; reusing it
/// across calls saves the allocation.
void sort_by_key(std::span<std::uint64_t> entries,
                 std::vector<std::uint64_t>& scratch, std::uint64_t base,
                 std::uint64_t span);

/// Split key-sorted `entries` into groups: the distinct keys ascending,
/// the group bounds (size keys + 1, starting at 0) and the values in entry
/// order.
void split_groups(std::span<const std::uint64_t> entries,
                  std::vector<Vertex>& keys,
                  std::vector<std::uint64_t>& offsets,
                  std::vector<Vertex>& values);

}  // namespace numabfs::graph
