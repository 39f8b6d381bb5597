#include "graph/csr.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

namespace numabfs::graph {

Csr Csr::from_edges(std::uint64_t num_vertices, std::span<const Edge> edges,
                    EdgePolicy policy) {
  Csr g;
  g.n_ = num_vertices;
  g.offsets_.assign(num_vertices + 1, 0);

  for (const Edge& e : edges) {
    assert(e.u < num_vertices && e.v < num_vertices);
    if (e.u == e.v) continue;
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (std::uint64_t v = 0; v < num_vertices; ++v)
    g.offsets_[v + 1] += g.offsets_[v];

  g.adj_.resize(g.offsets_[num_vertices]);
  std::vector<std::uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    g.adj_[cursor[e.u]++] = e.v;
    g.adj_[cursor[e.v]++] = e.u;
  }
  if (policy == EdgePolicy::keep_multiplicity) return g;

  // Set semantics: sort each row and collapse parallel edges, then
  // recompact. Row order becomes canonical (ascending), independent of the
  // edge-list order the graph was built from.
  std::vector<std::uint64_t> new_offsets(num_vertices + 1, 0);
  std::uint64_t w = 0;
  for (std::uint64_t v = 0; v < num_vertices; ++v) {
    const std::uint64_t b = g.offsets_[v];
    const std::uint64_t e = g.offsets_[v + 1];
    std::sort(g.adj_.begin() + static_cast<std::ptrdiff_t>(b),
              g.adj_.begin() + static_cast<std::ptrdiff_t>(e));
    new_offsets[v] = w;
    for (std::uint64_t i = b; i < e; ++i)
      if (i == b || g.adj_[i] != g.adj_[i - 1]) g.adj_[w++] = g.adj_[i];
  }
  new_offsets[num_vertices] = w;
  g.adj_.resize(w);
  g.offsets_ = std::move(new_offsets);
  return g;
}

Csr Csr::from_canonical_rows(std::vector<std::uint64_t> offsets,
                             std::vector<Vertex> adj) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != adj.size())
    throw std::invalid_argument(
        "Csr::from_canonical_rows: offsets must run from 0 to adj.size()");
  const std::uint64_t n = offsets.size() - 1;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (offsets[v + 1] < offsets[v])
      throw std::invalid_argument(
          "Csr::from_canonical_rows: offsets must be nondecreasing");
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i)
      assert(adj[i] < n && adj[i] != v &&
             (i == offsets[v] || adj[i - 1] < adj[i]));
  }
  Csr g;
  g.n_ = n;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  return g;
}

}  // namespace numabfs::graph
