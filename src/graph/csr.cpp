#include "graph/csr.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "runtime/executor.hpp"

namespace numabfs::graph {

namespace {

/// Rows up to this length are ordered by insertion sort; longer ones by a
/// counting sort over their classes.
constexpr std::uint64_t kInsertionRowMax = 24;
/// Adjacency entries per task of the hub-first pass: enough to amortize a
/// pool dispatch.
constexpr std::uint64_t kEntriesPerTask = std::uint64_t{1} << 15;

/// Order rows [vb, ve) hub-first by the per-vertex classes `cls`.
/// `row_cls` and `tmp` are the calling worker's buffers, at least one row
/// long.
void order_rows(const std::vector<std::uint64_t>& offsets,
                std::vector<Vertex>& adj, const std::vector<std::uint8_t>& cls,
                std::uint64_t vb, std::uint64_t ve,
                std::vector<std::uint8_t>& row_cls, std::vector<Vertex>& tmp) {
  std::array<std::uint64_t, 65> start{};  // one slot per class 0..64
  for (std::uint64_t v = vb; v < ve; ++v) {
    Vertex* row = adj.data() + offsets[v];
    const std::uint64_t len = offsets[v + 1] - offsets[v];
    if (len < 2) continue;
    // The row's classes, loaded once; they move along with its entries.
    std::uint8_t* c = row_cls.data();
    for (std::uint64_t i = 0; i < len; ++i) c[i] = cls[row[i]];
    if (len <= kInsertionRowMax) {
      for (std::uint64_t i = 1; i < len; ++i) {
        const Vertex x = row[i];
        const std::uint8_t cx = c[i];
        std::uint64_t j = i;
        for (; j > 0 && c[j - 1] < cx; --j) {
          row[j] = row[j - 1];
          c[j] = c[j - 1];
        }
        row[j] = x;
        c[j] = cx;
      }
      continue;
    }
    for (std::uint64_t i = 0; i < len; ++i) ++start[c[i]];
    std::size_t hi = start.size() - 1;
    while (start[hi] == 0) --hi;
    if (start[hi] != len) {  // more than one class: place them, highest first
      std::uint64_t at = 0;
      for (std::size_t k = hi + 1; k-- > 0;) {
        const std::uint64_t count = start[k];
        start[k] = at;
        at += count;
      }
      std::copy(row, row + len, tmp.data());
      for (std::uint64_t i = 0; i < len; ++i) row[start[c[i]]++] = tmp[i];
    }
    start.fill(0);
  }
}

/// Order every row hub-first: by descending degree class of the neighbour
/// (std::bit_width of its degree), generation order kept within a class.
/// A bottom-up search stops at its first neighbour in the frontier, and
/// hubs are the neighbours most likely to be in it. Rows are independent,
/// so they are cut into ranges of about equal entry counts, one per pool
/// worker; the result does not depend on the cut.
void order_rows_hub_first(const std::vector<std::uint64_t>& offsets,
                          std::vector<Vertex>& adj) {
  const std::uint64_t n = offsets.size() - 1;
  std::vector<std::uint8_t> cls(n);
  std::uint64_t longest = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t d = offsets[v + 1] - offsets[v];
    cls[v] = static_cast<std::uint8_t>(std::bit_width(d));
    longest = std::max(longest, d);
  }
  const std::uint64_t m = offsets[n];
  if (m == 0) return;

  const int nw = static_cast<int>(std::min<std::uint64_t>(
      (m + kEntriesPerTask - 1) / kEntriesPerTask,
      static_cast<std::uint64_t>(rt::exec::max_workers())));
  std::vector<std::uint64_t> cut(static_cast<std::size_t>(nw) + 1, n);
  for (int w = 0; w < nw; ++w)
    cut[static_cast<std::size_t>(w)] = static_cast<std::uint64_t>(
        std::lower_bound(offsets.begin(), offsets.end(),
                         m * static_cast<std::uint64_t>(w) /
                             static_cast<std::uint64_t>(nw)) -
        offsets.begin());
  // The workers' buffers are allocated here, on the calling thread, as in
  // DistGraph::build.
  std::vector<std::vector<std::uint8_t>> row_cls(
      static_cast<std::size_t>(nw), std::vector<std::uint8_t>(longest));
  std::vector<std::vector<Vertex>> tmp(static_cast<std::size_t>(nw),
                                       std::vector<Vertex>(longest));
  rt::exec::run(nw, [&](int w) {
    const auto k = static_cast<std::size_t>(w);
    order_rows(offsets, adj, cls, cut[k], cut[k + 1], row_cls[k], tmp[k]);
  });
}

}  // namespace

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
  if (policy == EdgePolicy::keep_multiplicity) {
    order_rows_hub_first(g.offsets_, g.adj_);
    return g;
  }

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
