#include "graph/dist_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "graph/key_groups.hpp"
#include "runtime/executor.hpp"

namespace numabfs::graph {

namespace {

/// Fill rank slice `lg` from the global CSR. The caller has set its range
/// and sized bu_offsets, bu_adj and td_adj; `entries` and `scratch` are the
/// calling worker's buffers, at least one slice long.
void fill_local(const Csr& g, LocalGraph& lg,
                std::vector<std::uint64_t>& entries,
                std::vector<std::uint64_t>& scratch) {
  const auto& off = g.offsets();
  const std::uint64_t owned = lg.owned();
  const std::uint64_t first = off[lg.vbegin];

  // Bottom-up view: slice of the global CSR rows.
  for (std::uint64_t i = 0; i <= owned; ++i)
    lg.bu_offsets[i] = off[lg.vbegin + i] - first;
  std::copy(g.adj().begin() + static_cast<std::ptrdiff_t>(first),
            g.adj().begin() + static_cast<std::ptrdiff_t>(off[lg.vend]),
            lg.bu_adj.begin());

  // Top-down view: the same pairs (u -> owned v), grouped by u. They are
  // listed in v order, so sorting on u leaves each group's targets
  // ascending.
  const std::span<std::uint64_t> slice(entries.data(), lg.bu_adj.size());
  std::size_t k = 0;
  for (std::uint64_t i = 0; i < owned; ++i)
    for (Vertex u : lg.bu_neighbors(i))
      slice[k++] = pack_entry(u, static_cast<Vertex>(lg.vbegin + i));
  sort_by_key(slice, scratch, 0, g.num_vertices());
  split_groups(slice, lg.td_keys, lg.td_offsets, lg.td_adj);
}

}  // namespace

DistGraph DistGraph::build(const Csr& g, const Partition1D& part) {
  if (part.n() != g.num_vertices())
    throw std::invalid_argument(
        "DistGraph::build: the partition covers " + std::to_string(part.n()) +
        " vertices but the CSR has " + std::to_string(g.num_vertices()));
  DistGraph d;
  d.n = g.num_vertices();
  d.directed_edges = g.num_directed_edges();
  d.part = part;
  const int np = part.np();
  d.locals.resize(static_cast<size_t>(np));

  // Everything whose size the CSR gives is allocated here, on the calling
  // thread: memory allocated on a pool worker stays in that worker's
  // malloc arena, where the caller's later allocations cannot reuse it.
  std::uint64_t largest = 0;
  for (int r = 0; r < np; ++r) {
    LocalGraph& lg = d.locals[static_cast<size_t>(r)];
    lg.vbegin = part.begin(r);
    lg.vend = part.end(r);
    const std::uint64_t m = g.offsets()[lg.vend] - g.offsets()[lg.vbegin];
    lg.bu_offsets.resize(lg.owned() + 1);
    lg.bu_adj.resize(m);
    lg.td_adj.resize(m);
    largest = std::max(largest, m);
  }

  // Contiguous rank ranges, one per worker.
  const int nw = std::min(np, rt::exec::max_workers());
  std::vector<std::vector<std::uint64_t>> buffers(
      2 * static_cast<size_t>(nw), std::vector<std::uint64_t>(largest));
  rt::exec::run(nw, [&](int w) {
    for (int r = np * w / nw; r < np * (w + 1) / nw; ++r)
      fill_local(g, d.locals[static_cast<size_t>(r)], buffers[2 * w],
                 buffers[2 * w + 1]);
  });
  return d;
}

}  // namespace numabfs::graph
