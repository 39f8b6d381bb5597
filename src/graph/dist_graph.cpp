#include "graph/dist_graph.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "graph/key_groups.hpp"
#include "runtime/executor.hpp"

namespace numabfs::graph {

namespace {

/// Rows up to this length are ordered by insertion sort; longer ones by a
/// counting sort over their classes.
constexpr std::uint64_t kInsertionRowMax = 24;

/// Fill rank slice `lg` from the global CSR. The caller has set its range
/// and sized bu_offsets, bu_adj and td_adj; `entries`, `scratch` and
/// `order` are the calling worker's buffers, at least one slice (`order`:
/// one row) long.
void fill_local(const Csr& g, std::span<const std::uint8_t> ranking,
                LocalGraph& lg, std::vector<std::uint64_t>& entries,
                std::vector<std::uint64_t>& scratch, RowOrderScratch& order) {
  const auto& off = g.offsets();
  const std::uint64_t owned = lg.owned();
  const std::uint64_t first = off[lg.vbegin];

  // Bottom-up view: slice of the global CSR rows, ordered hub-first.
  for (std::uint64_t i = 0; i <= owned; ++i)
    lg.bu_offsets[i] = off[lg.vbegin + i] - first;
  std::copy(g.adj().begin() + static_cast<std::ptrdiff_t>(first),
            g.adj().begin() + static_cast<std::ptrdiff_t>(off[lg.vend]),
            lg.bu_adj.begin());
  order_rows_hub_first(lg.bu_offsets, lg.bu_adj, ranking, order);

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

std::vector<std::uint8_t> degree_classes(const Csr& g) {
  std::vector<std::uint8_t> cls(g.num_vertices());
  for (std::uint64_t v = 0; v < cls.size(); ++v)
    cls[v] = static_cast<std::uint8_t>(
        std::bit_width(g.degree(static_cast<Vertex>(v))));
  return cls;
}

void order_rows_hub_first(std::span<const std::uint64_t> offsets,
                          std::span<Vertex> adj,
                          std::span<const std::uint8_t> ranking,
                          RowOrderScratch& scratch) {
  std::array<std::uint64_t, 65> start{};  // one slot per class 0..64
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
    Vertex* row = adj.data() + offsets[v];
    const std::uint64_t len = offsets[v + 1] - offsets[v];
    if (len < 2) continue;
    // The row's classes, loaded once; they move along with its entries.
    std::uint8_t* c = scratch.cls.data();
    for (std::uint64_t i = 0; i < len; ++i) c[i] = ranking[row[i]];
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
      std::copy(row, row + len, scratch.tmp.data());
      for (std::uint64_t i = 0; i < len; ++i)
        row[start[c[i]]++] = scratch.tmp[i];
    }
    start.fill(0);
  }
}

DistGraph DistGraph::build(const Csr& g, const Partition1D& part) {
  return build(g, part, degree_classes(g));
}

DistGraph DistGraph::build(const Csr& g, const Partition1D& part,
                           std::span<const std::uint8_t> ranking) {
  if (part.n() != g.num_vertices())
    throw std::invalid_argument(
        "DistGraph::build: the partition covers " + std::to_string(part.n()) +
        " vertices but the CSR has " + std::to_string(g.num_vertices()));
  if (ranking.size() != g.num_vertices())
    throw std::invalid_argument(
        "DistGraph::build: the ranking covers " +
        std::to_string(ranking.size()) + " vertices but the CSR has " +
        std::to_string(g.num_vertices()));
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
  std::uint64_t longest = 0;
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
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v)
    longest = std::max(longest, g.degree(static_cast<Vertex>(v)));

  // Contiguous rank ranges, one per worker. The rows are ordered by the
  // worker that fills their slice; the result does not depend on the cut.
  const int nw = std::min(np, rt::exec::max_workers());
  std::vector<std::vector<std::uint64_t>> buffers(
      2 * static_cast<size_t>(nw), std::vector<std::uint64_t>(largest));
  std::vector<RowOrderScratch> order(static_cast<size_t>(nw),
                                     RowOrderScratch(longest));
  rt::exec::run(nw, [&](int w) {
    for (int r = np * w / nw; r < np * (w + 1) / nw; ++r)
      fill_local(g, ranking, d.locals[static_cast<size_t>(r)], buffers[2 * w],
                 buffers[2 * w + 1], order[static_cast<size_t>(w)]);
  });
  return d;
}

}  // namespace numabfs::graph
