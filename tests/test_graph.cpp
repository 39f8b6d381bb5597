#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "graph/partition.hpp"
#include "graph/reference_bfs.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"

namespace numabfs::graph {
namespace {

// --- Csr -----------------------------------------------------------------

TEST(Csr, BuildsSymmetricAdjacency) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {3, 3}};
  const Csr g = Csr::from_edges(4, edges);
  EXPECT_EQ(g.num_directed_edges(), 6u);  // self-loop dropped
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_EQ(g.degree(3), 0u);
  // symmetric: u in adj(v) <=> v in adj(u)
  for (Vertex v = 0; v < 4; ++v)
    for (Vertex u : g.neighbors(v)) {
      const auto nb = g.neighbors(u);
      EXPECT_NE(std::find(nb.begin(), nb.end(), v), nb.end());
    }
}

TEST(Csr, KeepsDuplicateEdges) {
  const std::vector<Edge> edges = {{0, 1}, {0, 1}, {1, 0}};
  const Csr g = Csr::from_edges(2, edges);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 3u);
}

TEST(Csr, SortedDedupCanonicalizesRows) {
  // The dynamic graph layer's policy: rows sorted, duplicates collapsed —
  // the canonical form every merged view and compaction rebuild shares.
  const std::vector<Edge> edges = {{0, 1}, {0, 1}, {1, 0}, {2, 0}, {0, 2}};
  const Csr g = Csr::from_edges(3, edges, EdgePolicy::sorted_dedup);
  EXPECT_EQ(g.degree(0), 2u);  // {1, 2}, not 4 halves
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 1u);
  for (Vertex v = 0; v < 3; ++v) {
    const auto nb = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    EXPECT_EQ(std::adjacent_find(nb.begin(), nb.end()), nb.end());
  }
}

TEST(Csr, DeleteThenReinsertRoundTripsDegree) {
  // Under sorted_dedup, deleting an edge and re-inserting it (even several
  // times over, as an LSM delta stream may) restores the exact degrees —
  // the invariant that lets tombstone + re-insert round-trip the graph.
  RmatParams p;
  p.scale = 8;
  p.edgefactor = 8;
  auto edges = rmat_edges(p);
  const Csr before = Csr::from_edges(p.num_vertices(), edges,
                                     EdgePolicy::sorted_dedup);
  // Pick the first non-self-loop edge, "delete" it, then re-insert twice.
  std::size_t pick = 0;
  while (pick < edges.size() && edges[pick].u == edges[pick].v) ++pick;
  ASSERT_LT(pick, edges.size());
  const Edge e = edges[pick];
  edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(pick));
  edges.push_back(e);
  edges.push_back(e);  // duplicate re-insert collapses back to one
  const Csr after = Csr::from_edges(p.num_vertices(), edges,
                                    EdgePolicy::sorted_dedup);
  ASSERT_EQ(after.num_directed_edges(), before.num_directed_edges());
  for (Vertex v = 0; v < p.num_vertices(); ++v) {
    ASSERT_EQ(after.degree(v), before.degree(v)) << "vertex " << v;
    const auto a = after.neighbors(v);
    const auto b = before.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(Csr, EmptyGraph) {
  const Csr g = Csr::from_edges(5, {});
  EXPECT_EQ(g.num_directed_edges(), 0u);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

// --- Partition1D ----------------------------------------------------------

TEST(Partition, CoversExactlyOnce) {
  for (std::uint64_t n : {64ull, 100ull, 1000ull, 4096ull}) {
    for (int np : {1, 2, 3, 8, 16}) {
      Partition1D part(n, np);
      std::uint64_t covered = 0;
      for (int r = 0; r < np; ++r) {
        // Non-empty blocks start word-aligned; empty tails clip to n.
        EXPECT_TRUE(part.begin(r) % 64 == 0 || part.begin(r) == n)
            << part.begin(r);
        EXPECT_LE(part.begin(r), part.end(r));
        covered += part.size(r);
        for (std::uint64_t v = part.begin(r); v < part.end(r); ++v)
          EXPECT_EQ(part.owner(v), r);
      }
      EXPECT_EQ(covered, n) << "n=" << n << " np=" << np;
      EXPECT_GE(part.padded_bits(), n);
      EXPECT_EQ(part.padded_bits() % 64, 0u);
    }
  }
}

TEST(Partition, EqualBlocksForPowerOfTwo) {
  Partition1D part(1 << 12, 16);
  for (int r = 0; r < 16; ++r) EXPECT_EQ(part.size(r), (1u << 12) / 16);
}

// --- DistGraph -------------------------------------------------------------

/// Generation-order rows: a plain scatter of `edges`, self-loops dropped.
std::vector<std::vector<Vertex>> scatter_rows(std::uint64_t n,
                                              std::span<const Edge> edges) {
  std::vector<std::vector<Vertex>> rows(n);
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    rows[e.u].push_back(e.v);
    rows[e.v].push_back(e.u);
  }
  return rows;
}

/// Every row of `g`, as plain vectors.
std::vector<std::vector<Vertex>> csr_rows(const Csr& g) {
  std::vector<std::vector<Vertex>> rows;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto r = g.neighbors(v);
    rows.emplace_back(r.begin(), r.end());
  }
  return rows;
}

/// Every bottom-up row of `d` holds the entries of the same row of `ref`,
/// reordered by class of the neighbour under `cls` (never increasing along
/// the row) and kept in `ref`'s order within a class.
void expect_hub_first(const DistGraph& d,
                      const std::vector<std::vector<Vertex>>& ref,
                      std::span<const std::uint8_t> cls) {
  for (const LocalGraph& lg : d.locals)
    for (std::uint64_t lv = 0; lv < lg.owned(); ++lv) {
      const auto v = static_cast<Vertex>(lg.vbegin + lv);
      const auto row = lg.bu_neighbors(lv);
      const auto& want = ref[v];
      ASSERT_TRUE(std::is_permutation(row.begin(), row.end(), want.begin(),
                                      want.end()))
          << "row " << v;
      for (std::size_t i = 1; i < row.size(); ++i)
        ASSERT_GE(cls[row[i - 1]], cls[row[i]]) << "row " << v << " at " << i;
      for (int c = 0; c <= 64; ++c) {
        std::vector<Vertex> got, in_ref;
        std::copy_if(row.begin(), row.end(), std::back_inserter(got),
                     [&](Vertex u) { return cls[u] == c; });
        std::copy_if(want.begin(), want.end(), std::back_inserter(in_ref),
                     [&](Vertex u) { return cls[u] == c; });
        ASSERT_EQ(got, in_ref) << "row " << v << " class " << c;
      }
    }
}

TEST(DistGraph, BottomUpRowsAreHubFirstUnderBothPolicies) {
  // Degrees 6, 3, 4, 1, 2, 1, 1: classes 3, 2, 3, 1, 2, 1, 1.
  const std::vector<Edge> edges = {{2, 3}, {2, 1}, {2, 0}, {0, 1}, {0, 4},
                                   {0, 5}, {0, 6}, {1, 4}, {3, 3}, {2, 0}};
  const Csr g = Csr::from_edges(7, edges);
  const DistGraph d = DistGraph::build(g, Partition1D(7, 3));
  const auto row = [&](Vertex v) {
    const auto r = d.locals[0].bu_neighbors(v);
    return std::vector<Vertex>(r.begin(), r.end());
  };
  EXPECT_EQ(row(0), (std::vector<Vertex>{2, 2, 1, 4, 5, 6}));
  EXPECT_EQ(row(1), (std::vector<Vertex>{2, 0, 4}));
  EXPECT_EQ(row(2), (std::vector<Vertex>{0, 0, 1, 3}));
  EXPECT_EQ(row(4), (std::vector<Vertex>{0, 1}));
  EXPECT_EQ(csr_rows(g), scatter_rows(7, edges));  // the CSR keeps its order

  // A supplied ranking replaces the degree classes: here the vertex id.
  const std::vector<std::uint8_t> by_id = {0, 1, 2, 3, 4, 5, 6};
  const DistGraph ranked = DistGraph::build(g, Partition1D(7, 3), by_id);
  const auto r0 = ranked.locals[0].bu_neighbors(0);
  EXPECT_EQ(std::vector<Vertex>(r0.begin(), r0.end()),
            (std::vector<Vertex>{6, 5, 4, 2, 2, 1}));
  expect_hub_first(ranked, csr_rows(g), by_id);

  // R-MAT rows run from one entry to far past the insertion-sort cutoff,
  // so both the short-row and the long-row ordering are exercised, over a
  // partition whose ranks the pool splits between its workers.
  RmatParams p;
  p.scale = 12;
  p.edgefactor = 16;
  const auto rmat = rmat_edges(p);
  const Partition1D part(p.num_vertices(), 7);
  const Csr keep = Csr::from_edges(p.num_vertices(), rmat);
  const auto gen = scatter_rows(p.num_vertices(), rmat);
  EXPECT_EQ(csr_rows(keep), gen);
  expect_hub_first(DistGraph::build(keep, part), gen, degree_classes(keep));

  // Set semantics keep canonical CSR rows, strictly ascending; the slices
  // order them hub-first all the same, ascending within a class.
  const Csr s =
      Csr::from_edges(p.num_vertices(), rmat, EdgePolicy::sorted_dedup);
  for (Vertex v = 0; v < s.num_vertices(); ++v) {
    const auto r = s.neighbors(v);
    EXPECT_TRUE(std::adjacent_find(r.begin(), r.end(), [](Vertex a, Vertex b) {
                  return a >= b;
                }) == r.end())
        << "row " << v;
  }
  expect_hub_first(DistGraph::build(s, part), csr_rows(s),
                   degree_classes(s));
}

TEST(DistGraph, PreservesAllEdgesBothViews) {
  RmatParams p;
  p.scale = 10;
  p.edgefactor = 8;
  const auto edges = rmat_edges(p);
  const Csr g = Csr::from_edges(p.num_vertices(), edges);
  const Partition1D part(g.num_vertices(), 8);
  const DistGraph d = DistGraph::build(g, part);

  std::uint64_t bu_total = 0, td_total = 0;
  for (const auto& lg : d.locals) {
    bu_total += lg.bu_adj.size();
    td_total += lg.td_adj.size();
    // td view is the transpose of the bu view: same multiset of pairs.
    EXPECT_EQ(lg.bu_adj.size(), lg.td_adj.size());
    // groups are sorted and offsets consistent
    EXPECT_TRUE(std::is_sorted(lg.td_keys.begin(), lg.td_keys.end()));
    EXPECT_EQ(lg.td_offsets.size(), lg.td_keys.size() + 1);
    EXPECT_EQ(lg.td_offsets.back(), lg.td_adj.size());
    // every td target is owned
    for (Vertex v : lg.td_adj) {
      EXPECT_GE(v, lg.vbegin);
      EXPECT_LT(v, lg.vend);
    }
  }
  EXPECT_EQ(bu_total, g.num_directed_edges());
  EXPECT_EQ(td_total, g.num_directed_edges());
}

TEST(DistGraph, BottomUpRowsMatchCsr) {
  RmatParams p;
  p.scale = 9;
  p.edgefactor = 4;
  const auto edges = rmat_edges(p);
  const Csr g = Csr::from_edges(p.num_vertices(), edges);
  const Partition1D part(g.num_vertices(), 4);
  const DistGraph d = DistGraph::build(g, part);
  expect_hub_first(d, csr_rows(g), degree_classes(g));
  for (const auto& lg : d.locals)
    EXPECT_EQ(lg.bu_offsets.back(),
              g.offsets()[lg.vend] - g.offsets()[lg.vbegin]);
}

// --- reference BFS + validation -------------------------------------------

TEST(ReferenceBfs, SmallPath) {
  // 0-1-2-3 path plus isolated 4
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}};
  const Csr g = Csr::from_edges(5, edges);
  const BfsTree t = reference_bfs(g, 0);
  EXPECT_EQ(t.visited, 4u);
  EXPECT_EQ(t.parent[0], 0u);
  EXPECT_EQ(t.parent[1], 0u);
  EXPECT_EQ(t.parent[2], 1u);
  EXPECT_EQ(t.parent[3], 2u);
  EXPECT_EQ(t.parent[4], kNoVertex);
  EXPECT_EQ(t.depth[3], 3u);
}

TEST(Validate, AcceptsReferenceTree) {
  RmatParams p;
  p.scale = 10;
  const auto edges = rmat_edges(p);
  const Csr g = Csr::from_edges(p.num_vertices(), edges);
  Vertex root = 0;
  while (g.degree(root) == 0) ++root;
  const BfsTree t = reference_bfs(g, root);
  const auto r = validate_bfs_tree(g, root, t.parent);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.visited, t.visited);
  EXPECT_GT(r.traversed_edges(), 0u);
}

TEST(Validate, PostDeleteIsolatedVerticesAreUnreachable) {
  // A post-delete snapshot: vertex 2's edges were all tombstoned away.
  // The isolated vertex validates as unreachable — counted, not an error.
  const std::vector<Edge> edges = {{0, 1}, {1, 3}};
  const Csr g = Csr::from_edges(4, edges, EdgePolicy::sorted_dedup);
  const BfsTree t = reference_bfs(g, 0);
  const auto r = validate_bfs_tree(g, 0, t.parent);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.visited, 3u);
  EXPECT_EQ(r.isolated, 1u);
}

TEST(Validate, IsolatedRootIsValidSingletonTree) {
  // Deletes can fully strand the query's root; the singleton tree is valid.
  const std::vector<Edge> edges = {{1, 2}};
  const Csr g = Csr::from_edges(3, edges, EdgePolicy::sorted_dedup);
  const BfsTree t = reference_bfs(g, 0);
  const auto r = validate_bfs_tree(g, 0, t.parent);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.visited, 1u);
  EXPECT_EQ(r.isolated, 1u);
  EXPECT_EQ(r.traversed_edges(), 0u);
}

TEST(Validate, RejectsTreeReachingIsolatedVertex) {
  // A stale tree claiming to reach a fully-tombstoned vertex must fail
  // with the specific isolated-vertex diagnosis.
  const std::vector<Edge> edges = {{0, 1}};
  const Csr g = Csr::from_edges(3, edges, EdgePolicy::sorted_dedup);
  std::vector<Vertex> par = {0, 0, 1};  // vertex 2 has no edges anymore
  const auto r = validate_bfs_tree(g, 0, par);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("isolated"), std::string::npos) << r.error;
}

struct Corruption {
  const char* name;
  void (*apply)(const Csr&, Vertex, std::vector<Vertex>&);
};

void corrupt_root(const Csr&, Vertex root, std::vector<Vertex>& par) {
  par[root] = root == 0 ? 1 : 0;
}
void corrupt_fake_edge(const Csr& g, Vertex root, std::vector<Vertex>& par) {
  // point some visited vertex at a non-neighbor
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v) {
    if (v == root || par[v] == kNoVertex) continue;
    const auto nb = g.neighbors(static_cast<Vertex>(v));
    for (Vertex cand = 0; cand < g.num_vertices(); ++cand) {
      if (cand == v) continue;
      if (par[cand] == kNoVertex) continue;  // keep visited set intact
      if (std::find(nb.begin(), nb.end(), cand) == nb.end()) {
        par[v] = cand;
        return;
      }
    }
  }
}
void corrupt_drop_vertex(const Csr& g, Vertex root, std::vector<Vertex>& par) {
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v)
    if (v != root && par[v] != kNoVertex) {
      par[v] = kNoVertex;
      return;
    }
}
void corrupt_cycle(const Csr& g, Vertex root, std::vector<Vertex>& par) {
  // create a 2-cycle between adjacent visited vertices u-v
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v) {
    if (v == root || par[v] == kNoVertex) continue;
    for (Vertex u : g.neighbors(static_cast<Vertex>(v))) {
      if (u == root || par[u] == kNoVertex) continue;
      par[v] = u;
      par[u] = static_cast<Vertex>(v);
      return;
    }
  }
}

class ValidateRejects : public ::testing::TestWithParam<int> {};

TEST_P(ValidateRejects, CorruptedTrees) {
  static const Corruption kCorruptions[] = {
      {"wrong-root", corrupt_root},
      {"fake-edge", corrupt_fake_edge},
      {"dropped-vertex", corrupt_drop_vertex},
      {"parent-cycle", corrupt_cycle},
  };
  RmatParams p;
  p.scale = 9;
  const auto edges = rmat_edges(p);
  const Csr g = Csr::from_edges(p.num_vertices(), edges);
  Vertex root = 0;
  while (g.degree(root) == 0) ++root;
  const BfsTree t = reference_bfs(g, root);
  ASSERT_GT(t.visited, 3u);

  const Corruption& c = kCorruptions[GetParam()];
  std::vector<Vertex> par = t.parent;
  c.apply(g, root, par);
  ASSERT_NE(par, t.parent) << c.name << ": corruption was a no-op";
  const auto r = validate_bfs_tree(g, root, par);
  EXPECT_FALSE(r.ok) << c.name << " accepted";
}

INSTANTIATE_TEST_SUITE_P(Corruptions, ValidateRejects, ::testing::Range(0, 4));

}  // namespace
}  // namespace numabfs::graph
