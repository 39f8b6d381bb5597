// Pins the exact output of the graph builders: R-MAT generation, the 1-D
// slice build and the 2-D block build. Each digest below was recorded from
// the sort-based builders these replaced. The kernels pick parents in row
// and group order, so a reordering inside a group changes BFS trees and
// virtual time even though every edge-conservation test still passes.
// The inputs are large enough that every builder splits its work over
// several pool workers. The bu_adj digests are of hub-first rows
// (dist_graph.hpp), ranked by the CSR's own degrees; the top-down views
// and the 2-D blocks sort their entries by key, so row order does not
// reach them.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "bfs2d/bfs2d.hpp"
#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "graph/partition.hpp"
#include "graph/rmat.hpp"

namespace numabfs::graph {
namespace {

/// splitmix64 fold of one array, its length first: changing, reordering,
/// adding or dropping any element changes the digest.
template <class T>
std::uint64_t fold(std::uint64_t h, const std::vector<T>& a) {
  h = splitmix64(h ^ a.size());
  for (const T& x : a) {
    if constexpr (std::is_same_v<T, Edge>)
      h = splitmix64(h ^ (std::uint64_t{x.u} << 32 | x.v));
    else
      h = splitmix64(h ^ static_cast<std::uint64_t>(x));
  }
  return h;
}

/// Folds one array of every element of `parts` into a single digest.
template <class Part, class Get>
std::uint64_t fold_all(const std::vector<Part>& parts, Get get) {
  std::uint64_t h = parts.size();
  for (const Part& p : parts) h = fold(h, get(p));
  return h;
}

Csr rmat_csr(int scale, int edgefactor, std::uint64_t seed,
             EdgePolicy policy = EdgePolicy::keep_multiplicity) {
  RmatParams p;
  p.scale = scale;
  p.edgefactor = edgefactor;
  p.seed = seed;
  return Csr::from_edges(p.num_vertices(), rmat_edges(p), policy);
}

/// The message of the std::invalid_argument `f` throws, or "" if none.
template <class F>
std::string invalid_argument_of(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(BuilderPins, RmatEdges) {
  RmatParams p;
  p.scale = 12;
  p.edgefactor = 16;
  EXPECT_EQ(fold(0, rmat_edges(p)), 0xd8d863e35daa9f6eull);

  p.scale = 11;
  p.edgefactor = 8;
  p.seed = 7;
  p.permute_labels = false;
  EXPECT_EQ(fold(0, rmat_edges(p)), 0xe484bc8cb04e0ae0ull);
}

struct DistDigests {
  std::uint64_t ranges, bu_offsets, bu_adj, td_keys, td_offsets, td_adj;
};

void expect_digests(const Csr& g, int np, const DistDigests& want) {
  const DistGraph d = DistGraph::build(g, Partition1D(g.num_vertices(), np));
  std::vector<std::uint64_t> ranges{d.n, d.directed_edges};
  for (const LocalGraph& lg : d.locals) {
    ranges.push_back(lg.vbegin);
    ranges.push_back(lg.vend);
  }
  using L = LocalGraph;
  const auto& l = d.locals;
  EXPECT_EQ(fold(0, ranges), want.ranges);
  EXPECT_EQ(fold_all(l, [](const L& x) -> auto& { return x.bu_offsets; }),
            want.bu_offsets);
  EXPECT_EQ(fold_all(l, [](const L& x) -> auto& { return x.bu_adj; }),
            want.bu_adj);
  EXPECT_EQ(fold_all(l, [](const L& x) -> auto& { return x.td_keys; }),
            want.td_keys);
  EXPECT_EQ(fold_all(l, [](const L& x) -> auto& { return x.td_offsets; }),
            want.td_offsets);
  EXPECT_EQ(fold_all(l, [](const L& x) -> auto& { return x.td_adj; }),
            want.td_adj);
}

TEST(BuilderPins, DistGraphRaggedPartition) {
  // 4096 vertices over 7 ranks: blocks of 640, the last rank owns 256.
  expect_digests(rmat_csr(12, 16, 20120924), 7,
                 {0x13ef9bc1ba80c3a7ull, 0x5350e5202002f7dcull,
                  0x16d570a423bc9632ull, 0xcd6deca8f09ef64dull,
                  0x85b90a2c5e86607aull, 0x955ed37058e6638cull});
  expect_digests(rmat_csr(12, 16, 20120924, EdgePolicy::sorted_dedup), 7,
                 {0xa5784e82e3864107ull, 0x5542a93720dd0ee3ull,
                  0xb71aeffe221c18b7ull, 0xcd6deca8f09ef64dull,
                  0x7e517730217a776eull, 0xd81ca637d2f840c1ull});
}

TEST(BuilderPins, DistGraphTrailingRanksOwnNothing) {
  // 1024 vertices over 24 ranks: blocks of 64, ranks 16-23 own nothing.
  expect_digests(rmat_csr(10, 16, 7), 24,
                 {0x3dc3eeb714c9b079ull, 0x9adea3ee7d6a83d8ull,
                  0xd9a0958f40d44031ull, 0x88f5a75c125fc82aull,
                  0xe6d5a8da5ec1de72ull, 0x2c532e8ec203d109ull});
  expect_digests(rmat_csr(10, 16, 7, EdgePolicy::sorted_dedup), 24,
                 {0x4c69e5820df122afull, 0x18f3846245aa7286ull,
                  0x85004aacad3f4fe0ull, 0x88f5a75c125fc82aull,
                  0x27ad4db93d3455e4ull, 0x306c97b455521d35ull});
}

struct BlockDigests {
  std::uint64_t keys, offsets, targets, bu_keys, bu_offsets, bu_sources,
      piece_deg, owned_edges;
};

void expect_digests(const Csr& g, int rows, int cols,
                    const BlockDigests& want) {
  using B = bfs2d::Block2d;
  const bfs2d::DistGraph2d d = bfs2d::DistGraph2d::build(
      g, bfs2d::Grid2d(g.num_vertices(), rows, cols));
  const auto& b = d.blocks;
  EXPECT_EQ(fold_all(b, [](const B& x) -> auto& { return x.keys; }),
            want.keys);
  EXPECT_EQ(fold_all(b, [](const B& x) -> auto& { return x.offsets; }),
            want.offsets);
  EXPECT_EQ(fold_all(b, [](const B& x) -> auto& { return x.targets; }),
            want.targets);
  EXPECT_EQ(fold_all(b, [](const B& x) -> auto& { return x.bu_keys; }),
            want.bu_keys);
  EXPECT_EQ(fold_all(b, [](const B& x) -> auto& { return x.bu_offsets; }),
            want.bu_offsets);
  EXPECT_EQ(fold_all(b, [](const B& x) -> auto& { return x.bu_sources; }),
            want.bu_sources);
  EXPECT_EQ(fold_all(d.piece_deg, [](const auto& x) -> auto& { return x; }),
            want.piece_deg);
  EXPECT_EQ(fold(d.directed_edges, d.owned_edges), want.owned_edges);
}

TEST(BuilderPins, DistGraph2dSquareGrid) {
  expect_digests(rmat_csr(12, 16, 20120924), 4, 4,
                 {0xaa8d042b22ba3385ull, 0xd27f680c13e6b832ull,
                  0x1ede34557abf2fffull, 0xd4c4eab20614b3c4ull,
                  0x28c05b4f0facc2fdull, 0xaf8d077cf6b7ee42ull,
                  0xfcf4c65eb072d490ull, 0xbf51d2e67fc1af87ull});
}

TEST(BuilderPins, DistGraph2dRectangularGrid) {
  expect_digests(rmat_csr(11, 16, 7), 8, 2,
                 {0x919709e4c2111ff2ull, 0xb346a126b83a93d1ull,
                  0x0daf1099d297c0b6ull, 0xd6e5204759191a53ull,
                  0x33f31ce8d10fde85ull, 0x7bc748d057b37854ull,
                  0x209f66bc3c069762ull, 0x250de1bfd6832d35ull});
}

TEST(BuilderInputs, DistGraphRejectsAPartitionOfAnotherSize) {
  // A larger partition would read rows past the CSR; a smaller one would
  // silently drop its last vertices.
  const Csr g = rmat_csr(10, 8, 7);
  for (const std::uint64_t n : {2048u, 1000u}) {
    const std::string err = invalid_argument_of(
        [&] { DistGraph::build(g, Partition1D(n, 4)); });
    EXPECT_NE(err.find(std::to_string(n)), std::string::npos) << err;
    EXPECT_NE(err.find("1024"), std::string::npos) << err;
  }
}

TEST(BuilderInputs, DistGraphRejectsARankingOfAnotherSize) {
  // A shorter ranking would be read past its end by the row pass; a longer
  // one belongs to another graph.
  const Csr g = rmat_csr(10, 8, 7);
  const Partition1D part(g.num_vertices(), 4);
  for (const std::size_t n : {1000u, 2048u}) {
    const std::vector<std::uint8_t> ranking(n, 1);
    const std::string err =
        invalid_argument_of([&] { DistGraph::build(g, part, ranking); });
    EXPECT_NE(err.find("ranking"), std::string::npos) << err;
    EXPECT_NE(err.find(std::to_string(n)), std::string::npos) << err;
    EXPECT_NE(err.find("1024"), std::string::npos) << err;
  }
}

TEST(BuilderInputs, DistGraph2dRejectsAGridOfAnotherSize) {
  // A 100-vertex 2 x 2 grid over 1024 vertices would bucket neighbours
  // into column bands past the grid: block 7 of 4.
  const Csr g = rmat_csr(10, 8, 7);
  for (const std::uint64_t n : {100u, 2048u}) {
    const std::string err = invalid_argument_of(
        [&] { bfs2d::DistGraph2d::build(g, bfs2d::Grid2d(n, 2, 2)); });
    EXPECT_NE(err.find(std::to_string(n)), std::string::npos) << err;
    EXPECT_NE(err.find("1024"), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace numabfs::graph
