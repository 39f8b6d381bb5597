#include "graph/rmat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace numabfs::graph {
namespace {

TEST(Rmat, Deterministic) {
  RmatParams p;
  p.scale = 10;
  p.edgefactor = 8;
  const auto a = rmat_edges(p);
  const auto b = rmat_edges(p);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(Rmat, SeedChangesGraph) {
  RmatParams p;
  p.scale = 10;
  p.edgefactor = 8;
  const auto a = rmat_edges(p);
  p.seed += 1;
  const auto b = rmat_edges(p);
  EXPECT_FALSE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(Rmat, RangeSplittingIsConsistent) {
  RmatParams p;
  p.scale = 9;
  p.edgefactor = 4;
  const auto all = rmat_edges(p);
  // Any partition of the index space yields the same stream.
  const auto part1 = rmat_edge_range(p, 0, 1000);
  const auto part2 = rmat_edge_range(p, 1000, all.size() - 1000);
  ASSERT_EQ(part1.size() + part2.size(), all.size());
  for (size_t i = 0; i < part1.size(); ++i) EXPECT_EQ(part1[i], all[i]);
  for (size_t i = 0; i < part2.size(); ++i)
    EXPECT_EQ(part2[i], all[1000 + i]);
}

TEST(Rmat, EdgeCountAndBounds) {
  RmatParams p;
  p.scale = 12;
  p.edgefactor = 16;
  const auto edges = rmat_edges(p);
  EXPECT_EQ(edges.size(), p.num_edges());
  for (const Edge& e : edges) {
    EXPECT_LT(e.u, p.num_vertices());
    EXPECT_LT(e.v, p.num_vertices());
  }
}

TEST(Rmat, PermutationIsBijective) {
  for (int scale : {1, 2, 7, 10}) {
    RmatParams p;
    p.scale = scale;
    std::set<Vertex> seen;
    const std::uint64_t n = p.num_vertices();
    for (std::uint64_t v = 0; v < n; ++v)
      seen.insert(rmat_permute_label(p, static_cast<Vertex>(v)));
    EXPECT_EQ(seen.size(), n) << "scale " << scale;
    EXPECT_LT(*seen.rbegin(), n) << "scale " << scale;
  }
}

TEST(Rmat, PermutationDisabledIsIdentity) {
  RmatParams p;
  p.scale = 8;
  p.permute_labels = false;
  for (Vertex v : {0u, 17u, 255u})
    EXPECT_EQ(rmat_permute_label(p, v), v);
}

TEST(Rmat, ScaleFreeDegreeSkew) {
  // R-MAT with the Graph500 parameters produces heavy-tailed degrees: the
  // top 1% of vertices must hold far more than 1% of the edge endpoints.
  RmatParams p;
  p.scale = 14;
  p.edgefactor = 16;
  const auto edges = rmat_edges(p);
  const Csr g = Csr::from_edges(p.num_vertices(), edges);
  std::vector<std::uint64_t> degs;
  degs.reserve(p.num_vertices());
  for (std::uint64_t v = 0; v < p.num_vertices(); ++v)
    degs.push_back(g.degree(static_cast<Vertex>(v)));
  std::sort(degs.rbegin(), degs.rend());
  const size_t top = degs.size() / 100;
  std::uint64_t top_sum = 0, total = 0;
  for (size_t i = 0; i < degs.size(); ++i) {
    total += degs[i];
    if (i < top) top_sum += degs[i];
  }
  EXPECT_GT(static_cast<double>(top_sum), 0.10 * static_cast<double>(total))
      << "degree distribution not heavy-tailed";
}

TEST(Rmat, SomeVerticesIsolated) {
  // Scale-free graphs at edgefactor 16 still leave a tail of zero-degree
  // vertices (the Graph500 generator does too) — roots must dodge them.
  RmatParams p;
  p.scale = 12;
  const auto edges = rmat_edges(p);
  const Csr g = Csr::from_edges(p.num_vertices(), edges);
  std::uint64_t isolated = 0;
  for (std::uint64_t v = 0; v < p.num_vertices(); ++v)
    isolated += g.degree(static_cast<Vertex>(v)) == 0;
  EXPECT_GT(isolated, 0u);
  EXPECT_LT(isolated, p.num_vertices() / 2);
}

TEST(Rmat, ValidateRejectsOutOfRangeParameters) {
  // Scale 32 would need vertex id 2^32-1, the no-vertex sentinel; scale 64
  // would shift by 64; a negative edgefactor would wrap to a huge count.
  struct Case {
    const char* field;
    RmatParams p;
  };
  std::vector<Case> cases;
  for (const int scale : {0, 32, 64}) {
    cases.push_back({"scale", {}});
    cases.back().p.scale = scale;
  }
  for (const int edgefactor : {0, -1}) {
    cases.push_back({"edgefactor", {}});
    cases.back().p.edgefactor = edgefactor;
  }
  const auto with = [](double a, double b, double c) {
    RmatParams p;
    p.a = a;
    p.b = b;
    p.c = c;
    return Case{"a + b + c", p};
  };
  cases.push_back(with(-0.1, 0.19, 0.19));
  cases.push_back(with(0.57, -0.1, 0.19));
  cases.push_back(with(0.57, 0.19, -0.1));
  cases.push_back(with(0.57, 0.19, 0.24));  // d = 0
  cases.push_back(with(0.9, 0.19, 0.19));
  cases.push_back(with(std::nan(""), 0.19, 0.19));
  for (const Case& c : cases) {
    const std::string err = c.p.validate();
    EXPECT_NE(err.find(c.field), std::string::npos) << err;
    EXPECT_THROW(rmat_edge_range(c.p, 0, 1), std::invalid_argument) << err;
    EXPECT_THROW(rmat_edges(c.p), std::invalid_argument) << err;
  }

  RmatParams ok;
  EXPECT_EQ(ok.validate(), "");
  ok.scale = 31;  // the largest scale whose ids all fit below the sentinel
  EXPECT_EQ(ok.validate(), "");
  ok.scale = 1;
  ok.edgefactor = 1;
  EXPECT_EQ(rmat_edges(ok).size(), 2u);
}

TEST(Rmat, SplitMixAvalanche) {
  // Adjacent inputs must not produce correlated outputs.
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 1000; ++i) outs.insert(splitmix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

}  // namespace
}  // namespace numabfs::graph
