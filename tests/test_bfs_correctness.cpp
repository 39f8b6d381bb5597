#include <gtest/gtest.h>

#include <tuple>

#include "bfs/hybrid.hpp"
#include "graph/validate.hpp"
#include "harness/graph500.hpp"

namespace numabfs {
namespace {

using harness::Experiment;
using harness::ExperimentOptions;
using harness::GraphBundle;

const GraphBundle& bundle_scale10() {
  static const GraphBundle b = GraphBundle::make(10, 16, 42, 8);
  return b;
}

ExperimentOptions shape(int nodes, int ppn) {
  ExperimentOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  return o;
}

void expect_valid(Experiment& e, const bfs::Config& cfg) {
  const GraphBundle& b = e.bundle();
  for (size_t i = 0; i < std::min<size_t>(3, b.roots.size()); ++i) {
    const auto [res, parent] = e.run_validated(cfg, b.roots[i]);
    const auto v = graph::validate_bfs_tree(b.csr, b.roots[i], parent);
    ASSERT_TRUE(v.ok) << cfg.name() << " root=" << b.roots[i] << ": "
                      << v.error;
    EXPECT_EQ(res.visited, v.visited) << cfg.name();
    EXPECT_EQ(res.traversed_directed_edges, v.directed_edges_in_component)
        << cfg.name();
    EXPECT_GT(res.time_ns, 0.0);
  }
}

// Variant x shape grid: every optimization level must produce a valid
// Graph500 tree on every cluster shape.
using VariantShape = std::tuple<int /*variant*/, int /*nodes*/, int /*ppn*/>;

class BfsVariants : public ::testing::TestWithParam<VariantShape> {};

bfs::Config variant_config(int v) {
  switch (v) {
    case 0: return bfs::original();
    case 1: {
      bfs::Config c = bfs::original();
      c.base_algo = rt::AllgatherAlgo::leader_ring;
      return c;
    }
    case 2: return bfs::share_in_queue();
    case 3: return bfs::share_all();
    case 4: return bfs::par_allgather();
    case 5: return bfs::granularity(256);
    case 6: return bfs::granularity(1024);
    default: {
      bfs::Config c;
      c.summary_granularity = 1;  // degenerate: summary == in_queue
      return c;
    }
  }
}

TEST_P(BfsVariants, ProducesValidGraph500Tree) {
  const auto [v, nodes, ppn] = GetParam();
  Experiment e(bundle_scale10(), shape(nodes, ppn));
  expect_valid(e, variant_config(v));
}

std::string variant_shape_name(const ::testing::TestParamInfo<VariantShape>& ti) {
  std::string name = "v";
  name.append(std::to_string(std::get<0>(ti.param)))
      .append("_n")
      .append(std::to_string(std::get<1>(ti.param)))
      .append("_ppn")
      .append(std::to_string(std::get<2>(ti.param)));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BfsVariants,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(1, 4, 8)),
    variant_shape_name);

// Pure directions (the Section II.A baselines) must also be correct.
class BfsDirections : public ::testing::TestWithParam<int> {};

TEST_P(BfsDirections, PureDirectionsValid) {
  bfs::Config c;
  c.direction = GetParam() == 0 ? bfs::Direction::top_down_only
                                : bfs::Direction::bottom_up_only;
  Experiment e(bundle_scale10(), shape(2, 4));
  expect_valid(e, c);
}

INSTANTIATE_TEST_SUITE_P(Pure, BfsDirections, ::testing::Values(0, 1));

// Execution policies (Fig. 10 axis) do not change the tree, only the time.
class BfsPolicies : public ::testing::TestWithParam<int> {};

TEST_P(BfsPolicies, PoliciesValid) {
  bfs::Config c;
  c.bind = static_cast<bfs::BindMode>(GetParam());
  Experiment e(bundle_scale10(), shape(2, 8));
  expect_valid(e, c);
}

INSTANTIATE_TEST_SUITE_P(Policies, BfsPolicies, ::testing::Range(0, 3));

// Different seeds / graphs.
class BfsSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsSeeds, RandomGraphsValid) {
  const GraphBundle b = GraphBundle::make(9, 8, GetParam(), 4);
  Experiment e(b, shape(2, 8));
  for (const auto& cfg : {bfs::original(), bfs::par_allgather()}) {
    const auto [res, parent] = e.run_validated(cfg, b.roots[0]);
    const auto v = graph::validate_bfs_tree(b.csr, b.roots[0], parent);
    ASSERT_TRUE(v.ok) << cfg.name() << ": " << v.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Bfs, IsolatedRootVisitsOnlyItself) {
  // A degree-0 root: tree = {root}, zero traversed edges.
  const GraphBundle b = GraphBundle::make(9, 8, 3, 4);
  graph::Vertex isolated = graph::kNoVertex;
  for (std::uint64_t v = 0; v < b.csr.num_vertices(); ++v)
    if (b.csr.degree(static_cast<graph::Vertex>(v)) == 0) {
      isolated = static_cast<graph::Vertex>(v);
      break;
    }
  ASSERT_NE(isolated, graph::kNoVertex);
  Experiment e(b, shape(2, 4));
  const auto [res, parent] = e.run_validated(bfs::original(), isolated);
  EXPECT_EQ(res.visited, 1u);
  EXPECT_EQ(res.traversed_directed_edges, 0u);
  EXPECT_EQ(parent[isolated], isolated);
}

TEST(Bfs, AllVariantsVisitSameSet) {
  const GraphBundle& b = bundle_scale10();
  Experiment e(b, shape(2, 8));
  const graph::Vertex root = b.roots[0];
  std::vector<graph::Vertex> first;
  for (int v = 0; v < 8; ++v) {
    const auto [res, parent] = e.run_validated(variant_config(v), root);
    std::vector<graph::Vertex> reach;
    for (std::uint64_t i = 0; i < parent.size(); ++i)
      if (parent[i] != graph::kNoVertex) reach.push_back(static_cast<graph::Vertex>(i));
    if (v == 0)
      first = reach;
    else
      EXPECT_EQ(reach, first) << "variant " << v;
  }
}

}  // namespace
}  // namespace numabfs
