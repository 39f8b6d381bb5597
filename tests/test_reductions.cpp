// The world reductions a traversal pays, as a checked property. The design
// predicts, per rank: one for the root set-up, one per level (the level
// loop's stats reduction, whatever words the traversal fills) and one per
// presence exchange. The 2-D skips the set-up reduction wherever the
// graph's largest degree would start top-down, since then every root does.
// A codec-gated 1-D run adds at most one trial reduction per gated bitmap
// leg, a 2-D run at most one per exchange (one gate covers all its legs);
// the list exchanges add none.
// sim::Counters::reductions counts one per rt::allreduce per rank, and the
// run's profile_avg sums it over ranks.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/direction.hpp"
#include "bfs2d/bfs2d.hpp"
#include "engine/msbfs.hpp"
#include "engine/programs.hpp"
#include "graph/validate.hpp"
#include "harness/graph500.hpp"

namespace numabfs {
namespace {

constexpr int kNodes = 2;
constexpr int kPpn = 4;
constexpr std::uint64_t kRanks = kNodes * kPpn;

const harness::GraphBundle& bundle() {
  static const harness::GraphBundle b =
      harness::GraphBundle::make(11, 16, 7, 4);
  return b;
}

harness::Experiment experiment() {
  harness::ExperimentOptions opt;
  opt.nodes = kNodes;
  opt.ppn = kPpn;
  return harness::Experiment(bundle(), opt);
}

std::uint64_t reductions(const sim::PhaseProfile& avg) {
  return avg.counters().reductions;
}

std::uint64_t levels(int n) { return static_cast<std::uint64_t>(n); }

TEST(Reductions, OneDPaysOnePerRootAndLevel) {
  harness::Experiment e = experiment();
  bfs::Config tuned = bfs::original();
  tuned.tune.adapt_direction = true;  // its words ride the level's reduction
  for (const bfs::Config& cfg : {bfs::original(), tuned}) {
    const auto r = e.run_validated(cfg, bundle().roots[0]).first;
    EXPECT_EQ(reductions(r.profile_avg), kRanks * (1 + levels(r.levels)));
  }
}

TEST(Reductions, TwoDPaysOnePerLevel) {
  harness::Experiment e = experiment();
  const auto grid = bfs2d::Grid2d::make(bundle().csr.num_vertices(),
                                        kNodes * kPpn, kPpn);
  const auto d2 = bfs2d::DistGraph2d::build(bundle().csr, grid);
  // The R-MAT graph's hubs hold a small share of its edges, so every root
  // starts top-down and no set-up reduction runs.
  ASSERT_EQ(bfs::Beamer{}.first(d2.max_degree,
                                d2.directed_edges - d2.max_degree),
            0);
  bfs2d::Bfs2dOptions hier;
  hier.hier = rt::coll_model::HierLevel::node;
  const auto r = bfs2d::run_bfs_2d(e.cluster(), d2, bundle().roots[0],
                                   nullptr, hier);
  EXPECT_EQ(r.directions.front(), 0);
  EXPECT_EQ(reductions(r.profile_avg), kRanks * levels(r.levels));
}

TEST(Reductions, TwoDKeepsTheSetUpReductionWhereARootMayStartBottomUp) {
  // A star: the hub holds half the directed edges, past Beamer's E/15, so
  // the set-up reduction runs for every root and decides level 0 from the
  // root's own degree: bottom-up from the hub, top-down from a leaf.
  constexpr graph::Vertex kN = 512;
  std::vector<graph::Edge> edges;
  for (graph::Vertex v = 1; v < kN; ++v) edges.push_back({0, v});
  const graph::Csr star = graph::Csr::from_edges(kN, edges);
  const auto grid = bfs2d::Grid2d::make(kN, kNodes * kPpn, kPpn);
  const auto d2 = bfs2d::DistGraph2d::build(star, grid);
  ASSERT_EQ(d2.max_degree, kN - 1);
  ASSERT_GT(d2.max_degree * 15, d2.directed_edges);

  harness::Experiment e = experiment();
  const bfs::Beamer beamer;
  for (const graph::Vertex root : {graph::Vertex{0}, graph::Vertex{7}}) {
    std::vector<graph::Vertex> parent;
    const auto r = bfs2d::run_bfs_2d(e.cluster(), d2, root, &parent);
    const auto v = graph::validate_bfs_tree(star, root, parent);
    ASSERT_TRUE(v.ok) << v.error;
    const std::uint64_t deg = star.degree(root);
    EXPECT_EQ(r.directions.front(),
              beamer.first(deg, d2.directed_edges - deg))
        << "root " << root;
    EXPECT_EQ(r.directions.front(), root == 0 ? 1 : 0) << "root " << root;
    EXPECT_EQ(reductions(r.profile_avg), kRanks * (1 + levels(r.levels)))
        << "root " << root;
  }
}

TEST(Reductions, WaveAddsOnePerPresenceExchange) {
  harness::Experiment e = experiment();
  engine::WaveState ws(e.dist(), bfs::original(), kNodes, kPpn, false);
  std::vector<engine::WaveQuery> qs;
  for (const graph::Vertex s : bundle().roots)
    qs.push_back({engine::QueryKind::full_distances, s, 0, 0});
  const auto r = engine::run_wave(e.cluster(), e.dist(), ws, qs);
  // The sources' degree sum, then every level but the last exchanges.
  EXPECT_EQ(reductions(r.profile_avg),
            kRanks * (1 + levels(r.levels) + levels(r.levels) - 1));
}

TEST(Reductions, SsspAddsOnePerPresenceExchange) {
  harness::Experiment e = experiment();
  const auto prog =
      engine::make_program(engine::ProgramWorkload::sssp, e.dist(), {});
  engine::ProgramState ps(e.dist(), bfs::original(), kNodes, kPpn,
                          prog->with_values());
  const auto r = engine::run_program(e.cluster(), e.dist(), ps, *prog,
                                     {bundle().roots[0], bundle().roots[1]});
  ASSERT_TRUE(r.converged);
  // The seed's stats and exchange, then every level but the converging one
  // exchanges.
  EXPECT_EQ(reductions(r.profile_avg),
            kRanks * (2 + levels(r.levels) + levels(r.levels) - 1));
}

TEST(Reductions, GatedRunsAddAtMostOneTrialPerBitmapLeg) {
  harness::Experiment e = experiment();
  const auto r1 = e.run_validated(bfs::compressed(), bundle().roots[0]).first;
  const std::uint64_t base1 = 1 + levels(r1.levels);
  EXPECT_GE(reductions(r1.profile_avg), kRanks * base1);
  EXPECT_LE(reductions(r1.profile_avg),
            kRanks * (base1 + levels(r1.bu_exchanges)));
  EXPECT_EQ(reductions(r1.profile_avg) % kRanks, 0u);

  const auto grid = bfs2d::Grid2d::make(bundle().csr.num_vertices(),
                                        kNodes * kPpn, kPpn);
  const auto d2 = bfs2d::DistGraph2d::build(bundle().csr, grid);
  bfs2d::Bfs2dOptions coded;
  coded.hier = rt::coll_model::HierLevel::node;
  coded.codec = bfs::CodecMode::gate;
  coded.exchange_chunks = 4;
  const auto r2 = bfs2d::run_bfs_2d(e.cluster(), d2, bundle().roots[0],
                                    nullptr, coded);
  // One gate per exchange covers every leg the frontier pieces ride; level
  // 0's inputs are seeded without one, and the last level never exchanges.
  // No root of this graph needs the set-up reduction.
  const std::uint64_t base2 = levels(r2.levels);
  EXPECT_GE(reductions(r2.profile_avg), kRanks * base2);
  EXPECT_LE(reductions(r2.profile_avg),
            kRanks * (base2 + levels(r2.levels) - 1));
  EXPECT_EQ(reductions(r2.profile_avg) % kRanks, 0u);
}

}  // namespace
}  // namespace numabfs
