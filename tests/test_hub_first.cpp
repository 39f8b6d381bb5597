// Hub-first rows (csr.hpp) change which parent a bottom-up search finds
// first, never which vertices a level discovers. So a traversal over
// hub-first slices and one over the same slices with every bottom-up row
// put back in generation order must agree on levels, directions, frontier
// sizes, codec decisions and bytes; only the bottom-up probes may differ.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/hybrid.hpp"
#include "engine/msbfs.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "harness/graph500.hpp"

namespace numabfs {
namespace {

constexpr int kNodes = 2;
constexpr int kPpn = 4;

/// `dg` with every bottom-up row overwritten by its generation-order row:
/// a plain scatter of the edge list the bundle was built from.
graph::DistGraph with_generation_rows(const graph::DistGraph& dg,
                                      const harness::GraphBundle& b) {
  std::vector<std::vector<graph::Vertex>> rows(dg.n);
  for (const graph::Edge& e : graph::rmat_edges(b.params)) {
    if (e.u == e.v) continue;
    rows[e.u].push_back(e.v);
    rows[e.v].push_back(e.u);
  }
  graph::DistGraph out = dg;
  for (graph::LocalGraph& lg : out.locals)
    for (std::uint64_t lv = 0; lv < lg.owned(); ++lv) {
      const auto& row = rows[lg.vbegin + lv];
      EXPECT_EQ(row.size(), lg.degree(lv));
      std::copy(row.begin(), row.end(),
                lg.bu_adj.begin() +
                    static_cast<std::ptrdiff_t>(lg.bu_offsets[lv]));
    }
  return out;
}

struct Probes {
  std::uint64_t edges = 0;
  std::uint64_t inqueue = 0;
};

TEST(HubFirst, OnlyBottomUpProbesMove) {
  const harness::GraphBundle b = harness::GraphBundle::make(12, 16, 7, 4);
  harness::ExperimentOptions opt;
  opt.nodes = kNodes;
  opt.ppn = kPpn;
  harness::Experiment e(b, opt);
  const graph::DistGraph& hub = e.dist();
  const graph::DistGraph gen = with_generation_rows(hub, b);
  ASSERT_NE(hub.locals[0].bu_adj, gen.locals[0].bu_adj);

  // The 1-D hybrid BFS, codec gated, from every root.
  const bfs::Config cfg = bfs::compressed(256, 4);
  Probes hub_bfs, gen_bfs;
  for (const graph::Vertex root : b.roots) {
    const auto run = [&](const graph::DistGraph& dg, Probes& out) {
      bfs::DistState st(dg, cfg, kNodes, kPpn);
      bfs::BfsRunResult r = bfs::run_bfs(e.cluster(), dg, st, root);
      const auto val =
          graph::validate_bfs_tree(b.csr, root, bfs::gather_parents(dg, st));
      EXPECT_TRUE(val.ok) << "root " << root << ": " << val.error;
      out.edges += r.profile_avg.counters().edges_scanned;
      out.inqueue += r.profile_avg.counters().inqueue_probes;
      return r;
    };
    const bfs::BfsRunResult h = run(hub, hub_bfs);
    const bfs::BfsRunResult g = run(gen, gen_bfs);
    EXPECT_EQ(h.levels, g.levels) << "root " << root;
    EXPECT_EQ(h.directions, g.directions) << "root " << root;
    EXPECT_EQ(h.visited, g.visited);
    EXPECT_EQ(h.traversed_directed_edges, g.traversed_directed_edges);
    ASSERT_EQ(h.trace.size(), g.trace.size());
    for (std::size_t l = 0; l < h.trace.size(); ++l) {
      EXPECT_EQ(h.trace[l].frontier_vertices, g.trace[l].frontier_vertices);
      EXPECT_EQ(h.trace[l].discovered, g.trace[l].discovered);
      EXPECT_EQ(h.trace[l].exchange_codec, g.trace[l].exchange_codec);
      EXPECT_EQ(h.trace[l].wire_bytes, g.trace[l].wire_bytes);
      EXPECT_EQ(h.trace[l].wire_raw_bytes, g.trace[l].wire_raw_bytes);
    }
    const sim::Counters& hc = h.profile_avg.counters();
    const sim::Counters& gc = g.profile_avg.counters();
    EXPECT_EQ(hc.bytes_intra_node, gc.bytes_intra_node);
    EXPECT_EQ(hc.bytes_inter_node, gc.bytes_inter_node);
    EXPECT_EQ(hc.bytes_raw_equiv, gc.bytes_raw_equiv);
    EXPECT_EQ(hc.vertices_visited, gc.vertices_visited);
  }
  EXPECT_LT(hub_bfs.edges, gen_bfs.edges);
  EXPECT_LT(hub_bfs.inqueue, gen_bfs.inqueue);

  // One MS-BFS wave over every root, parents tracked.
  std::vector<engine::WaveQuery> qs;
  for (const graph::Vertex s : b.roots)
    qs.push_back({engine::QueryKind::full_distances, s, 0, 0});
  Probes hub_wave, gen_wave;
  const auto wave = [&](const graph::DistGraph& dg, Probes& out,
                        std::vector<std::vector<engine::Dist>>& dist) {
    engine::WaveState ws(dg, bfs::share_all(), kNodes, kPpn);
    engine::WaveResult r = engine::run_wave(e.cluster(), dg, ws, qs);
    for (std::size_t l = 0; l < qs.size(); ++l) {
      const int lane = static_cast<int>(l);
      dist.push_back(engine::gather_lane_distances(dg, ws, lane));
      const auto val = graph::validate_bfs_tree(
          b.csr, qs[l].source, engine::gather_lane_parents(dg, ws, lane));
      EXPECT_TRUE(val.ok) << "lane " << l << ": " << val.error;
    }
    out.edges = r.profile_avg.counters().edges_scanned;
    out.inqueue = r.profile_avg.counters().inqueue_probes;
    return r;
  };
  std::vector<std::vector<engine::Dist>> hub_dist, gen_dist;
  const engine::WaveResult h = wave(hub, hub_wave, hub_dist);
  const engine::WaveResult g = wave(gen, gen_wave, gen_dist);
  EXPECT_EQ(h.levels, g.levels);
  EXPECT_EQ(h.td_levels, g.td_levels);
  EXPECT_GT(h.bu_levels, 0);
  EXPECT_EQ(h.bu_levels, g.bu_levels);
  EXPECT_EQ(hub_dist, gen_dist);
  ASSERT_EQ(h.lanes.size(), g.lanes.size());
  for (std::size_t l = 0; l < h.lanes.size(); ++l) {
    EXPECT_EQ(h.lanes[l].complete_level, g.lanes[l].complete_level);
    EXPECT_EQ(h.lanes[l].visited, g.lanes[l].visited);
  }
  const sim::Counters& hc = h.profile_avg.counters();
  const sim::Counters& gc = g.profile_avg.counters();
  EXPECT_EQ(hc.bytes_intra_node, gc.bytes_intra_node);
  EXPECT_EQ(hc.bytes_inter_node, gc.bytes_inter_node);
  EXPECT_EQ(hc.bytes_raw_equiv, gc.bytes_raw_equiv);
  EXPECT_LT(hub_wave.edges, gen_wave.edges);
  EXPECT_LT(hub_wave.inqueue, gen_wave.inqueue);
}

}  // namespace
}  // namespace numabfs
