// Hub-first rows (dist_graph.hpp) change which parent a bottom-up search
// finds first, never which vertices a level discovers. So a traversal over
// hub-first slices and one over the same slices with every bottom-up row
// put back in its CSR order must agree on levels, directions, frontier
// sizes, codec decisions and bytes; only the bottom-up probes may differ.
// The same holds on a pinned epoch view of the dynamic layer, whose bases
// and merged rows are ranked too (DESIGN.md §14).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/hybrid.hpp"
#include "engine/msbfs.hpp"
#include "graph/dynamic/ingest.hpp"
#include "graph/dynamic/snapshot.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "harness/graph500.hpp"
#include "runtime/cluster.hpp"

namespace numabfs {
namespace {

constexpr int kNodes = 2;
constexpr int kPpn = 4;

/// Overwrite every bottom-up row that `dg` stores with the same row of
/// `g`: the same entries, in the CSR's order. A merged view stores only
/// its dirty rows; its clean rows are its base slices'.
void put_csr_rows(graph::DistGraph& dg, const graph::Csr& g) {
  for (graph::LocalGraph& lg : dg.locals)
    for (std::uint64_t lv = 0; lv < lg.owned(); ++lv) {
      const auto row = g.neighbors(static_cast<graph::Vertex>(lg.vbegin + lv));
      ASSERT_EQ(row.size(), lg.degree(lv));
      if (lg.base == nullptr)
        std::copy(row.begin(), row.end(),
                  lg.bu_adj.begin() +
                      static_cast<std::ptrdiff_t>(lg.bu_offsets[lv]));
      else if (lg.is_dirty(lv))
        std::copy(row.begin(), row.end(),
                  lg.patch_adj.begin() + static_cast<std::ptrdiff_t>(
                                             lg.patch_offsets[lg.patch_row(lv)]));
    }
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
  graph::DistGraph gen = hub;  // the bundle's CSR is in generation order
  put_csr_rows(gen, b.csr);
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

TEST(HubFirst, MergedViewOnlyMovesBottomUpProbes) {
  // A scale-12 canonical base, three sealed epochs of ingest, one pinned
  // view: its clean rows are the ranked base slices', its dirty rows merged
  // and ranked at the pin.
  graph::RmatParams p;
  p.scale = 12;
  p.edgefactor = 16;
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(kNodes), sim::CostParams{},
                kPpn);
  dyn::SnapshotManager mgr(
      c,
      graph::Csr::from_edges(p.num_vertices(), graph::rmat_edges(p),
                             graph::EdgePolicy::sorted_dedup),
      graph::Partition1D(p.num_vertices(), c.nranks()));
  dyn::IngestConfig ic;
  ic.base = p;
  ic.seed = 11;
  dyn::IngestGenerator ingest(ic);
  for (int e = 0; e < 3; ++e) mgr.ingest(ingest.next_batch(1000));
  const auto snap = mgr.pin(mgr.epoch());
  ASSERT_GT(snap->patched_rows, 0u);
  const graph::DistGraph& hub = snap->dg();
  const graph::Csr at_e = mgr.rebuild_csr(snap->epoch);

  // The same view with every row ascending: copies of the base slices and
  // of the overlay, the overlay re-pointed at the copied base.
  graph::DistGraph asc_base = snap->base->dg;
  put_csr_rows(asc_base, snap->base->csr);
  graph::DistGraph asc = hub;
  for (std::size_t r = 0; r < asc.locals.size(); ++r)
    asc.locals[r].base = &asc_base.locals[r];
  put_csr_rows(asc, at_e);
  bool moved = false;
  for (std::size_t r = 0; r < asc.locals.size(); ++r)
    moved = moved || hub.locals[r].patch_adj != asc.locals[r].patch_adj;
  ASSERT_TRUE(moved);

  // One wave of 32 sources spread over the live vertices.
  std::vector<engine::WaveQuery> qs;
  for (graph::Vertex v = 0; v < at_e.num_vertices() && qs.size() < 32;
       v += 97)
    if (at_e.degree(v) > 0)
      qs.push_back({engine::QueryKind::full_distances, v, 0, 0});
  engine::WaveOptions wo;
  wo.epoch = snap->epoch;
  const auto wave = [&](const graph::DistGraph& dg,
                        std::vector<std::vector<engine::Dist>>& dist) {
    engine::WaveState ws(dg, bfs::share_all(), kNodes, kPpn);
    engine::WaveResult r = engine::run_wave(c, dg, ws, qs, wo);
    for (std::size_t l = 0; l < qs.size(); ++l) {
      const int lane = static_cast<int>(l);
      dist.push_back(engine::gather_lane_distances(dg, ws, lane));
      const auto val = graph::validate_bfs_tree(
          at_e, qs[l].source, engine::gather_lane_parents(dg, ws, lane));
      EXPECT_TRUE(val.ok) << "lane " << l << ": " << val.error;
    }
    return r;
  };
  std::vector<std::vector<engine::Dist>> hub_dist, asc_dist;
  const engine::WaveResult h = wave(hub, hub_dist);
  const engine::WaveResult a = wave(asc, asc_dist);
  EXPECT_EQ(hub_dist, asc_dist);
  EXPECT_EQ(h.levels, a.levels);
  EXPECT_EQ(h.td_levels, a.td_levels);
  EXPECT_GT(h.bu_levels, 0);
  EXPECT_EQ(h.bu_levels, a.bu_levels);
  ASSERT_EQ(h.lanes.size(), a.lanes.size());
  for (std::size_t l = 0; l < h.lanes.size(); ++l) {
    EXPECT_EQ(h.lanes[l].complete_level, a.lanes[l].complete_level);
    EXPECT_EQ(h.lanes[l].visited, a.lanes[l].visited);
  }
  const sim::Counters& hc = h.profile_avg.counters();
  const sim::Counters& ac = a.profile_avg.counters();
  EXPECT_EQ(hc.bytes_intra_node, ac.bytes_intra_node);
  EXPECT_EQ(hc.bytes_inter_node, ac.bytes_inter_node);
  EXPECT_EQ(hc.bytes_raw_equiv, ac.bytes_raw_equiv);
  EXPECT_EQ(hc.frontier_hits, ac.frontier_hits);
  EXPECT_EQ(hc.queue_writes, ac.queue_writes);
  EXPECT_EQ(hc.vertices_visited, ac.vertices_visited);
  // A dirty row is read once per search whatever its order.
  EXPECT_GT(hc.delta_probes, 0u);
  EXPECT_EQ(hc.delta_probes, ac.delta_probes);
  // The sparse kernel scans whole top-down groups, so the difference is
  // the dense kernel's: it stops its searches sooner.
  EXPECT_LT(hc.edges_scanned, ac.edges_scanned);
  EXPECT_LT(hc.inqueue_probes, ac.inqueue_probes);
}

}  // namespace
}  // namespace numabfs
