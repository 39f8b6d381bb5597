/// \file test_dynamic_graph.cpp
/// Property tests of the dynamic graph layer (DESIGN.md §14). The central
/// contract: a query served against a pinned merged view (base ⊕ deltas at
/// epoch E) is bit-identical to the same query served against the slices
/// of a CSR rebuilt from scratch at E, ordered by the manager's ranking —
/// across the 1-D hybrid kernel, the 2-D engine, the MS-BFS wave kernel,
/// and under a chaos fault plan. Plus a
/// delta-store fuzz against a reference shadow map with interleaved
/// inserts, deletes and compactions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/hybrid.hpp"
#include "bfs2d/bfs2d.hpp"
#include "engine/engine.hpp"
#include "engine/msbfs.hpp"
#include "engine/programs.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/dynamic/compactor.hpp"
#include "graph/dynamic/delta_store.hpp"
#include "graph/dynamic/ingest.hpp"
#include "graph/dynamic/snapshot.hpp"
#include "graph/reference_bfs.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::dyn {
namespace {

using graph::Csr;
using graph::Edge;
using graph::EdgePolicy;
using graph::Partition1D;
using graph::Vertex;
using rt::Cluster;

// One fixture world: a scale-9 canonical base, an 8-rank cluster (2 nodes
// x 4 ppn) and a seeded mutation stream — small enough for ctest, big
// enough that merged rows, dropped td groups and tombstoned vertices all
// actually occur.
constexpr int kNodes = 2;
constexpr int kPpn = 4;

graph::RmatParams base_params() {
  graph::RmatParams p;
  p.scale = 9;
  p.edgefactor = 8;
  return p;
}

Cluster make_cluster() {
  return Cluster(sim::Topology::xeon_x7550_cluster(kNodes), sim::CostParams{},
                 kPpn);
}

Csr base_csr() {
  const auto p = base_params();
  return Csr::from_edges(p.num_vertices(), graph::rmat_edges(p),
                         EdgePolicy::sorted_dedup);
}

std::vector<EdgeOp> ops_for_epoch(std::uint64_t seed, std::uint64_t nops) {
  IngestConfig ic;
  ic.base = base_params();
  ic.seed = seed;
  IngestGenerator gen(ic);
  return gen.next_batch(nops);
}

/// Advance the manager a few epochs with a seeded stream.
void ingest_epochs(SnapshotManager& mgr, int epochs, std::uint64_t nops,
                   std::uint64_t seed = 7) {
  IngestConfig ic;
  ic.base = base_params();
  ic.seed = seed;
  IngestGenerator gen(ic);
  for (int e = 0; e < epochs; ++e) mgr.ingest(gen.next_batch(nops));
}

Vertex first_live_root(const Csr& g) {
  Vertex r = 0;
  while (g.degree(r) == 0) ++r;
  return r;
}

void expect_same_csr(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_directed_edges(), b.num_directed_edges());
  const auto ao = a.offsets();
  const auto bo = b.offsets();
  ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()));
  const auto aa = a.adj();
  const auto ba = b.adj();
  ASSERT_TRUE(std::equal(aa.begin(), aa.end(), ba.begin(), ba.end()));
}

// ---------------------------------------------------------------------------
// Delta-store fuzz vs a reference shadow map
// ---------------------------------------------------------------------------

/// The shadow model: the live undirected edge set as a plain std::set of
/// (min, max) pairs. Every epoch the rebuilt canonical CSR must equal the
/// CSR built directly from the shadow — with compactions interleaved, so
/// base swaps, truncated memtables and re-asserted base edges all cross
/// the comparison.
TEST(DeltaStoreFuzz, RebuildMatchesShadowMapAcrossCompactions) {
  const Cluster c = make_cluster();
  const Csr base = base_csr();
  const auto p = base_params();
  Partition1D part(p.num_vertices(), c.nranks());
  SnapshotManager mgr(c, base, part);

  std::set<std::pair<Vertex, Vertex>> shadow;
  for (Vertex u = 0; u < p.num_vertices(); ++u)
    for (Vertex v : base.neighbors(u))
      if (u < v) shadow.insert({u, v});

  std::uint64_t rng = 0x5eed;
  for (int e = 1; e <= 12; ++e) {
    const auto ops = ops_for_epoch(static_cast<std::uint64_t>(e) * 101, 400);
    for (const EdgeOp& op : ops) {
      if (op.u == op.v || op.u >= p.num_vertices() ||
          op.v >= p.num_vertices())
        continue;
      const auto key = std::minmax(op.u, op.v);
      if (op.remove)
        shadow.erase({key.first, key.second});
      else
        shadow.insert({key.first, key.second});
    }
    mgr.ingest(ops);

    std::vector<Edge> edges;
    edges.reserve(shadow.size());
    for (const auto& [u, v] : shadow) edges.push_back({u, v});
    const Csr want =
        Csr::from_edges(p.num_vertices(), edges, EdgePolicy::sorted_dedup);
    const Csr got = mgr.rebuild_csr(mgr.epoch());
    expect_same_csr(got, want);

    // Spot-check resolve() against the shadow: presence through the LSM
    // (base containment overridden by the last delta record) must agree.
    for (int probe = 0; probe < 64; ++probe) {
      rng = graph::splitmix64(rng);
      const Vertex u = static_cast<Vertex>(rng % p.num_vertices());
      rng = graph::splitmix64(rng);
      const Vertex v = static_cast<Vertex>(rng % p.num_vertices());
      if (u == v) continue;
      const int owner = part.owner(u);
      const int r = mgr.store(owner).resolve(u, v, mgr.epoch());
      const auto nb = mgr.base().csr.neighbors(u);
      const bool in_base = std::binary_search(nb.begin(), nb.end(), v);
      // resolve: -1 = no record (base membership stands), 0 = deleted,
      // 1 = inserted.
      const bool present = r == 1 || (r == -1 && in_base);
      const auto key = std::minmax(u, v);
      EXPECT_EQ(present, shadow.count({key.first, key.second}) != 0)
          << "epoch " << e << " edge (" << u << "," << v << ")";
    }

    // Interleave compactions; the epoch after a compaction reads from a
    // fresh base with empty memtables.
    if (e % 4 == 0) {
      const CompactionStats cs = mgr.compact();
      EXPECT_EQ(cs.epoch, mgr.epoch());
      EXPECT_EQ(mgr.live_records(), 0u);
      const Csr after = mgr.rebuild_csr(mgr.epoch());
      expect_same_csr(after, want);
    }
  }
}

TEST(DeltaStore, ResolveIsLastWinsAcrossEpochs) {
  DeltaStore ds(0, 64);
  ds.append({{5, 9, 1, false}});             // e1: insert
  ds.append({{5, 9, 2, true}});              // e2: delete
  ds.append({{5, 9, 4, false}, {5, 3, 4, true}});  // e4: re-insert
  // resolve: -1 = no record (base stands), 0 = deleted, 1 = inserted.
  EXPECT_EQ(ds.resolve(5, 9, 0), -1);  // before any record
  EXPECT_EQ(ds.resolve(5, 9, 1), 1);
  EXPECT_EQ(ds.resolve(5, 9, 2), 0);
  EXPECT_EQ(ds.resolve(5, 9, 3), 0);   // e3 sees e2's tombstone
  EXPECT_EQ(ds.resolve(5, 9, 4), 1);
  EXPECT_EQ(ds.resolve(5, 3, 4), 0);
  EXPECT_EQ(ds.resolve(7, 7, 4), -1);  // no record at all
  EXPECT_EQ(ds.tombstones(), 2u);
}

// ---------------------------------------------------------------------------
// Pinned merged views vs from-scratch rebuilds
// ---------------------------------------------------------------------------

TEST(Snapshot, MergedRowsMatchRebuiltCsr) {
  const Cluster c = make_cluster();
  const auto p = base_params();
  Partition1D part(p.num_vertices(), c.nranks());
  SnapshotManager mgr(c, base_csr(), part);
  ingest_epochs(mgr, 3, 600);

  const auto snap = mgr.pin(mgr.epoch());
  EXPECT_GT(snap->deltas_applied, 0u);
  EXPECT_GT(snap->patched_rows, 0u);
  const Csr rebuilt = mgr.rebuild_csr(snap->epoch);
  const graph::DistGraph want =
      graph::DistGraph::build(rebuilt, part, mgr.ranking());
  const graph::DistGraph& dg = snap->dg();
  int reordered = 0;  // merged rows whose order is not the CSR's
  for (int r = 0; r < c.nranks(); ++r) {
    const auto& lg = dg.locals[static_cast<std::size_t>(r)];
    const auto& w = want.locals[static_cast<std::size_t>(r)];
    for (std::uint64_t lv = 0; lv < lg.vend - lg.vbegin; ++lv) {
      const Vertex v = static_cast<Vertex>(lg.vbegin + lv);
      const auto got = lg.bu_neighbors(lv);
      const auto ref = w.bu_neighbors(lv);
      ASSERT_EQ(got.size(), ref.size()) << "vertex " << v;
      ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin(), ref.end()))
          << "vertex " << v;
      const auto canon = rebuilt.neighbors(v);
      if (lg.is_dirty(lv) && !std::equal(got.begin(), got.end(),
                                         canon.begin(), canon.end()))
        ++reordered;
    }
  }
  EXPECT_GT(reordered, 0);  // the merged rows are hub-first, not ascending
}

TEST(Snapshot, PinnedEpochSurvivesCompaction) {
  const Cluster c = make_cluster();
  const auto p = base_params();
  Partition1D part(p.num_vertices(), c.nranks());
  SnapshotManager mgr(c, base_csr(), part);
  ingest_epochs(mgr, 2, 500);

  const std::uint64_t e1 = mgr.epoch();
  // Reference taken BEFORE compaction.
  const graph::DistGraph at_e1 =
      graph::DistGraph::build(mgr.rebuild_csr(e1), part, mgr.ranking());
  const auto snap = mgr.pin(e1);

  ingest_epochs(mgr, 2, 500, 99);
  const CompactionStats cs = mgr.compact();
  EXPECT_GT(cs.records_folded, 0u);
  EXPECT_GT(cs.bytes_merged, 0u);
  EXPECT_GT(cs.merge_ns, 0.0);
  EXPECT_GT(cs.pause_ns, 0.0);

  // The old pinned view still reads epoch e1's rows, even though the
  // manager's base moved past it and e1 can no longer be re-pinned.
  const graph::DistGraph& dg = snap->dg();
  for (int r = 0; r < c.nranks(); ++r) {
    const auto& lg = dg.locals[static_cast<std::size_t>(r)];
    const auto& w = at_e1.locals[static_cast<std::size_t>(r)];
    for (std::uint64_t lv = 0; lv < lg.vend - lg.vbegin; ++lv) {
      const Vertex v = static_cast<Vertex>(lg.vbegin + lv);
      const auto got = lg.bu_neighbors(lv);
      const auto ref = w.bu_neighbors(lv);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin(), ref.end()))
          << "vertex " << v;
    }
  }
  EXPECT_THROW((void)mgr.pin(e1 - 1), std::out_of_range);
}

/// Every bottom-up row of `dg`, in vertex order, as one flat list with a
/// row-length prefix per vertex (what a rebuilt view must reproduce).
std::vector<std::uint64_t> all_rows(const graph::DistGraph& dg) {
  std::vector<std::uint64_t> out;
  for (const auto& lg : dg.locals)
    for (std::uint64_t lv = 0; lv < lg.owned(); ++lv) {
      const auto row = lg.bu_neighbors(lv);
      out.push_back(row.size());
      out.insert(out.end(), row.begin(), row.end());
    }
  return out;
}

TEST(Snapshot, RepinOfAnUnchangedEpochReusesTheLiveView) {
  const Cluster c = make_cluster();
  const auto p = base_params();
  Partition1D part(p.num_vertices(), c.nranks());
  obs::Registry reg;
  SnapshotManager mgr(c, base_csr(), part, nullptr, &reg);
  ingest_epochs(mgr, 3, 600);
  const std::uint64_t e = mgr.epoch();

  // Held: a repin of the same epoch, sealed epoch and base is the same
  // object with the same cost, and still counts as a pin.
  auto held = mgr.pin(e);
  ASSERT_GT(held->patched_rows, 0u);
  auto again = mgr.pin(e);
  EXPECT_EQ(again.get(), held.get());
  EXPECT_EQ(again->pin_ns, held->pin_ns);
  EXPECT_EQ(reg.counter("dyn.pins").value, 2u);
  again.reset();

  // Dropped: the manager holds the view only weakly, so the next pin
  // builds a new one, equal to the dropped one row for row and in cost.
  const std::vector<std::uint64_t> rows = all_rows(held->dg());
  const double pin_ns = held->pin_ns;
  const std::uint64_t groups = held->patched_groups;
  const std::weak_ptr<const Snapshot> dropped = held;
  held.reset();
  EXPECT_TRUE(dropped.expired());
  const auto rebuilt = mgr.pin(e);
  EXPECT_EQ(all_rows(rebuilt->dg()), rows);
  EXPECT_EQ(rebuilt->pin_ns, pin_ns);
  EXPECT_EQ(rebuilt->patched_groups, groups);

  // A new sealed epoch: a repin of the same epoch builds a new object
  // (the later records are invisible in its rows but are probed, so its
  // cost may move).
  ingest_epochs(mgr, 1, 200, 31);
  const auto after_ingest = mgr.pin(e);
  EXPECT_NE(after_ingest.get(), rebuilt.get());
  EXPECT_EQ(all_rows(after_ingest->dg()), rows);
  EXPECT_EQ(after_ingest->deltas_applied, rebuilt->deltas_applied);

  // A new base: compaction at the latest epoch, then a repin of it.
  const auto latest = mgr.pin(mgr.epoch());
  (void)mgr.compact();
  const auto after_compact = mgr.pin(mgr.epoch());
  EXPECT_NE(after_compact.get(), latest.get());
  EXPECT_EQ(after_compact->patched_rows, 0u);  // the new base is the view
  EXPECT_EQ(all_rows(after_compact->dg()), all_rows(latest->dg()));
  EXPECT_EQ(reg.counter("dyn.pins").value, 6u);

  // Pins are host work, whether they would reuse the held view or build
  // one after a new epoch.
  Cluster runner = make_cluster();
  int refused = 0;
  const auto pin_in_a_rank = [&] {
    runner.run([&](rt::Proc& proc) {
      if (proc.rank != 0) return;
      try {
        (void)mgr.pin(mgr.epoch());
      } catch (const std::logic_error&) {
        ++refused;
      }
    });
  };
  pin_in_a_rank();
  ingest_epochs(mgr, 1, 200, 47);
  pin_in_a_rank();
  EXPECT_EQ(refused, 2);
}

/// The pinned view at every epoch, across compactions, equals the slices
/// built from the CSR rebuilt at that epoch under the manager's ranking
/// through every read the kernels make: bottom-up rows, degrees, top-down
/// keys and groups, edge counts.
TEST(Snapshot, PinnedViewMatchesFreshSlicesAcrossCompactions) {
  const Cluster c = make_cluster();
  const auto p = base_params();
  Partition1D part(p.num_vertices(), c.nranks());
  SnapshotManager mgr(c, base_csr(), part);
  IngestConfig ic;
  ic.base = p;
  ic.seed = 0xc0ffee;
  IngestGenerator gen(ic);

  int merged = 0;
  for (int e = 1; e <= 9; ++e) {
    mgr.ingest(gen.next_batch(300));
    if (e % 3 == 0) (void)mgr.compact();
    // Pin the previous epoch too while it is still above the base.
    for (std::uint64_t at = std::max(mgr.base().epoch, mgr.epoch() - 1);
         at <= mgr.epoch(); ++at) {
      const auto snap = mgr.pin(at);
      const graph::DistGraph& got = snap->dg();
      const graph::DistGraph want =
          graph::DistGraph::build(mgr.rebuild_csr(at), part, mgr.ranking());
      if (snap->patched_rows > 0) ++merged;
      ASSERT_EQ(got.n, want.n);
      ASSERT_EQ(got.directed_edges, want.directed_edges) << "epoch " << at;
      for (int r = 0; r < c.nranks(); ++r) {
        const auto& g = got.locals[static_cast<std::size_t>(r)];
        const auto& w = want.locals[static_cast<std::size_t>(r)];
        ASSERT_EQ(g.vbegin, w.vbegin);
        ASSERT_EQ(g.vend, w.vend);
        ASSERT_EQ(g.owned_edges(), w.owned_edges()) << "rank " << r;
        for (std::uint64_t lv = 0; lv < w.owned(); ++lv) {
          ASSERT_EQ(g.degree(lv), w.degree(lv)) << "epoch " << at;
          const auto gr = g.bu_neighbors(lv);
          const auto wr = w.bu_neighbors(lv);
          ASSERT_TRUE(std::equal(gr.begin(), gr.end(), wr.begin(), wr.end()))
              << "epoch " << at << " vertex " << w.vbegin + lv;
        }
        ASSERT_EQ(g.td_keys, w.td_keys) << "epoch " << at << " rank " << r;
        for (std::size_t k = 0; k < w.td_keys.size(); ++k) {
          const auto gg = g.td_group(k);
          const auto wg = w.td_group(k);
          ASSERT_TRUE(std::equal(gg.begin(), gg.end(), wg.begin(), wg.end()))
              << "epoch " << at << " rank " << r << " key " << w.td_keys[k];
        }
      }
    }
  }
  EXPECT_GT(merged, 0);  // merged views, not only clean ones, were compared
}

TEST(Compactor, FillTriggerFiresAndResets) {
  const Cluster c = make_cluster();
  const auto p = base_params();
  Partition1D part(p.num_vertices(), c.nranks());
  SnapshotManager mgr(c, base_csr(), part);
  CompactorPolicy pol;
  pol.fill_trigger = 0.02;
  pol.min_records = 64;
  Compactor bg(mgr, pol);

  EXPECT_FALSE(bg.due());
  ingest_epochs(mgr, 2, 800);
  ASSERT_TRUE(bg.due());
  const auto cs = bg.maybe_compact();
  ASSERT_TRUE(cs.has_value());
  EXPECT_EQ(mgr.live_records(), 0u);
  EXPECT_FALSE(bg.due());
  EXPECT_EQ(bg.compactions(), 1u);
}

TEST(Snapshot, TrianglesConstructionLeavesNoPatchReads) {
  // The triangles program reads every merged row on the host while it
  // builds its forward adjacency; none of those reads may stay pending for
  // its first kernel to charge as delta probes.
  const Cluster c = make_cluster();
  Partition1D part(base_params().num_vertices(), c.nranks());
  SnapshotManager mgr(c, base_csr(), part);
  ingest_epochs(mgr, 2, 500);
  const auto snap = mgr.pin(mgr.epoch());
  ASSERT_GT(snap->patched_rows, 0u);
  const auto prog = engine::make_program(engine::ProgramWorkload::triangles,
                                         snap->dg(), {});
  for (const auto& lg : snap->dg().locals)
    EXPECT_EQ(lg.take_patch_reads(), 0u) << "rank slice " << lg.vbegin;
}

// ---------------------------------------------------------------------------
// Kernel bit-identity: 1-D hybrid, 2-D, MS-BFS, chaos
// ---------------------------------------------------------------------------

struct World {
  Cluster cluster = make_cluster();
  Partition1D part{base_params().num_vertices(), kNodes * kPpn};
  SnapshotManager mgr{cluster, base_csr(), part};
};

TEST(DynamicBfs, HybridBitIdenticalToRebuildAtPinnedEpoch) {
  World w;
  ingest_epochs(w.mgr, 3, 700);
  const auto snap = w.mgr.pin(w.mgr.epoch());
  const Csr rebuilt = w.mgr.rebuild_csr(snap->epoch);
  const graph::DistGraph ref_dg =
      graph::DistGraph::build(rebuilt, w.part, w.mgr.ranking());

  const bfs::Config cfg = bfs::share_all();
  const Vertex root = first_live_root(rebuilt);

  bfs::DistState st_m(snap->dg(), cfg, kNodes, kPpn);
  const auto rm = bfs::run_bfs(w.cluster, snap->dg(), st_m, root);
  const auto pm = bfs::gather_parents(snap->dg(), st_m);

  bfs::DistState st_r(ref_dg, cfg, kNodes, kPpn);
  const auto rr = bfs::run_bfs(w.cluster, ref_dg, st_r, root);
  const auto pr = bfs::gather_parents(ref_dg, st_r);

  // Same tree, same traversal structure — only the modeled time differs
  // (the merged view charges delta probes; the rebuilt CSR reads clean).
  EXPECT_EQ(rm.visited, rr.visited);
  EXPECT_EQ(rm.levels, rr.levels);
  EXPECT_EQ(rm.directions, rr.directions);
  EXPECT_EQ(rm.traversed_directed_edges, rr.traversed_directed_edges);
  ASSERT_EQ(pm, pr);
  EXPECT_GT(rm.profile_avg.counters().delta_probes, 0u);
  EXPECT_EQ(rr.profile_avg.counters().delta_probes, 0u);
  EXPECT_GT(rm.time_ns, rr.time_ns);  // read amplification is time, not bits

  const auto val = graph::validate_bfs_tree(rebuilt, root, pm);
  ASSERT_TRUE(val.ok) << val.error;
  EXPECT_EQ(val.visited, rm.visited);
}

TEST(DynamicBfs2d, PinnedEpochCsrServesTheTwoDEngine) {
  World w;
  ingest_epochs(w.mgr, 3, 700);
  const std::uint64_t e = w.mgr.epoch();
  const Csr at_e = w.mgr.rebuild_csr(e);

  // The 2-D path consumes the snapshot's canonical CSR; its tree must
  // validate against that exact epoch and visit the same component as the
  // serial reference over the shadow graph.
  bfs2d::Grid2d grid(at_e.num_vertices(), 2, 4);
  const auto dg2 = bfs2d::DistGraph2d::build(at_e, grid);
  const Vertex root = first_live_root(at_e);
  std::vector<Vertex> parent;
  const auto r2 = bfs2d::run_bfs_2d(w.cluster, dg2, root, &parent);
  const auto val = graph::validate_bfs_tree(at_e, root, parent);
  ASSERT_TRUE(val.ok) << val.error;
  const auto ref = graph::reference_bfs(at_e, root);
  EXPECT_EQ(r2.visited, ref.visited);
  EXPECT_EQ(val.visited, ref.visited);
}

TEST(DynamicMsbfs, WaveBitIdenticalToRebuildAtPinnedEpoch) {
  World w;
  ingest_epochs(w.mgr, 3, 700);
  const auto snap = w.mgr.pin(w.mgr.epoch());
  const Csr rebuilt = w.mgr.rebuild_csr(snap->epoch);
  const graph::DistGraph ref_dg = graph::DistGraph::build(rebuilt, w.part);

  const bfs::Config cfg = bfs::share_all();
  std::vector<engine::WaveQuery> qs;
  Vertex root = first_live_root(rebuilt);
  for (int i = 0; i < 6; ++i) {
    engine::WaveQuery q;
    q.source = root;
    if (i == 4) q.kind = engine::QueryKind::st_reachability, q.target = 1;
    if (i == 5) q.kind = engine::QueryKind::k_hop, q.k = 3;
    qs.push_back(q);
    do { ++root; } while (rebuilt.degree(root) == 0);
  }

  engine::WaveState ws_m(snap->dg(), cfg, kNodes, kPpn);
  engine::WaveOptions wo;
  wo.epoch = snap->epoch;
  const auto wm = engine::run_wave(w.cluster, snap->dg(), ws_m, qs, wo);
  EXPECT_EQ(wm.epoch, snap->epoch);
  std::vector<std::vector<engine::Dist>> dists_m;
  for (std::size_t l = 0; l < qs.size(); ++l)
    dists_m.push_back(
        engine::gather_lane_distances(snap->dg(), ws_m, static_cast<int>(l)));

  engine::WaveState ws_r(ref_dg, cfg, kNodes, kPpn);
  const auto wr = engine::run_wave(w.cluster, ref_dg, ws_r, qs);
  for (std::size_t l = 0; l < qs.size(); ++l) {
    const auto dr =
        engine::gather_lane_distances(ref_dg, ws_r, static_cast<int>(l));
    ASSERT_EQ(dists_m[l], dr) << "lane " << l;
    EXPECT_EQ(wm.lanes[l].visited, wr.lanes[l].visited) << "lane " << l;
    EXPECT_EQ(wm.lanes[l].reached, wr.lanes[l].reached) << "lane " << l;
  }
  EXPECT_EQ(wm.levels, wr.levels);
}

TEST(DynamicChaos, CrashRecoveryOnMergedViewStillBitIdentical) {
  World w;
  ingest_epochs(w.mgr, 2, 600);
  const auto snap = w.mgr.pin(w.mgr.epoch());
  const Csr rebuilt = w.mgr.rebuild_csr(snap->epoch);

  w.cluster.set_fault_injector(std::make_shared<faults::FaultInjector>(
      faults::FaultPlan::parse("seed:42,crash:rank=3@level=2"),
      w.cluster.nranks(), w.cluster.ppn()));

  const bfs::Config cfg = bfs::share_all();
  const Vertex root = first_live_root(rebuilt);
  bfs::DistState st(snap->dg(), cfg, kNodes, kPpn);
  const auto r1 = bfs::run_bfs(w.cluster, snap->dg(), st, root);
  const auto p1 = bfs::gather_parents(snap->dg(), st);
  EXPECT_EQ(r1.ranks_lost, 1);
  EXPECT_GE(r1.recoveries, 1);

  // Survivor-adopted traversal over the merged view validates against the
  // from-scratch rebuild of the same epoch...
  const auto val = graph::validate_bfs_tree(rebuilt, root, p1);
  ASSERT_TRUE(val.ok) << val.error;

  // ...and the whole chaotic history is bit-reproducible.
  const auto r2 = bfs::run_bfs(w.cluster, snap->dg(), st, root);
  EXPECT_EQ(r1.time_ns, r2.time_ns);
  EXPECT_EQ(r1.visited, r2.visited);
}

// ---------------------------------------------------------------------------
// Epoch threading through the serving tier
// ---------------------------------------------------------------------------

TEST(DynamicServing, QueryEngineStampsPinnedEpochs) {
  World w;
  ingest_epochs(w.mgr, 2, 400);
  const std::uint64_t e = w.mgr.epoch();
  auto snap = w.mgr.pin(e);

  const bfs::Config cfg = bfs::share_all();
  engine::EngineConfig ec;
  ec.max_batch = 8;
  int pins = 0;
  ec.graph_source = [&](double) {
    ++pins;
    return engine::PinnedGraph{snap->epoch, snap->graph, snap->pin_ns};
  };
  engine::QueryEngine qe(w.cluster, w.mgr.base().dg, cfg, ec);

  engine::WorkloadSpec spec;
  spec.num_queries = 12;
  const auto queries =
      engine::QueryEngine::generate(w.mgr.base().dg, spec);
  const auto rep = qe.serve(queries);
  EXPECT_GT(pins, 0);
  for (const auto& r : rep.results) EXPECT_EQ(r.epoch, e) << "query " << r.id;
  // Pin cost is on the serving path: latency includes it.
  EXPECT_GT(snap->pin_ns, 0.0);
}

}  // namespace
}  // namespace numabfs::dyn
