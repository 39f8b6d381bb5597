#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/allgather.hpp"
#include "runtime/coll_model.hpp"

namespace numabfs::rt::coll_model {
namespace {

Cluster make(int nodes, int ppn, sim::CostParams p = {}) {
  return Cluster(sim::Topology::xeon_x7550_cluster(nodes), p, ppn);
}

TEST(CollModel, Eq1VolumeLaw) {
  // Paper Eq. (1): total transmitted = m * (np - 1).
  EXPECT_EQ(allgather_volume_bytes(512, 8), 512u * 7);
  EXPECT_EQ(allgather_volume_bytes(512, 1), 0u);
  // Eq. (2): 8 subgroups each allgather m/8 over np/8 members:
  // 8 * (m/8) * (np/8 - 1) = m * (np/8 - 1) — same as one process per node
  // gathering node chunks.
  const std::uint64_t m = 1 << 20;
  const int np = 128;
  const std::uint64_t subgroups = 8 * allgather_volume_bytes(m / 8, np / 8);
  const std::uint64_t per_node = allgather_volume_bytes(m, np / 8);
  EXPECT_EQ(subgroups, per_node);
}

TEST(CollModel, FlatRingGrowsWithRanks) {
  const std::uint64_t chunk = 1 << 16;
  Cluster c2(make(2, 8));
  Cluster c4(make(4, 8));
  Cluster c8(make(8, 8));
  const double t2 = flat_ring(c2, chunk).total_ns;
  const double t4 = flat_ring(c4, chunk).total_ns;
  const double t8 = flat_ring(c8, chunk).total_ns;
  EXPECT_LT(t2, t4);
  EXPECT_LT(t4, t8);
}

TEST(CollModel, Ppn8FlatRingCostlierThanPpn1) {
  // The paper's Section II.D.2 point: one process per socket inflates the
  // collective cost (2.34x at 8 nodes in Fig. 12).
  const std::uint64_t total = 64ull << 20;  // total in_queue bytes
  Cluster c1(make(8, 1));
  Cluster c8(make(8, 8));
  const double t1 = flat_ring(c1, total / 8).total_ns;    // chunk = m/8
  const double t8 = flat_ring(c8, total / 64).total_ns;   // chunk = m/64
  EXPECT_GT(t8, 1.5 * t1);
  EXPECT_LT(t8, 4.0 * t1);
}

TEST(CollModel, LeaderIntraDominatesAtLargeMessages) {
  // Fig. 6: for 64/512 MB allgathers the gather+bcast (intra-node) time
  // exceeds the inter-node time.
  Cluster c(make(16, 8));
  for (std::uint64_t total : {64ull << 20, 512ull << 20}) {
    const std::uint64_t chunk = total / 128;
    const CollTimes t = leader_allgather(c, chunk, true, true, 1);
    EXPECT_GT(t.gather_ns + t.bcast_ns, t.inter_ns) << total;
    EXPECT_GT(t.bcast_ns, t.gather_ns);  // bcast moves np/ppn x more data
  }
}

TEST(CollModel, SharingEliminatesSteps) {
  Cluster c(make(16, 8));
  const std::uint64_t chunk = 4 << 20;
  const CollTimes full = leader_allgather(c, chunk, true, true, 1);
  const CollTimes no_bcast = leader_allgather(c, chunk, true, false, 1);
  const CollTimes neither = leader_allgather(c, chunk, false, false, 1);
  EXPECT_DOUBLE_EQ(no_bcast.bcast_ns, 0.0);
  EXPECT_DOUBLE_EQ(neither.gather_ns, 0.0);
  EXPECT_LT(no_bcast.total_ns, full.total_ns);
  EXPECT_LT(neither.total_ns, no_bcast.total_ns);
  // Dropping the broadcast saves the most: it carries np/ppn x the data.
  EXPECT_GT(full.total_ns - no_bcast.total_ns,
            no_bcast.total_ns - neither.total_ns);
}

TEST(CollModel, ParallelAllgatherBeatsSingleLeader) {
  // Fig. 7: eight concurrent subgroup rings use both IB ports.
  Cluster c(make(16, 8));
  const std::uint64_t chunk = 4 << 20;
  const CollTimes one = leader_allgather(c, chunk, false, false, 1);
  const CollTimes par = leader_allgather(c, chunk, false, false, 8);
  EXPECT_LT(par.inter_ns, one.inter_ns);
  EXPECT_GT(par.inter_ns, 0.3 * one.inter_ns);  // bounded by port peak
}

TEST(CollModel, NicSaturationCurveMatchesFig4) {
  // One flow ~ half of dual-port peak; eight flows ~ 90%.
  Cluster c(make(2, 8));
  const double peak = 2 * c.params().nic_port_bw;
  EXPECT_NEAR(c.link().nic_node_bw(1), 0.5 * peak, 1e-9);
  EXPECT_GT(c.link().nic_node_bw(8), 0.85 * peak);
  EXPECT_LT(c.link().nic_node_bw(8), peak);
  // Monotone in flows.
  for (int f = 1; f < 8; ++f)
    EXPECT_LT(c.link().nic_node_bw(f), c.link().nic_node_bw(f + 1));
}

TEST(CollModel, WeakNodeSlowsRing) {
  const std::uint64_t chunk = 1 << 20;
  Cluster ok(make(16, 8));
  Cluster weak(Cluster(
      sim::Topology::xeon_x7550_cluster(16).with_weak_node(15, 0.5),
      sim::CostParams{}, 8));
  EXPECT_GT(inter_ring_ns(weak, chunk, 1), inter_ring_ns(ok, chunk, 1));
}

TEST(CollModel, RecursiveDoublingSavesLatencyOnSmallMessages) {
  Cluster c(make(16, 8));
  const std::uint64_t small = 512;  // summary-sized
  EXPECT_LT(inter_recursive_doubling_ns(c, small, 1),
            inter_ring_ns(c, small, 1));
}

TEST(CollModel, SingleNodeHasNoInterTime) {
  Cluster c(make(1, 8));
  EXPECT_DOUBLE_EQ(inter_ring_ns(c, 1 << 20, 1), 0.0);
  const CollTimes t = leader_allgather(c, 1 << 16, false, false, 1);
  EXPECT_DOUBLE_EQ(t.total_ns, 0.0);
}

TEST(CollModel, AllreduceScalesLogarithmically) {
  // One member per node: the leaders' dissemination pays one NIC latency a
  // round, ceil(log3 n) rounds on two ports.
  Cluster c(make(16, 8));
  std::vector<int> all(128);
  std::iota(all.begin(), all.end(), 0);
  const double t2 = allreduce_ns(c, Comm({0, 8}));
  const double t128 = allreduce_ns(c, Comm(all));
  EXPECT_NEAR(t128 / t2, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(allreduce_ns(c, Comm({0})), 0.0);
}

TEST(CollModel, VectorAllreduceChargesOneScalarTree) {
  // The words of rt::allreduce ride one eager message: 1 to 8 words cost
  // exactly one charge of the comm, and count one reduction; 9 words are
  // rejected before any barrier.
  Cluster c(make(16, 8));
  for (std::size_t k = 1; k <= 8; ++k) {
    c.run([&](Proc& p) {
      Comm& node = c.node_comm(p.node);
      std::vector<std::uint64_t> w(k, 1);
      const std::vector<ReduceOp> ops(k, ReduceOp::sum);
      allreduce(p, c.world(), w, ops, sim::Phase::stall);
      EXPECT_EQ(w[k - 1], 128u);
      allreduce(p, node, w, ops, sim::Phase::other);
      EXPECT_EQ(w[0], 8u * 128u);
    });
    for (const auto& pr : c.profiles()) {
      EXPECT_DOUBLE_EQ(pr.get(sim::Phase::stall), allreduce_ns(c, c.world()))
          << k << " words";
      EXPECT_DOUBLE_EQ(pr.get(sim::Phase::other),
                       allreduce_ns(c, c.node_comm(0)))
          << k << " words";
      EXPECT_EQ(pr.counters().reductions, 2u);
    }
  }
  c.run([&](Proc& p) {
    std::vector<std::uint64_t> w(9, 1);
    const std::vector<ReduceOp> ops(9, ReduceOp::sum);
    EXPECT_THROW(allreduce(p, c.world(), w, ops, sim::Phase::stall),
                 std::invalid_argument);
  });
  for (const auto& pr : c.profiles())
    EXPECT_EQ(pr.counters().reductions, 0u);
}

TEST(CollModel, RecursiveDoublingRounds) {
  EXPECT_EQ(rd_rounds(1), 0);
  EXPECT_EQ(rd_rounds(2), 1);
  EXPECT_EQ(rd_rounds(256), 8);
  EXPECT_EQ(rd_rounds(1024), 10);
  // Other sizes fold their extra members in and out: two more rounds.
  EXPECT_EQ(rd_rounds(6), 4);
  EXPECT_EQ(rd_rounds(144), 9);
}

TEST(CollModel, KPortRounds) {
  // ceil(log_{k+1} n): each round a member reaches k more peers per peer
  // it already reached.
  const std::vector<std::pair<int, int>> two_port = {
      {1, 0}, {2, 1}, {3, 1}, {4, 2},   {9, 2},   {10, 3},
      {24, 3}, {32, 4}, {144, 5}, {256, 6}};
  for (const auto& [n, rounds] : two_port)
    EXPECT_EQ(kport_rounds(n, 2), rounds) << n;
  // One port: ceil(log2 n).
  for (int n = 1; n <= 1024; ++n)
    EXPECT_EQ(kport_rounds(n, 1),
              std::bit_width(static_cast<unsigned>(n - 1)))
        << n;
}

TEST(CollModel, AllreduceIsNodeAwareAtPhysicalAlpha) {
  // The members of a node combine through one shared cache line and read
  // the result back (two QPI line transfers); one leader per node runs a
  // dissemination over both NIC ports. At a physical alpha that beats
  // recursive doubling over all.
  const sim::CostParams cp;
  const double alpha = cp.nic_msg_latency_ns;
  Cluster c(make(256, 4));
  EXPECT_DOUBLE_EQ(allreduce_ns(c, c.world()),
                   2 * cp.remote_cache_ns + 6 * alpha);
  EXPECT_LT(allreduce_ns(c, c.world()), rd_rounds(1024) * alpha);
  EXPECT_DOUBLE_EQ(allreduce_ns(c, c.node_comm(3)), 2 * cp.remote_cache_ns);
  Cluster c144(make(144, 4));
  EXPECT_DOUBLE_EQ(allreduce_ns(c144, c144.world()),
                   2 * cp.remote_cache_ns + 5 * alpha);
  Cluster c2(make(2, 4));
  EXPECT_DOUBLE_EQ(allreduce_ns(c2, c2.world()),
                   2 * cp.remote_cache_ns + alpha);
}

TEST(CollModel, AllreduceIsFlatUnderPaperScaling) {
  // Paper scaling shrinks alpha below one line transfer, so recursive
  // doubling over every member is the cheaper reduction.
  const sim::CostParams cp =
      sim::CostParams{}.with_paper_cache_scaling(1ull << 18);
  const double alpha = cp.nic_msg_latency_ns;
  ASSERT_LT(alpha, cp.remote_cache_ns);
  Cluster c(make(16, 8, cp));
  EXPECT_DOUBLE_EQ(allreduce_ns(c, c.world()), 7 * alpha);
  EXPECT_DOUBLE_EQ(allreduce_ns(c, c.node_comm(0)), 3 * alpha);
}

TEST(CollModel, OnePerNodeAllreducePaysNoIntraNodeTerm) {
  // A one-member-per-node comm runs the two-port dissemination at any
  // alpha: it has no line transfer to pay and fewer rounds than the flat
  // recursive doubling.
  for (const sim::CostParams& cp :
       {sim::CostParams{},
        sim::CostParams{}.with_paper_cache_scaling(1ull << 18)}) {
    Cluster c(make(144, 4, cp));
    const double want = kport_rounds(144, 2) * cp.nic_msg_latency_ns;
    EXPECT_DOUBLE_EQ(allreduce_ns(c, c.leaders()), want);
    EXPECT_DOUBLE_EQ(allreduce_ns(c, c.subgroup(2)), want);
    EXPECT_LT(want, rd_rounds(144) * cp.nic_msg_latency_ns);
  }
}

TEST(CollModel, OnePortTopologyKeepsBinaryRounds) {
  // With one NIC port per node the k-port schedules fall back to binary
  // ones: the world reduction runs ceil(log2 nodes) rounds, and the
  // node-aware allgather over a power-of-two span is the recursive
  // doubling of a leader per node.
  const sim::CostParams cp;
  const double alpha = cp.nic_msg_latency_ns;
  for (const auto& [nodes, rounds] :
       std::vector<std::pair<int, int>>{{2, 1}, {144, 8}, {256, 8}}) {
    sim::Topology::Params tp;
    tp.nodes = nodes;
    tp.nic_ports_per_node = 1;
    Cluster c(sim::Topology(tp), cp, 4);
    EXPECT_DOUBLE_EQ(allreduce_ns(c, c.world()),
                     2 * cp.remote_cache_ns + rounds * alpha)
        << nodes;
  }
  sim::Topology::Params tp;
  tp.nodes = 32;
  tp.nic_ports_per_node = 1;
  Cluster c(sim::Topology(tp), cp, 4);
  const std::uint64_t block = 4 * 32;  // four 32-byte column pieces
  double rd = 0.0;
  for (std::uint64_t sz = block; sz < 32 * block; sz *= 2)
    rd += alpha + static_cast<double>(sz) / c.link().nic_flow_bw(1);
  EXPECT_DOUBLE_EQ(
      hier_subgroup_allgather(c, 32, 1, 4, 32, HierLevel::node).inter_ns, rd);
}

// ---------------------------------------------------------------------------
// Hierarchical subgroup collectives (the 2-D grid's column/row primitives)
// ---------------------------------------------------------------------------

TEST(HierColl, DegenerateSubgroupIsFree) {
  Cluster c(make(4, 4));
  for (HierLevel h : {HierLevel::flat, HierLevel::node, HierLevel::socket}) {
    // One member total: nothing to exchange.
    EXPECT_DOUBLE_EQ(
        hier_subgroup_allgather(c, 1, 1, 4, 1 << 16, h).total_ns, 0.0);
    EXPECT_DOUBLE_EQ(hier_alltoallv_ns(c, 1, 1, 0, 0, h).total_ns, 0.0);
  }
}

TEST(HierColl, NodeAwareBeatsFlatForManySmallMessages) {
  // The hierarchy's whole point: R small per-member messages collapse into
  // one staged message per node, trading ~R alpha charges for one memcpy.
  // Only visible at a physical per-message latency (the paper-scaled params
  // shrink alpha until bandwidth dominates).
  Cluster c(make(16, 8));
  const std::uint64_t small = 512;  // a col-band piece at modest scale
  // A column of an R x C grid: one member per node, ppn sibling columns.
  const double flat =
      hier_subgroup_allgather(c, 16, 1, 8, small, HierLevel::flat).total_ns;
  const double node =
      hier_subgroup_allgather(c, 16, 1, 8, small, HierLevel::node).total_ns;
  EXPECT_LT(node, flat);
}

TEST(HierColl, SocketSkipsTheCicoFactorOfNodeStaging) {
  // socket = node-aware staging without the copy-in/copy-out factor, so it
  // can never cost more than node at the same shape.
  Cluster c(make(8, 8));
  for (std::uint64_t b : {std::uint64_t{512}, std::uint64_t{1} << 16,
                          std::uint64_t{1} << 20}) {
    const double node =
        hier_subgroup_allgather(c, 2, 8, 1, b, HierLevel::node).total_ns;
    const double socket =
        hier_subgroup_allgather(c, 2, 8, 1, b, HierLevel::socket).total_ns;
    EXPECT_LE(socket, node) << b;
    EXPECT_GT(socket, 0.0) << b;
  }
}

TEST(HierColl, MonotoneInBytesAndSpan) {
  Cluster c(make(16, 8));
  for (HierLevel h : {HierLevel::flat, HierLevel::node}) {
    EXPECT_LT(hier_subgroup_allgather(c, 8, 1, 8, 1 << 12, h).total_ns,
              hier_subgroup_allgather(c, 8, 1, 8, 1 << 16, h).total_ns);
    EXPECT_LT(hier_subgroup_allgather(c, 4, 1, 8, 1 << 14, h).total_ns,
              hier_subgroup_allgather(c, 16, 1, 8, 1 << 14, h).total_ns);
  }
}

TEST(HierColl, KPortBruckHelpsWideColumns) {
  // The two-port Bruck concatenation replaces the (span-1)-step leader
  // ring with ceil(log3 span) rounds, one fewer than recursive doubling's
  // log2(span) at 16 nodes; for small messages the latency saving
  // dominates.
  Cluster c(make(16, 8));
  const std::uint64_t small = 512;
  const double alpha = c.params().nic_msg_latency_ns;
  const double bw = c.link().nic_flow_bw(1);
  const std::uint64_t block = 8 * small;
  double ring = 0.0, rd = 0.0;
  for (int s = 0; s < 15; ++s)
    ring += alpha + static_cast<double>(block) / bw;
  for (std::uint64_t sz = block; sz < 16 * block; sz *= 2)
    rd += alpha + static_cast<double>(sz) / bw;
  const double bruck =
      hier_subgroup_allgather(c, 16, 1, 8, small, HierLevel::node).inter_ns;
  EXPECT_LT(rd, ring);
  EXPECT_LT(bruck, rd);
}

TEST(HierColl, BruckAllgatherNeverCostsMoreThanTheRing) {
  // Each Bruck round costs at most the ring steps that deliver the same
  // blocks, at physical and at paper-scaled alpha, for every span.
  for (const sim::CostParams& cp :
       {sim::CostParams{},
        sim::CostParams{}.with_paper_cache_scaling(1ull << 18)}) {
    Cluster c(make(64, 4, cp));
    const double bw = c.link().nic_flow_bw(1);
    for (HierLevel h : {HierLevel::node, HierLevel::socket}) {
      for (std::uint64_t chunk :
           {std::uint64_t{8}, std::uint64_t{512}, std::uint64_t{1} << 20}) {
        for (int span = 2; span <= 64; ++span) {
          const CollTimes t = hier_subgroup_allgather(c, span, 1, 4, chunk, h);
          const double ring =
              (span - 1) * (cp.nic_msg_latency_ns +
                            static_cast<double>(4 * chunk) / bw);
          EXPECT_LE(t.inter_ns, ring) << span << " " << chunk;
          EXPECT_LE(t.total_ns, t.gather_ns + ring + t.bcast_ns)
              << span << " " << chunk;
        }
      }
    }
  }
}

TEST(HierColl, AlltoallvLeadersCutInjectionSerialization) {
  // A row exchange with ppn members per node: flat injects per_node^2
  // messages per peer node step; leaders inject one. At small payloads the
  // alpha term decides it.
  Cluster c(make(8, 8));
  const std::uint64_t bytes = 8 << 10;
  const double flat =
      hier_alltoallv_ns(c, 4, 8, bytes, 3 * bytes, HierLevel::flat).total_ns;
  const double node =
      hier_alltoallv_ns(c, 4, 8, bytes, 3 * bytes, HierLevel::node).total_ns;
  EXPECT_LT(node, flat);
  // More inter-node volume costs more, whatever the level.
  EXPECT_LT(
      hier_alltoallv_ns(c, 4, 8, bytes, bytes, HierLevel::node).total_ns,
      hier_alltoallv_ns(c, 4, 8, bytes, 8 * bytes, HierLevel::node).total_ns);
}

TEST(HierColl, AlltoallvPicksBruckForSmallVolumesAndDirectForLarge) {
  // A 16-node row: the direct exchange pays ceil(15/2) = 8 injection
  // latencies, the two-port Bruck index exchange 3 rounds whose blocks
  // ride up to three hops. Latency decides a small volume, bytes a large
  // one.
  Cluster c(make(64, 4));
  const auto& cp = c.params();
  const double alpha = cp.nic_msg_latency_ns;
  const std::uint64_t small = 15 * 64;
  const std::uint64_t large = 15ull << 16;
  for (HierLevel h : {HierLevel::node, HierLevel::socket}) {
    const AlltoallvTimes s = hier_alltoallv_ns(c, 16, 4, 0, small, h);
    EXPECT_EQ(s.sched, A2aSchedule::bruck) << to_string(h);
    EXPECT_LT(s.total_ns, 4 * alpha) << to_string(h);
    const AlltoallvTimes l = hier_alltoallv_ns(c, 16, 4, 0, large, h);
    EXPECT_EQ(l.sched, A2aSchedule::direct) << to_string(h);
    // Direct: two staged passes, 8 injection latencies, the volume at the
    // node's one-flow rate.
    const double factor = h == HierLevel::socket ? 1.0 : cp.cico_factor;
    EXPECT_DOUBLE_EQ(
        l.total_ns,
        2.0 * factor * static_cast<double>(large) / cp.shm_copy_bw +
            8 * alpha + static_cast<double>(large) / c.link().nic_node_bw(1))
        << to_string(h);
  }
  // The flat level and a one-node row take no inter-node schedule choice.
  EXPECT_EQ(hier_alltoallv_ns(c, 16, 4, 0, small, HierLevel::flat).sched,
            A2aSchedule::direct);
  EXPECT_EQ(hier_alltoallv_ns(c, 1, 4, small, 0, HierLevel::node).sched,
            A2aSchedule::direct);
  EXPECT_STREQ(to_string(A2aSchedule::bruck), "bruck");
}

TEST(HierColl, Pipelined2Bounds) {
  // Two-stage K-chunk pipeline: never better than max(a,b) + max(a,b)/K,
  // never worse than a + b, and exact at the endpoints.
  const double a = 900.0, b = 400.0;
  EXPECT_DOUBLE_EQ(pipelined2_ns(a, b, 1), a + b);
  for (int k = 2; k <= 8; k *= 2) {
    const double t = pipelined2_ns(a, b, k);
    EXPECT_LT(t, a + b);
    EXPECT_GE(t, std::max(a, b));
  }
}

}  // namespace
}  // namespace numabfs::rt::coll_model

namespace numabfs::rt::coll_model {
namespace {

TEST(CollModel, PerfectOverlapCannotBeatSharing) {
  // Section III.A: the intra-node steps alone exceed the inter-node step
  // at the paper's message sizes, so max(intra, inter) >= sharing's inter.
  Cluster c(Cluster(sim::Topology::xeon_x7550_cluster(16), sim::CostParams{}, 8));
  for (std::uint64_t total : {64ull << 20, 512ull << 20}) {
    const std::uint64_t chunk = total / 128;
    const CollTimes over = leader_allgather_overlapped(c, chunk);
    const CollTimes shared = leader_allgather(c, chunk, false, false, 1);
    const CollTimes full = leader_allgather(c, chunk, true, true, 1);
    EXPECT_LT(over.total_ns, full.total_ns);     // overlap does help...
    EXPECT_GT(over.total_ns, shared.total_ns);   // ...but sharing wins
    // And the overlapped bound equals the intra side (intra dominates).
    EXPECT_DOUBLE_EQ(over.total_ns, over.gather_ns + over.bcast_ns);
  }
}

}  // namespace
}  // namespace numabfs::rt::coll_model
