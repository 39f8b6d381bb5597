/// \file test_fault_tolerance.cpp
/// Integration tests of chaos mode: the runtime survives injected faults
/// (drops, corruption, silence, crashes) and stays bit-deterministic —
/// the same plan and seed reproduce the exact same virtual-time history.
///
/// Cluster::run aborts the process on an escaping exception, so every
/// expected throw here is caught *inside* the rank lambda.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/hybrid.hpp"
#include "faults/errors.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/validate.hpp"
#include "harness/graph500.hpp"
#include "runtime/allgather.hpp"
#include "runtime/cluster.hpp"
#include "runtime/p2p.hpp"

namespace numabfs {
namespace {

using faults::FaultInjector;
using faults::FaultPlan;
using harness::Experiment;
using harness::ExperimentOptions;
using harness::GraphBundle;
using rt::Cluster;
using rt::PostOffice;
using rt::Proc;

sim::Topology topo(int nodes) {
  return sim::Topology::xeon_x7550_cluster(nodes);
}

std::shared_ptr<FaultInjector> injector(const Cluster& c,
                                        const std::string& spec) {
  return std::make_shared<FaultInjector>(FaultPlan::parse(spec), c.nranks(),
                                         c.ppn());
}

// ---------------------------------------------------------------------------
// Point-to-point under faults
// ---------------------------------------------------------------------------

/// Rank 0 streams `msgs` inter-node messages to rank 1; returns the sender's
/// final virtual time. Payloads are verified word-for-word at the receiver.
double stream_messages(Cluster& c, int msgs) {
  PostOffice po(c.nranks());
  double sender_ns = 0;
  c.run([&](Proc& p) {
    for (int m = 0; m < msgs; ++m) {
      std::vector<std::uint64_t> payload(256);
      for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint64_t>(m) * 1000 + i;
      if (p.rank == 0) {
        po.send(p, 1, payload, sim::Phase::other);
      } else if (p.rank == 1) {
        const auto got = po.recv(p, 0, sim::Phase::other);
        ASSERT_EQ(got, payload) << "message " << m << " damaged in transit";
      }
    }
    if (p.rank == 0) sender_ns = p.clock.now_ns();
  });
  return sender_ns;
}

TEST(P2pFault, RetransmitThroughDropsDeliversIntact) {
  Cluster c(topo(2), sim::CostParams{}, 1);  // ranks 0/1 on different nodes
  const double clean = stream_messages(c, 30);

  c.set_fault_injector(injector(c, "seed:5,drop:prob=0.4"));
  const double faulty1 = stream_messages(c, 30);
  const double faulty2 = stream_messages(c, 30);

  // Every payload arrived intact (asserted inside), drops cost the sender
  // retransmit timeouts, and the whole history is seed-deterministic.
  EXPECT_GT(faulty1, clean);
  EXPECT_EQ(faulty1, faulty2);
}

TEST(P2pFault, CorruptionIsDetectedAndRetransmitted) {
  Cluster c(topo(2), sim::CostParams{}, 1);
  const double clean = stream_messages(c, 30);

  c.set_fault_injector(injector(c, "seed:7,corrupt:prob=0.5"));
  const double faulty1 = stream_messages(c, 30);
  const double faulty2 = stream_messages(c, 30);

  // Corrupted copies are discarded by the receiver's checksum and resent;
  // the sender pays the NACK round trips.
  EXPECT_GT(faulty1, clean);
  EXPECT_EQ(faulty1, faulty2);
}

TEST(P2pFault, SeedChangesTheFaultHistory) {
  Cluster c(topo(2), sim::CostParams{}, 1);
  c.set_fault_injector(injector(c, "seed:5,drop:prob=0.4"));
  const double a = stream_messages(c, 30);
  c.set_fault_injector(injector(c, "seed:6,drop:prob=0.4"));
  const double b = stream_messages(c, 30);
  EXPECT_NE(a, b);
}

TEST(P2pFault, RecvFromDeadSenderThrowsInsteadOfDeadlocking) {
  Cluster c(topo(2), sim::CostParams{}, 1);
  auto inj = injector(c, "seed:1");
  c.set_fault_injector(inj);
  bool threw = false;
  PostOffice po(c.nranks());
  c.run([&](Proc& p) {
    if (p.rank == 0) {
      inj->mark_dead(0);  // crash without sending anything
      return;
    }
    if (p.rank != 1) return;
    try {
      (void)po.recv(p, 0, sim::Phase::other);  // default: infinite timeout
    } catch (const faults::TimeoutError&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
}

TEST(P2pFault, FiniteTimeoutChargesExactlyTheTimeout) {
  Cluster c(topo(2), sim::CostParams{}, 1);
  const double timeout_ns = 1.25e6;
  bool threw = false;
  double after_ns = -1;
  PostOffice po(c.nranks());
  c.run([&](Proc& p) {
    if (p.rank != 1) return;  // rank 0 stays silent
    try {
      (void)po.recv(p, 0, sim::Phase::other, timeout_ns);
    } catch (const faults::TimeoutError&) {
      threw = true;
      after_ns = p.clock.now_ns();
    }
  });
  EXPECT_TRUE(threw);
  // Exactly timeout_ns in virtual time, regardless of host scheduling.
  EXPECT_DOUBLE_EQ(after_ns, timeout_ns);
}

TEST(P2pFault, InfiniteRecvNoRankCanAnswerThrowsInsteadOfHanging) {
  Cluster c(topo(2), sim::CostParams{}, 1);  // no fault injector at all
  bool threw = false;
  double after_ns = -1;
  PostOffice po(c.nranks());
  c.run([&](Proc& p) {
    if (p.rank != 1) return;  // rank 0 returns without sending
    try {
      (void)po.recv(p, 0, sim::Phase::other);
    } catch (const faults::TimeoutError&) {
      threw = true;
      after_ns = p.clock.now_ns();
    }
  });
  EXPECT_TRUE(threw);
  EXPECT_EQ(after_ns, 0.0);  // an unbounded wait charges nothing
}

TEST(P2pFault, TimeoutTripsOnlyOnceEveryRankIsParked) {
  // Rank 0 sends only after a barrier that rank 1 reaches only once its
  // receive gave up: the receive must time out (at exactly its bound),
  // and the late message is still delivered to the next receive.
  Cluster c(topo(2), sim::CostParams{}, 1);
  PostOffice po(c.nranks());
  bool timed_out = false;
  std::vector<std::uint64_t> got;
  double barrier_ns = -1;
  c.run([&](Proc& p) {
    if (p.rank == 0) {
      p.charge(sim::Phase::other, 100.0);
      p.barrier(c.world(), sim::Phase::stall);
      const std::vector<std::uint64_t> payload = {42};
      po.send(p, 1, payload, sim::Phase::other);
      return;
    }
    try {
      (void)po.recv(p, 0, sim::Phase::other, 1000.0);
    } catch (const faults::TimeoutError&) {
      timed_out = true;
    }
    p.barrier(c.world(), sim::Phase::stall);
    barrier_ns = p.clock.now_ns();
    got = po.recv(p, 0, sim::Phase::other);
  });
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(barrier_ns, 1000.0);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{42}));
}

// ---------------------------------------------------------------------------
// Collectives under faults
// ---------------------------------------------------------------------------

/// World allgather of rank-tagged chunks; verifies the gathered data and
/// returns the max rank clock (the collective completion time).
double chaos_allgather(Cluster& c) {
  constexpr size_t kWords = 512;
  const size_t n = static_cast<size_t>(c.nranks());
  double max_ns = 0;
  std::vector<double> clocks(n, 0);
  c.run([&](Proc& p) {
    std::vector<std::uint64_t> chunk(kWords);
    for (size_t i = 0; i < kWords; ++i)
      chunk[i] = static_cast<std::uint64_t>(p.rank) * 100000 + i;
    std::vector<std::uint64_t> dst(n * kWords);
    rt::allgather(p, c.world(), chunk, dst, rt::AllgatherAlgo::flat_ring,
                  sim::Phase::other);
    for (size_t r = 0; r < n; ++r)
      for (size_t i = 0; i < kWords; ++i)
        ASSERT_EQ(dst[r * kWords + i], r * 100000 + i)
            << "rank " << p.rank << " got damaged chunk from rank " << r;
    clocks[static_cast<size_t>(p.rank)] = p.clock.now_ns();
  });
  for (double t : clocks) max_ns = std::max(max_ns, t);
  return max_ns;
}

TEST(AllgatherFault, DropsAndCorruptionAddTimeButDataSurvives) {
  Cluster c(topo(2), sim::CostParams{}, 2);
  const double clean = chaos_allgather(c);

  c.set_fault_injector(injector(c, "seed:9,drop:prob=0.2,corrupt:prob=0.2"));
  const double faulty1 = chaos_allgather(c);
  const double faulty2 = chaos_allgather(c);

  EXPECT_GT(faulty1, clean);
  EXPECT_EQ(faulty1, faulty2);
}

TEST(AllgatherFault, LinkDegradationStretchesInterNodeTime) {
  Cluster c(topo(2), sim::CostParams{}, 2);
  const double clean = chaos_allgather(c);
  c.set_fault_injector(injector(c, "seed:3,degrade:node=1@factor=0.25"));
  const double degraded = chaos_allgather(c);
  EXPECT_GT(degraded, clean);
}

// ---------------------------------------------------------------------------
// End-to-end BFS survival
// ---------------------------------------------------------------------------

void expect_valid_run(Experiment& e, const bfs::Config& cfg,
                      bfs::BfsRunResult* out = nullptr) {
  const GraphBundle& b = e.bundle();
  const graph::Vertex root = b.roots[0];
  const auto [res, parent] = e.run_validated(cfg, root);
  const auto v = graph::validate_bfs_tree(b.csr, root, parent);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(res.visited, v.visited);
  EXPECT_EQ(res.traversed_directed_edges, v.directed_edges_in_component);
  if (out != nullptr) *out = res;
}

ExperimentOptions shape(int nodes, int ppn) {
  ExperimentOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  return o;
}

TEST(ChaosBfs, CrashRecoveryValidatesOnScale16) {
  // The acceptance scenario: rank 3 dies entering level 2 of a scale-16
  // R-MAT traversal on 4x4 ranks; the survivors adopt its partition, roll
  // back to the level checkpoint, and the tree still validates.
  const GraphBundle b = GraphBundle::make(16, 16, 20120924, 4);
  Experiment e(b, shape(4, 4));
  e.cluster().set_fault_injector(
      injector(e.cluster(), "seed:42,crash:rank=3@level=2"));

  bfs::BfsRunResult r1, r2;
  expect_valid_run(e, bfs::share_all(), &r1);
  EXPECT_EQ(r1.ranks_lost, 1);
  EXPECT_GE(r1.recoveries, 1);

  // Same plan, same seed: the replay is bit-identical in virtual time.
  expect_valid_run(e, bfs::share_all(), &r2);
  EXPECT_EQ(r1.time_ns, r2.time_ns);
  EXPECT_EQ(r1.recoveries, r2.recoveries);

  // The loss is not free: recovery re-runs a level and pays checkpoints.
  e.cluster().set_fault_injector(nullptr);
  bfs::BfsRunResult clean;
  expect_valid_run(e, bfs::share_all(), &clean);
  EXPECT_GT(r1.time_ns, clean.time_ns);
  EXPECT_EQ(clean.ranks_lost, 0);
  EXPECT_EQ(clean.recoveries, 0);
}

TEST(ChaosBfs, RecorderCrashHandsBookkeepingOver) {
  // Rank 0 is the default recorder and node-0 leader; killing it exercises
  // the lowest-live re-election on both roles.
  const GraphBundle b = GraphBundle::make(12, 16, 42, 4);
  Experiment e(b, shape(2, 2));
  e.cluster().set_fault_injector(
      injector(e.cluster(), "seed:11,crash:rank=0@level=1"));
  bfs::BfsRunResult r;
  expect_valid_run(e, bfs::original(), &r);
  EXPECT_EQ(r.ranks_lost, 1);
  EXPECT_GE(r.recoveries, 1);
}

TEST(ChaosBfs, ParallelAllgatherDegradesGracefullyUnderCrash) {
  // The parallel-subgroup exchange needs every color present; after a crash
  // it must fall back to the leader-based plan and still validate.
  const GraphBundle b = GraphBundle::make(12, 16, 42, 4);
  Experiment e(b, shape(2, 2));
  e.cluster().set_fault_injector(
      injector(e.cluster(), "seed:13,crash:rank=2@level=2"));
  bfs::BfsRunResult r;
  expect_valid_run(e, bfs::par_allgather(), &r);
  EXPECT_EQ(r.ranks_lost, 1);
}

TEST(ChaosBfs, CrashWithCheckpointingOffIsRejectedUpFront) {
  const GraphBundle b = GraphBundle::make(12, 16, 42, 4);
  Experiment e(b, shape(2, 2));
  e.cluster().set_fault_injector(
      injector(e.cluster(), "crash:rank=1@level=1,checkpoint:off"));
  EXPECT_THROW(e.run_validated(bfs::original(), b.roots[0]),
               faults::FaultError);
}

TEST(ChaosBfs, FullChaosStaysDeterministicAndValid) {
  // Everything except a crash at once: drops, corruption, a straggler and a
  // flapping link. The traversal is slower but valid, and two runs agree to
  // the bit.
  const GraphBundle b = GraphBundle::make(12, 16, 42, 4);
  Experiment e(b, shape(2, 2));
  bfs::BfsRunResult clean;
  expect_valid_run(e, bfs::share_all(), &clean);

  e.cluster().set_fault_injector(injector(
      e.cluster(),
      "seed:21,drop:prob=0.05,corrupt:prob=0.02,straggle:rank=1@factor=2,"
      "flap:node=0@factor=0.3@period=2e6@duty=0.5"));
  bfs::BfsRunResult r1, r2;
  expect_valid_run(e, bfs::share_all(), &r1);
  expect_valid_run(e, bfs::share_all(), &r2);
  EXPECT_EQ(r1.time_ns, r2.time_ns);
  EXPECT_GT(r1.time_ns, clean.time_ns);
  EXPECT_EQ(r1.ranks_lost, 0);
}

}  // namespace
}  // namespace numabfs
