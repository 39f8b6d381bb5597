#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "faults/errors.hpp"
#include "faults/injector.hpp"
#include "runtime/allgather.hpp"
#include "runtime/cluster.hpp"
#include "runtime/p2p.hpp"
#include "runtime/shared_space.hpp"

namespace numabfs::rt {
namespace {

sim::Topology topo(int nodes) { return sim::Topology::xeon_x7550_cluster(nodes); }

TEST(Cluster, RankMapping) {
  Cluster c(topo(4), sim::CostParams{}, 8);
  EXPECT_EQ(c.nranks(), 32);
  EXPECT_EQ(c.sockets_per_rank(), 1);
  EXPECT_EQ(c.node_of(0), 0);
  EXPECT_EQ(c.node_of(7), 0);
  EXPECT_EQ(c.node_of(8), 1);
  EXPECT_EQ(c.local_of(9), 1);
  EXPECT_EQ(c.world().size(), 32);
  EXPECT_EQ(c.node_comm(1).size(), 8);
  EXPECT_EQ(c.leaders().size(), 4);
  EXPECT_EQ(c.subgroup(3).size(), 4);
  EXPECT_EQ(c.subgroup(3).world_rank(2), 2 * 8 + 3);
}

TEST(Cluster, Ppn1SpansWholeNode) {
  Cluster c(topo(2), sim::CostParams{}, 1);
  EXPECT_EQ(c.nranks(), 2);
  EXPECT_EQ(c.sockets_per_rank(), 8);
  std::atomic<int> wrong{0};
  c.run([&](Proc& p) {
    if (p.threads != 64) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Cluster, RejectsBadPpn) {
  EXPECT_THROW(Cluster(topo(1), sim::CostParams{}, 3), std::invalid_argument);
  EXPECT_THROW(Cluster(topo(1), sim::CostParams{}, 0), std::invalid_argument);
}

TEST(Cluster, RunExecutesEveryRankOnce) {
  Cluster c(topo(2), sim::CostParams{}, 8);
  std::vector<std::atomic<int>> hits(16);
  c.run([&](Proc& p) { hits[static_cast<size_t>(p.rank)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Comm, IndexOfIsATableLookup) {
  const Comm c({9, 3, 12, 5});
  EXPECT_EQ(c.index_of(9), 0);
  EXPECT_EQ(c.index_of(3), 1);
  EXPECT_EQ(c.index_of(12), 2);
  EXPECT_EQ(c.index_of(5), 3);
  // Non-members inside and outside the table's range.
  EXPECT_EQ(c.index_of(4), -1);
  EXPECT_EQ(c.index_of(0), -1);
  EXPECT_EQ(c.index_of(13), -1);
  EXPECT_EQ(c.index_of(1 << 20), -1);
  EXPECT_EQ(c.index_of(-1), -1);
}

TEST(Comm, ClusterCommsRecordTheirShape) {
  Cluster c(topo(4), sim::CostParams{}, 2);
  EXPECT_EQ(c.world().nodes(), 4);
  EXPECT_EQ(c.world().per_node(), 2);
  EXPECT_EQ(c.node_comm(1).nodes(), 1);
  EXPECT_EQ(c.node_comm(1).per_node(), 2);
  for (Comm* one_per_node : {&c.leaders(), &c.subgroup(1)}) {
    EXPECT_EQ(one_per_node->nodes(), 4);
    EXPECT_EQ(one_per_node->per_node(), 1);
  }
  EXPECT_THROW(Comm({0, 1, 2}, 2), std::invalid_argument);
}

TEST(Barrier, AlignsClocksToMax) {
  Cluster c(topo(2), sim::CostParams{}, 8);
  std::vector<double> end_times(16);
  c.run([&](Proc& p) {
    // Every rank works a different amount, then barriers.
    p.charge(sim::Phase::other, 100.0 * (p.rank + 1));
    p.barrier(c.world(), sim::Phase::stall);
    end_times[static_cast<size_t>(p.rank)] = p.clock.now_ns();
  });
  for (double t : end_times) EXPECT_DOUBLE_EQ(t, 1600.0);
  // The slowest rank stalls zero; rank 0 stalls the most.
  EXPECT_DOUBLE_EQ(c.profiles()[0].get(sim::Phase::stall), 1500.0);
  EXPECT_DOUBLE_EQ(c.profiles()[15].get(sim::Phase::stall), 0.0);
}

TEST(Barrier, ProfileTotalsMatchClock) {
  Cluster c(topo(2), sim::CostParams{}, 4);
  c.run([&](Proc& p) {
    p.charge(sim::Phase::td_comp, 50.0 * (p.rank % 3 + 1));
    p.barrier(c.world(), sim::Phase::stall);
    p.charge(sim::Phase::bu_comp, 10.0);
    p.barrier(c.world(), sim::Phase::stall);
    EXPECT_NEAR(p.prof.total_ns(), p.clock.now_ns(), 1e-9);
  });
}

/// One word through the vector allreduce.
std::uint64_t reduce1(Proc& p, Comm& comm, std::uint64_t v, ReduceOp op) {
  std::array<std::uint64_t, 1> w{v};
  allreduce(p, comm, w, std::array{op}, sim::Phase::other);
  return w[0];
}

TEST(Allreduce, SumAndMax) {
  Cluster c(topo(2), sim::CostParams{}, 8);
  c.run([&](Proc& p) {
    const std::uint64_t s = reduce1(
        p, c.world(), static_cast<std::uint64_t>(p.rank), ReduceOp::sum);
    EXPECT_EQ(s, 120u);  // 0+..+15
    const std::uint64_t m = reduce1(
        p, c.world(), static_cast<std::uint64_t>(p.rank * 3), ReduceOp::max);
    EXPECT_EQ(m, 45u);
  });
}

TEST(Allreduce, SubCommunicators) {
  Cluster c(topo(4), sim::CostParams{}, 8);
  c.run([&](Proc& p) {
    Comm& node = c.node_comm(p.node);
    const std::uint64_t s = reduce1(p, node, 1, ReduceOp::sum);
    EXPECT_EQ(s, 8u);
    Comm& sg = c.subgroup(p.local);
    const std::uint64_t s2 = reduce1(p, sg, 10, ReduceOp::sum);
    EXPECT_EQ(s2, 40u);
  });
}

TEST(Allreduce, EachWordTakesItsOwnOp) {
  // Word i of every member combines under ops[i], over the world, a node
  // comm and a subgroup; the words come back in order.
  Cluster c(topo(4), sim::CostParams{}, 8);
  const std::array ops{ReduceOp::sum, ReduceOp::max, ReduceOp::min,
                       ReduceOp::bit_or};
  c.run([&](Proc& p) {
    for (Comm* comm :
         {&c.world(), &c.node_comm(p.node), &c.subgroup(p.local)}) {
      const auto r = static_cast<std::uint64_t>(p.rank);
      std::array<std::uint64_t, 4> w{r, 3 * r, r + 5, 1ull << r};
      allreduce(p, *comm, w, ops, sim::Phase::other);
      std::array<std::uint64_t, 4> want{0, 0, ~0ull, 0};
      for (int m : comm->members()) {
        const auto mr = static_cast<std::uint64_t>(m);
        want[0] += mr;
        want[1] = std::max(want[1], 3 * mr);
        want[2] = std::min(want[2], mr + 5);
        want[3] |= 1ull << mr;
      }
      EXPECT_EQ(w, want) << "rank " << p.rank << " comm of " << comm->size();
    }
  });
}

TEST(Allreduce, SkipsACrashedMembersStaleSlot) {
  // The crashed rank joined one reduction, so its slot still points at
  // words it published then. The survivors' next reduction must skip it,
  // also when it was member 0 and member 1 combines.
  const std::array ops{ReduceOp::sum, ReduceOp::max, ReduceOp::min,
                       ReduceOp::bit_or};
  for (const int dead : {5, 0}) {
    Cluster c(topo(2), sim::CostParams{}, 4);
    auto inj = std::make_shared<faults::FaultInjector>(faults::FaultPlan{},
                                                       c.nranks(), c.ppn());
    c.set_fault_injector(inj);
    const std::uint64_t others = 0xffull & ~(1ull << dead);
    c.run([&](Proc& p) {
      const auto r = static_cast<std::uint64_t>(p.rank);
      const bool big = p.rank == dead;
      std::array<std::uint64_t, 4> w{1, big ? 1000 : r, big ? 0u : 10u,
                                     big ? 1ull << 40 : 1ull << r};
      allreduce(p, c.world(), w, ops, sim::Phase::other);
      EXPECT_EQ(w, (std::array<std::uint64_t, 4>{8, 1000, 0,
                                                 others | 1ull << 40}));
      if (p.rank == dead) {
        inj->mark_dead(p.rank);
        c.retire_rank(p);
        return;
      }
      std::array<std::uint64_t, 4> w2{1, r, 10, 1ull << r};
      allreduce(p, c.world(), w2, ops, sim::Phase::other);
      EXPECT_EQ(w2, (std::array<std::uint64_t, 4>{7, 7, 10, others}))
          << "dead rank " << dead;
    });
    c.set_fault_injector(nullptr);
  }
}

class AllgatherAlgos : public ::testing::TestWithParam<AllgatherAlgo> {};

TEST_P(AllgatherAlgos, MovesDataCorrectly) {
  const AllgatherAlgo algo = GetParam();
  Cluster c(topo(4), sim::CostParams{}, 8);
  const size_t words = 16;
  std::vector<std::vector<std::uint64_t>> results(32);
  c.run([&](Proc& p) {
    std::vector<std::uint64_t> chunk(words);
    for (size_t i = 0; i < words; ++i)
      chunk[i] = static_cast<std::uint64_t>(p.rank) * 1000 + i;
    std::vector<std::uint64_t> dst(words * 32, ~0ull);
    allgather(p, c.world(), chunk, dst, algo, sim::Phase::bu_comm);
    results[static_cast<size_t>(p.rank)] = std::move(dst);
  });
  for (int r = 0; r < 32; ++r)
    for (int src = 0; src < 32; ++src)
      for (size_t i = 0; i < words; ++i)
        ASSERT_EQ(results[r][static_cast<size_t>(src) * words + i],
                  static_cast<std::uint64_t>(src) * 1000 + i)
            << "algo=" << to_string(algo) << " r=" << r << " src=" << src;
}

TEST_P(AllgatherAlgos, ChargesIdenticalTimeToAllRanks) {
  const AllgatherAlgo algo = GetParam();
  Cluster c(topo(2), sim::CostParams{}, 8);
  c.run([&](Proc& p) {
    std::vector<std::uint64_t> chunk(64, 1);
    std::vector<std::uint64_t> dst(64 * 16);
    allgather(p, c.world(), chunk, dst, algo, sim::Phase::bu_comm);
  });
  const double t0 = c.profiles()[0].get(sim::Phase::bu_comm);
  EXPECT_GT(t0, 0.0);
  for (const auto& pr : c.profiles())
    EXPECT_DOUBLE_EQ(pr.get(sim::Phase::bu_comm), t0);
}

INSTANTIATE_TEST_SUITE_P(Algos, AllgatherAlgos,
                         ::testing::Values(AllgatherAlgo::flat_ring,
                                           AllgatherAlgo::leader_ring,
                                           AllgatherAlgo::leader_rd));

TEST(Allgather, WorksOverSubCommunicators) {
  // Each subgroup (one member per node) allgathers independently — the
  // structure underlying the paper's Fig. 7.
  Cluster c(topo(4), sim::CostParams{}, 8);
  std::vector<std::vector<std::uint64_t>> results(32);
  c.run([&](Proc& p) {
    Comm& sg = c.subgroup(p.local);
    std::vector<std::uint64_t> chunk(4, static_cast<std::uint64_t>(p.rank));
    std::vector<std::uint64_t> dst(4 * 4);
    allgather(p, sg, chunk, dst, AllgatherAlgo::flat_ring,
              sim::Phase::bu_comm);
    results[static_cast<size_t>(p.rank)] = std::move(dst);
  });
  for (int r = 0; r < 32; ++r) {
    const int local = r % 8;
    for (int m = 0; m < 4; ++m)  // member m of the subgroup = node m
      for (int i = 0; i < 4; ++i)
        ASSERT_EQ(results[r][static_cast<size_t>(m) * 4 + i],
                  static_cast<std::uint64_t>(m * 8 + local))
            << "rank " << r;
  }
}

TEST(Allgather, LeadersCommSpansNodes) {
  Cluster c(topo(4), sim::CostParams{}, 8);
  c.run([&](Proc& p) {
    if (!p.is_node_leader()) return;  // only leaders participate
    std::vector<std::uint64_t> chunk(2, static_cast<std::uint64_t>(p.node));
    std::vector<std::uint64_t> dst(2 * 4);
    allgather(p, c.leaders(), chunk, dst, AllgatherAlgo::flat_ring,
              sim::Phase::bu_comm);
    for (int m = 0; m < 4; ++m)
      for (int i = 0; i < 2; ++i)
        EXPECT_EQ(dst[static_cast<size_t>(m) * 2 + i],
                  static_cast<std::uint64_t>(m));
  });
}

TEST(Allgather, ByteCountersFollowEq1) {
  // Paper Eq. (1): each rank receives chunk * (np - 1) bytes.
  Cluster c(topo(2), sim::CostParams{}, 4);
  c.run([&](Proc& p) {
    std::vector<std::uint64_t> chunk(32, 7);
    std::vector<std::uint64_t> dst(32 * 8);
    allgather(p, c.world(), chunk, dst, AllgatherAlgo::flat_ring,
              sim::Phase::bu_comm);
    const auto& cnt = p.prof.counters();
    EXPECT_EQ(cnt.bytes_intra_node + cnt.bytes_inter_node, 32u * 8 * 7);
    EXPECT_EQ(cnt.bytes_intra_node, 32u * 8 * 3);  // 3 same-node peers
    EXPECT_EQ(cnt.bytes_inter_node, 32u * 8 * 4);  // 4 remote peers
  });
}

TEST(SharedSpace, SameBufferPerNodeKey) {
  SharedSpace ss;
  const auto a = ss.node_words(0, "q", 128);
  const auto b = ss.node_words(0, "q", 128);
  const auto other_node = ss.node_words(1, "q", 128);
  const auto other_key = ss.node_words(0, "r", 64);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_NE(a.data(), other_node.data());
  EXPECT_NE(a.data(), other_key.data());
  EXPECT_THROW(ss.node_words(0, "q", 64), std::invalid_argument);
  ss.clear();
  EXPECT_NO_THROW(ss.node_words(0, "q", 64));
}

TEST(SharedSpace, ConcurrentGetOrCreate) {
  SharedSpace ss;
  Cluster c(topo(2), sim::CostParams{}, 8);
  std::vector<std::uint64_t*> ptrs(16);
  c.run([&](Proc& p) {
    auto span = ss.node_words(p.node, "buf", 256);
    ptrs[static_cast<size_t>(p.rank)] = span.data();
  });
  for (int r = 0; r < 8; ++r) EXPECT_EQ(ptrs[r], ptrs[0]);
  for (int r = 8; r < 16; ++r) EXPECT_EQ(ptrs[r], ptrs[8]);
  EXPECT_NE(ptrs[0], ptrs[8]);
}

TEST(SharedSpace, OverlappingClaimsByDifferentRanksAreDiagnosed) {
  SharedSpace ss;
  ss.node_words(0, "q", 128);
  ss.claim_write(0, "q", 0, 64, /*rank=*/0);
  try {
    ss.claim_write(0, "q", 60, 80, /*rank=*/1);
    FAIL() << "overlapping claim by another rank must throw";
  } catch (const std::logic_error& e) {
    // The diagnostic names both writers and both regions.
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("'q'"), std::string::npos) << what;
  }
}

TEST(SharedSpace, DisjointAndSameRankClaimsAreFine) {
  SharedSpace ss;
  ss.node_words(0, "q", 128);
  ss.claim_write(0, "q", 0, 64, 0);
  EXPECT_NO_THROW(ss.claim_write(0, "q", 64, 128, 1));  // disjoint
  EXPECT_NO_THROW(ss.claim_write(0, "q", 0, 32, 0));    // same rank again
  // Same region on a different key or node is a different buffer.
  EXPECT_NO_THROW(ss.claim_write(0, "other", 0, 64, 1));
  EXPECT_NO_THROW(ss.claim_write(1, "q", 0, 64, 1));
}

TEST(SharedSpace, PhaseBoundaryResetsClaims) {
  SharedSpace ss;
  ss.node_words(0, "q", 128);
  ss.claim_write(0, "q", 0, 128, 0);
  ss.begin_phase();  // the barrier: rank 0's writes are now published
  EXPECT_NO_THROW(ss.claim_write(0, "q", 0, 128, 1));
  ss.clear();  // full reset drops claims along with the buffers
  ss.node_words(0, "q", 128);
  EXPECT_NO_THROW(ss.claim_write(0, "q", 0, 128, 2));
}

TEST(P2p, RoundTripAndArrivalTime) {
  Cluster c(topo(2), sim::CostParams{}, 1);
  PostOffice po(c.nranks());
  c.run([&](Proc& p) {
    if (p.rank == 0) {
      std::vector<std::uint64_t> payload = {1, 2, 3};
      po.send(p, 1, payload, sim::Phase::other);
    } else {
      const auto got = po.recv(p, 0, sim::Phase::other);
      EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2, 3}));
      // Receiver cannot see the message before the modeled arrival.
      EXPECT_GT(p.clock.now_ns(), 0.0);
    }
  });
}

TEST(P2p, SmallMessagesPayNicLatencyOnlyAcrossNodes) {
  // For small payloads the NIC's per-message alpha dominates, so an
  // intra-node copy is much cheaper than an inter-node send.
  Cluster c(topo(2), sim::CostParams{}, 8);
  double intra = 0, inter = 0;
  c.run([&](Proc& p) {
    std::vector<std::uint64_t> payload(8, 0);
    if (p.rank == 0) {
      PostOffice po(c.nranks());
      po.send(p, 1, payload, sim::Phase::other);  // same node
      intra = p.clock.now_ns();
      const double before = p.clock.now_ns();
      po.send(p, 8, payload, sim::Phase::other);  // other node
      inter = p.clock.now_ns() - before;
    }
  });
  EXPECT_GT(inter, intra);
  EXPECT_GT(inter, c.params().nic_msg_latency_ns);
}

TEST(P2p, LargeIntraNodeCopiesPayCicoPenalty) {
  // Large intra-node messages cross the CICO bounce buffer: their cost is
  // cico_factor x bytes / copy bandwidth — the effect that makes the
  // leader-based allgather's intra steps dominate in Fig. 6.
  Cluster c(topo(2), sim::CostParams{}, 8);
  c.run([&](Proc& p) {
    if (p.rank != 0) return;
    PostOffice po(c.nranks());
    std::vector<std::uint64_t> payload(1 << 15, 0);
    po.send(p, 1, payload, sim::Phase::other);
    const double bytes = static_cast<double>(payload.size()) * 8;
    const double expect =
        c.params().cico_factor * bytes / c.link().shm_flow_bw(1);
    EXPECT_NEAR(p.clock.now_ns(), expect, 1e-6);
  });
}

// ---------------------------------------------------------------------------
// Executor: ranks are fibers on a persistent worker pool
// ---------------------------------------------------------------------------

/// Modeled work of `rank` before barrier step `step` (deterministic, uneven).
double work_ns(int rank, int step) {
  return static_cast<double>((rank * 31 + step * 17) % 101);
}

TEST(Executor, ThousandRanksAlignToTheGroupMaxAtEveryBarrierKind) {
  // 256 nodes x ppn 4: far more ranks than workers. Every 10th step also
  // runs node, subgroup and leader barriers.
  Cluster c(topo(256), sim::CostParams{}, 4);
  const int n = c.nranks();
  ASSERT_EQ(n, 1024);
  enum Kind { world, node, subgroup, leaders };
  std::vector<Kind> steps;
  for (int i = 0; i < 200; ++i) {
    steps.push_back(world);
    if (i % 10 == 0) {
      steps.push_back(node);
      steps.push_back(subgroup);
      steps.push_back(leaders);
    }
  }
  const size_t ns = steps.size();
  std::vector<double> before(ns * static_cast<size_t>(n), NAN);
  std::vector<double> after(ns * static_cast<size_t>(n), NAN);
  c.run([&](Proc& p) {
    for (size_t s = 0; s < ns; ++s) {
      if (steps[s] == leaders && !p.is_node_leader()) continue;
      p.charge(sim::Phase::other, work_ns(p.rank, static_cast<int>(s)));
      Comm& comm = steps[s] == world      ? c.world()
                   : steps[s] == node     ? c.node_comm(p.node)
                   : steps[s] == subgroup ? c.subgroup(p.local)
                                          : c.leaders();
      const size_t at = s * static_cast<size_t>(n) + static_cast<size_t>(p.rank);
      before[at] = p.clock.now_ns();
      p.barrier(comm, sim::Phase::stall);
      after[at] = p.clock.now_ns();
    }
  });
  for (size_t s = 0; s < ns; ++s) {
    std::vector<const Comm*> groups;
    switch (steps[s]) {
      case world: groups = {&c.world()}; break;
      case node:
        for (int k = 0; k < 256; ++k) groups.push_back(&c.node_comm(k));
        break;
      case subgroup:
        for (int l = 0; l < 4; ++l) groups.push_back(&c.subgroup(l));
        break;
      case leaders: groups = {&c.leaders()}; break;
    }
    for (const Comm* g : groups) {
      double mx = 0;
      for (int r : g->members())
        mx = std::max(mx, before[s * static_cast<size_t>(n) + static_cast<size_t>(r)]);
      for (int r : g->members())
        ASSERT_EQ(after[s * static_cast<size_t>(n) + static_cast<size_t>(r)], mx)
            << "step " << s << " rank " << r;
    }
  }
}

/// Rank `quitter` retires from every comm; the rest barrier twice on the
/// world. With `last`, the quitter first waits (at quiescence, i.e. until
/// every peer is parked in the first barrier) so it is the member that
/// barrier awaits last.
void retire_while_peers_wait(bool last) {
  Cluster c(topo(2), sim::CostParams{}, 4);
  PostOffice po(c.nranks());
  constexpr int quitter = 5;
  std::vector<double> first(8, NAN), second(8, NAN);
  c.run([&](Proc& p) {
    if (p.rank == quitter) {
      p.charge(sim::Phase::other, 1e9);  // must not reach the group max
      if (last) {
        bool timed_out = false;
        try {
          (void)po.recv(p, 0, sim::Phase::other, 1.0);  // rank 0 never sends
        } catch (const faults::TimeoutError&) {
          timed_out = true;
        }
        EXPECT_TRUE(timed_out);
      }
      c.retire_rank(p);
      return;
    }
    p.charge(sim::Phase::other, 10.0 * p.rank);
    p.barrier(c.world(), sim::Phase::stall);
    first[static_cast<size_t>(p.rank)] = p.clock.now_ns();
    p.charge(sim::Phase::other, 100.0 * (8 - p.rank));
    p.barrier(c.world(), sim::Phase::stall);  // expects n - 1
    second[static_cast<size_t>(p.rank)] = p.clock.now_ns();
  });
  for (int r = 0; r < 8; ++r) {
    if (r == quitter) continue;
    EXPECT_EQ(first[static_cast<size_t>(r)], 70.0) << "rank " << r;
    EXPECT_EQ(second[static_cast<size_t>(r)], 70.0 + 800.0) << "rank " << r;
  }
  // The next run revives every rank at full membership.
  std::vector<double> full(8, NAN);
  c.run([&](Proc& p) {
    p.charge(sim::Phase::other, 1.0 + p.rank);
    p.barrier(c.world(), sim::Phase::stall);
    full[static_cast<size_t>(p.rank)] = p.clock.now_ns();
  });
  for (double t : full) EXPECT_EQ(t, 8.0);
}

TEST(Executor, RetiringRankReleasesWaitingPeers) {
  retire_while_peers_wait(/*last=*/false);
}

TEST(Executor, RetiringTheLastAwaitedMemberCompletesThePhase) {
  retire_while_peers_wait(/*last=*/true);
}

/// Memory maps and resident pages of this process.
std::pair<int, long> maps_and_rss_pages() {
  std::ifstream maps("/proc/self/maps");
  int lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return {lines, resident};
}

TEST(Executor, BackToBackRunsReusePooledStacks) {
  Cluster c(topo(16), sim::CostParams{}, 4);
  const auto body = [&c](Proc& p) {
    p.charge(sim::Phase::other, 1.0 + p.rank % 3);
    p.barrier(c.world(), sim::Phase::stall);
  };
  c.run(body);  // warm: the pool has its workers and 64 stacks
  const auto [maps0, rss0] = maps_and_rss_pages();
  for (int i = 0; i < 1000; ++i) c.run(body);
  const auto [maps1, rss1] = maps_and_rss_pages();
  // A stack per rank per run would add 64000 mappings and touch new pages.
  EXPECT_LE(maps1, maps0 + 4);
// Sanitizer runtimes keep freed heap and shadow pages resident.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  const long page = sysconf(_SC_PAGESIZE);
  EXPECT_LE((rss1 - rss0) * page, 4L << 20);
#else
  (void)rss0;
  (void)rss1;
#endif
  EXPECT_DOUBLE_EQ(c.profiles()[0].get(sim::Phase::stall), 2.0);
}

TEST(Executor, RankCanUseAMebibyteOfStack) {
  Cluster c(topo(4), sim::CostParams{}, 4);
  std::atomic<int> wrong{0};
  c.run([&](Proc& p) {
    std::array<unsigned char, std::size_t{1} << 20> buf;
    volatile unsigned char* v = buf.data();
    for (std::size_t i = 0; i < buf.size(); i += 64)
      v[i] = static_cast<unsigned char>(p.rank + i / 64);
    // Every rank's frame is live across the barrier.
    p.barrier(c.world(), sim::Phase::stall);
    for (std::size_t i = 0; i < buf.size(); i += 64)
      if (v[i] != static_cast<unsigned char>(p.rank + i / 64)) ++wrong;
  });
  EXPECT_EQ(wrong.load(), 0);
}

void use_threadsafe_death_tests() {
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
}

TEST(ExecutorDeathTest, ThrowingRankAbortsNamingItsRank) {
  use_threadsafe_death_tests();
  EXPECT_DEATH(
      {
        Cluster c(topo(2), sim::CostParams{}, 4);
        c.run([&c](Proc& p) {
          if (p.rank == 3) throw std::runtime_error("boom");
          p.barrier(c.world(), sim::Phase::stall);
        });
      },
      "rank 3 threw: boom");
}

TEST(ExecutorDeathTest, BarrierThatCanNeverCompleteAbortsInsteadOfHanging) {
  use_threadsafe_death_tests();
  EXPECT_DEATH(
      {
        Cluster c(topo(2), sim::CostParams{}, 4);
        c.run([&c](Proc& p) {
          if (p.rank == 2) return;  // leaves without retiring
          p.barrier(c.world(), sim::Phase::stall);
        });
      },
      "deadlock: 7 of 8 ranks");
}

TEST(Executor, RunFromInsideARankIsRejected) {
  Cluster c(topo(1), sim::CostParams{}, 1);
  bool threw = false;
  c.run([&](Proc&) {
    try {
      c.run([](Proc&) {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace numabfs::rt
