// SPMD-level tests of the communication phase: every sharing plan must
// produce identical in_queue / in_queue_summary contents and leave the out
// structures clean — the data movement is real, so this checks the actual
// exchange plumbing (leader copies, subgroup slices, summary OR-merges).

#include <gtest/gtest.h>

#include <vector>

#include "bfs/exchange.hpp"
#include "graph/codec.hpp"
#include "graph/rmat.hpp"

namespace numabfs::bfs {
namespace {

struct Fixture {
  graph::Csr csr;
  graph::DistGraph dg;
  rt::Cluster cluster;
  Fixture(int nodes, int ppn, int scale = 11)
      : csr(make_csr(scale)),
        dg(graph::DistGraph::build(
            csr, graph::Partition1D(csr.num_vertices(), nodes * ppn))),
        cluster(sim::Topology::xeon_x7550_cluster(nodes), sim::CostParams{},
                ppn) {}

  static graph::Csr make_csr(int scale) {
    graph::RmatParams p;
    p.scale = scale;
    p.edgefactor = 8;
    return graph::Csr::from_edges(p.num_vertices(), graph::rmat_edges(p));
  }
};

/// Deterministic pseudo-random out pattern for rank r.
bool in_pattern(std::uint64_t v, int r) {
  return graph::splitmix64(v * 31 + static_cast<std::uint64_t>(r)) % 5 == 0;
}

void fill_out(DistState& st, const graph::DistGraph& dg, int r) {
  auto out_q = st.out_queue(r);
  auto out_s = st.out_summary(r);
  const std::uint64_t vb = dg.part.begin(r), ve = dg.part.end(r);
  for (std::uint64_t v = vb; v < ve; ++v) {
    if (in_pattern(v, r)) {
      out_q.set(v);
      out_s.mark(v);
    }
  }
}

/// Bits fill_out sets over every rank (the exchange's frontier size).
std::uint64_t pattern_bits(const graph::DistGraph& dg) {
  std::uint64_t n = 0;
  for (int r = 0; r < dg.part.np(); ++r)
    for (std::uint64_t v = dg.part.begin(r); v < dg.part.end(r); ++v)
      n += in_pattern(v, r) ? 1 : 0;
  return n;
}

class ExchangePlans : public ::testing::TestWithParam<int> {};

Config plan_config(int plan) {
  switch (plan) {
    case 0: return original();
    case 1: {
      Config c = original();
      c.base_algo = rt::AllgatherAlgo::leader_ring;
      return c;
    }
    case 2: return share_in_queue();
    case 3: return share_all();
    case 4: return par_allgather();
    case 5: {
      Config c = par_allgather();
      c.summary_granularity = 100;  // non-power-of-two granularity
      return c;
    }
    default: {
      Config c = par_allgather();
      c.summary_granularity = 1024;
      return c;
    }
  }
}

TEST_P(ExchangePlans, AssemblesIdenticalFrontiers) {
  const Config cfg = plan_config(GetParam());
  Fixture f(2, 8);
  const int np = f.cluster.nranks();
  DistState st(f.dg, cfg, 2, 8);

  // Reference: the union of all out chunks.
  graph::Bitmap expect_q(st.padded_bits());
  for (int r = 0; r < np; ++r) {
    const std::uint64_t vb = f.dg.part.begin(r), ve = f.dg.part.end(r);
    for (std::uint64_t v = vb; v < ve; ++v)
      if (in_pattern(v, r)) expect_q.view().set(v);
  }
  const std::uint64_t nf = pattern_bits(f.dg);

  const StructSizes sz{};  // unit costs irrelevant for data correctness
  const UnitCosts u = unit_costs(f.cluster, cfg, sz);

  f.cluster.run([&](rt::Proc& p) {
    fill_out(st, f.dg, p.rank);
    p.barrier(f.cluster.world(), sim::Phase::stall);
    exchange_frontier(p, f.dg, st, u, sim::Phase::bu_comm, nf);
  });

  const std::uint64_t g = cfg.summary_granularity;
  for (int r = 0; r < np; ++r) {
    auto in_q = st.in_queue(r);
    auto in_s = st.in_summary(r);
    for (std::uint64_t v = 0; v < st.padded_bits(); ++v) {
      ASSERT_EQ(in_q.get(v), expect_q.view().get(v))
          << "plan " << GetParam() << " rank " << r << " bit " << v;
    }
    // Summary must be the exact OR-reduction of in_queue blocks.
    for (std::uint64_t b = 0; b * g < st.padded_bits(); ++b) {
      const std::uint64_t lo = b * g;
      const std::uint64_t hi = std::min(st.padded_bits(), lo + g);
      ASSERT_EQ(in_s.covers(lo), expect_q.view().count_range(lo, hi) != 0)
          << "plan " << GetParam() << " rank " << r << " block " << b;
    }
    // Out structures must be clean for the next level.
    ASSERT_FALSE(st.out_queue(r).any()) << "plan " << GetParam();
    ASSERT_FALSE(st.out_summary(r).bits().any()) << "plan " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Plans, ExchangePlans, ::testing::Range(0, 7));

TEST(ExchangeSparse, AssemblesSortedGlobalFrontier) {
  Fixture f(2, 4);
  const int np = f.cluster.nranks();
  DistState st(f.dg, original(), 2, 4);
  const UnitCosts u{};

  f.cluster.run([&](rt::Proc& p) {
    auto& d = st.discovered(p.rank);
    d.clear();
    // Each rank discovers a few of its owned vertices, ascending.
    const std::uint64_t vb = f.dg.part.begin(p.rank);
    for (std::uint64_t i = 0; i < 5; ++i)
      d.push_back(static_cast<graph::Vertex>(vb + i * 7));
    exchange_sparse(p, f.dg, st, u, sim::Phase::td_comm, false);
  });

  for (int r = 0; r < np; ++r) {
    const auto& fr = st.frontier(r);
    ASSERT_EQ(fr.size(), 5u * static_cast<size_t>(np));
    EXPECT_TRUE(std::is_sorted(fr.begin(), fr.end()));
    EXPECT_EQ(fr, st.frontier(0));
  }
}

TEST(ExchangeSparse, WipeOutClearsBitmaps) {
  Fixture f(2, 4);
  DistState st(f.dg, share_all(), 2, 4);
  const UnitCosts u{};
  f.cluster.run([&](rt::Proc& p) {
    fill_out(st, f.dg, p.rank);
    st.discovered(p.rank).clear();
    p.barrier(f.cluster.world(), sim::Phase::stall);
    exchange_sparse(p, f.dg, st, u, sim::Phase::td_comm, /*wipe_out=*/true);
  });
  for (int r = 0; r < f.cluster.nranks(); ++r) {
    EXPECT_FALSE(st.out_queue(r).any());
    EXPECT_FALSE(st.out_summary(r).bits().any());
  }
}

TEST(Exchange, TimesAreIdenticalAcrossRanks) {
  Fixture f(2, 8);
  DistState st(f.dg, par_allgather(), 2, 8);
  const UnitCosts u{};
  const std::uint64_t nf = pattern_bits(f.dg);
  f.cluster.run([&](rt::Proc& p) {
    fill_out(st, f.dg, p.rank);
    p.barrier(f.cluster.world(), sim::Phase::stall);
    exchange_frontier(p, f.dg, st, u, sim::Phase::bu_comm, nf);
    p.barrier(f.cluster.world(), sim::Phase::stall);
  });
  // Bitmap exchanges are symmetric: every rank must end clock-aligned with
  // identical bu_comm charges (stall differences get their own phase).
  const double t0 = f.cluster.profiles()[0].get(sim::Phase::bu_comm);
  EXPECT_GT(t0, 0.0);
  for (const auto& pr : f.cluster.profiles())
    EXPECT_NEAR(pr.get(sim::Phase::bu_comm), t0, t0 * 1e-9);
}

TEST(Exchange, ShareReducesModeledTotal) {
  Fixture f(4, 8);
  const UnitCosts u{};
  const std::uint64_t nf = pattern_bits(f.dg);
  double prev = 1e300;
  for (int plan : {0, 2, 3, 4}) {
    const Config cfg = plan_config(plan);
    DistState st(f.dg, cfg, 4, 8);
    double total = 0;
    f.cluster.run([&](rt::Proc& p) {
      fill_out(st, f.dg, p.rank);
      p.barrier(f.cluster.world(), sim::Phase::stall);
      const ExchangeTimes t =
          exchange_frontier(p, f.dg, st, u, sim::Phase::bu_comm, nf);
      if (p.rank == 0) total = t.total_ns;
    });
    EXPECT_LT(total, prev) << "plan " << plan;
    prev = total;
  }
}

// --- the codec gate's popcount-free pick ----------------------------------

/// Popcounts 0..bits in 16 steps, both ends included.
std::vector<std::uint64_t> pop_sweep(std::uint64_t bits) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t pop = 0; pop < bits; pop += bits / 16) out.push_back(pop);
  out.push_back(bits);
  return out;
}

TEST(Gate, PopcountFreePickIsRawAtEveryPopcount) {
  // 16 nodes x 4 at physical alpha: the gate's priced trial reduction
  // costs several NIC latencies. Chunks of 64 words: a chunk rides in about
  // 1.5 us, so even an empty frontier's coded estimate (the reduction
  // alone) fails the 1.5x trial test and the pick is popcount-free. At
  // 1,024 words a sparse frontier would try a codec, and at 8,192 words
  // every frontier does, so neither pick is.
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(16), sim::CostParams{}, 4);
  UnitCosts u;
  u.word_stream_ns = 0.5;
  const auto plan = [](std::uint64_t b) {
    return 1000.0 + static_cast<double>(b);
  };
  struct Run {
    GateResult gate;
    std::uint64_t trials = 0;  ///< trial reductions rank 0 joined
  };
  const auto run_gate = [&](CodecMode mode, std::uint64_t words,
                            std::uint64_t set_bits) {
    const std::uint64_t per_chunk = set_bits / 64;  // 64 ranks
    std::vector<std::vector<std::uint64_t>> bits(
        64, std::vector<std::uint64_t>(words, 0));
    std::vector<std::vector<std::uint8_t>> enc(64);
    Run out;
    c.run([&](rt::Proc& p) {
      auto& w = bits[static_cast<std::size_t>(p.rank)];
      for (std::uint64_t b = 0; b < per_chunk; ++b)
        w[b / 64] |= std::uint64_t{1} << (b % 64);
      std::vector<GateChunk> chunks(1);
      chunks[0].words = w;
      chunks[0].enc = &enc[static_cast<std::size_t>(p.rank)];
      const GateResult g =
          gate_bitmap_chunks(p, c.world(), mode, 1, chunks, set_bits, words,
                             words * 64, 1, u, sim::Phase::bu_comm, plan);
      if (p.rank == 0) out = {g, p.prof.counters().reductions};
    });
    return out;
  };

  const Run off = run_gate(CodecMode::off, 64, 100);
  EXPECT_TRUE(off.gate.popcount_free);
  EXPECT_EQ(off.gate.kind, graph::codec::Kind::raw);

  int free_geometries = 0, bound_geometries = 0;
  for (const std::uint64_t words : {64u, 1024u, 8192u}) {
    const std::vector<std::uint64_t> pops = pop_sweep(words * 64 * 64);
    const bool free = run_gate(CodecMode::gate, words, 0).gate.popcount_free;
    (free ? free_geometries : bound_geometries)++;
    bool raw_everywhere = true;
    for (const std::uint64_t pop : pops) {
      const Run r = run_gate(CodecMode::gate, words, pop);
      // The claim is a property of the geometry, not of the popcount.
      EXPECT_EQ(r.gate.popcount_free, free) << words << " words, pop " << pop;
      raw_everywhere = raw_everywhere && r.trials == 0 &&
                       r.gate.kind == graph::codec::Kind::raw;
    }
    if (free) {
      EXPECT_TRUE(raw_everywhere) << words << " words";
    } else {
      // A bound pick runs a trial at popcount 0: the popcount mattered.
      EXPECT_EQ(run_gate(CodecMode::gate, words, 0).trials, 1u);
    }
    // Forced codecs always run their trial.
    EXPECT_FALSE(run_gate(CodecMode::force_dense, words, 0).gate.popcount_free);
  }
  EXPECT_EQ(free_geometries, 1);
  EXPECT_EQ(bound_geometries, 2);
}

}  // namespace
}  // namespace numabfs::bfs
