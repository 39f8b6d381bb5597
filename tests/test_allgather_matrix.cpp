// Exhaustive data-equivalence grid for the allgather family: every
// algorithm must produce byte-identical results over every (shape, chunk
// size) combination, charge strictly positive, shape-monotone time, and
// conserve bytes — the counters must obey the paper's Eq. (1) volume law
// m*(np-1), and with the exchange codec off the BFS wire volumes must be
// exactly the raw formulas of each collective plan (the codec's
// bytes_raw_equiv bookkeeping degenerates to the measured bytes).

#include <gtest/gtest.h>

#include <tuple>

#include "bfs/config.hpp"
#include "bfs/hybrid.hpp"
#include "harness/graph500.hpp"
#include "runtime/allgather.hpp"

namespace numabfs::rt {
namespace {

// A tiny deterministic content generator shared by writer and checker.
std::uint64_t graph_hash(int rank, int word) {
  return 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(rank + 1) +
         static_cast<std::uint64_t>(word) * 0x2545f4914f6cdd1dull;
}

using Param = std::tuple<int /*nodes*/, int /*ppn*/, int /*words*/,
                         AllgatherAlgo>;

class AllgatherMatrix : public ::testing::TestWithParam<Param> {};

TEST_P(AllgatherMatrix, DataIdenticalAcrossAlgorithms) {
  const auto [nodes, ppn, words, algo] = GetParam();
  Cluster c(sim::Topology::xeon_x7550_cluster(nodes), sim::CostParams{}, ppn);
  const int np = c.nranks();

  std::vector<std::vector<std::uint64_t>> results(static_cast<size_t>(np));
  c.run([&](Proc& p) {
    std::vector<std::uint64_t> chunk(static_cast<size_t>(words));
    for (int i = 0; i < words; ++i)
      chunk[static_cast<size_t>(i)] = graph_hash(p.rank, i);
    std::vector<std::uint64_t> dst(static_cast<size_t>(words * np));
    allgather(p, c.world(), chunk, dst, algo, sim::Phase::bu_comm);
    results[static_cast<size_t>(p.rank)] = std::move(dst);
  });

  // Expected content is algorithm-independent.
  for (int r = 0; r < np; ++r) {
    ASSERT_EQ(results[static_cast<size_t>(r)].size(),
              static_cast<size_t>(words * np));
    for (int src = 0; src < np; ++src)
      for (int i = 0; i < words; ++i)
        ASSERT_EQ(results[static_cast<size_t>(r)]
                         [static_cast<size_t>(src * words + i)],
                  graph_hash(src, i))
            << "r=" << r << " src=" << src << " i=" << i;
    // Every rank sees the same bytes.
    ASSERT_EQ(results[static_cast<size_t>(r)], results[0]);
  }

  // Time must be positive whenever there is more than one rank.
  if (np > 1) {
    EXPECT_GT(c.profiles()[0].get(sim::Phase::bu_comm), 0.0);
  }

  // Eq. (1): every rank receives exactly m*(np-1) bytes, regardless of the
  // algorithm; and on the raw path the raw-equivalent counter tracks the
  // measured bytes exactly (byte conservation).
  const std::uint64_t m = static_cast<std::uint64_t>(words) * 8;
  for (int r = 0; r < np; ++r) {
    const auto& cnt = c.profiles()[static_cast<size_t>(r)].counters();
    EXPECT_EQ(cnt.bytes_intra_node + cnt.bytes_inter_node,
              m * static_cast<std::uint64_t>(np - 1))
        << "rank " << r;
    EXPECT_EQ(cnt.bytes_raw_equiv, cnt.bytes_intra_node + cnt.bytes_inter_node)
        << "rank " << r;
  }
}

std::string matrix_name(const ::testing::TestParamInfo<Param>& ti) {
  const auto [nodes, ppn, words, algo] = ti.param;
  std::string name = "n";
  name.append(std::to_string(nodes)).append("_p").append(std::to_string(ppn));
  name.append("_w").append(std::to_string(words)).append("_").append(
      to_string(algo));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllgatherMatrix,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1, 2, 8),
                       ::testing::Values(1, 7, 64),
                       ::testing::Values(AllgatherAlgo::flat_ring,
                                         AllgatherAlgo::leader_ring,
                                         AllgatherAlgo::leader_rd)),
    matrix_name);

TEST(AllgatherMatrix, TimeMonotoneInChunkAndRanks) {
  // Charged time grows with chunk size at fixed shape, and with rank count
  // at fixed chunk (more data in flight either way).
  const auto charged = [](int nodes, int ppn, int words) {
    Cluster c(sim::Topology::xeon_x7550_cluster(nodes), sim::CostParams{},
              ppn);
    c.run([&](Proc& p) {
      std::vector<std::uint64_t> chunk(static_cast<size_t>(words), 1);
      std::vector<std::uint64_t> dst(
          static_cast<size_t>(words * c.nranks()));
      allgather(p, c.world(), chunk, dst, AllgatherAlgo::flat_ring,
                sim::Phase::bu_comm);
    });
    return c.profiles()[0].get(sim::Phase::bu_comm);
  };
  EXPECT_LT(charged(2, 8, 64), charged(2, 8, 512));
  EXPECT_LT(charged(2, 8, 64), charged(4, 8, 64));
}

// ---------------------------------------------------------------------------
// BFS wire-byte conservation (codec off)
// ---------------------------------------------------------------------------

// With the exchange codec off, every bitmap exchange must move exactly the
// closed-form volume of its collective plan — the codec refactor may not
// perturb the raw path by a single byte:
//   private replicas        np * (np-1) * B     (Eq. (1) at every rank)
//   leader-assembled        nodes * (np-1) * B  (only leaders copy)
//   parallel subgroups      np * (nodes-1) * B  (each rank copies its color)
// where B is the per-partition block size. wire_raw_bytes must equal the
// measured bytes bit-for-bit (the raw-equivalent counter degenerates).
using WireParam = std::tuple<int /*nodes*/, int /*ppn*/, int /*variant*/>;

class BfsWireConservation : public ::testing::TestWithParam<WireParam> {};

bfs::Config wire_variant(int v) {
  switch (v) {
    case 0: return bfs::original();  // flat ring
    case 1: {
      bfs::Config c = bfs::original();
      c.base_algo = AllgatherAlgo::leader_ring;
      return c;
    }
    case 2: return bfs::share_in_queue();
    case 3: return bfs::share_all();
    default: return bfs::par_allgather();
  }
}

TEST_P(BfsWireConservation, RawPathMatchesPlanFormula) {
  const auto [nodes, ppn, v] = GetParam();
  static const harness::GraphBundle bundle =
      harness::GraphBundle::make(10, 16, 42, 4);
  harness::ExperimentOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  harness::Experiment e(bundle, o);

  bfs::Config cfg = wire_variant(v);
  cfg.direction = bfs::Direction::bottom_up_only;  // every exchange is bitmap
  ASSERT_TRUE(cfg.validate().empty());
  const std::uint64_t np = static_cast<std::uint64_t>(nodes * ppn);
  const std::uint64_t B = e.dist().part.block() / 8;

  const bool shared_in = cfg.sharing != bfs::Sharing::none && ppn > 1;
  const bool par = shared_in && cfg.sharing == bfs::Sharing::all &&
                   cfg.parallel_allgather && ppn > 1;
  std::uint64_t expect;
  if (par)
    expect = np * static_cast<std::uint64_t>(nodes - 1) * B;
  else if (shared_in)
    expect = static_cast<std::uint64_t>(nodes) * (np - 1) * B;
  else
    expect = np * (np - 1) * B;

  const auto [res, parent] = e.run_validated(cfg, bundle.roots[0]);
  int exchanges = 0;
  for (const auto& t : res.trace) {
    if (t.exchange_codec != 0) continue;  // raw is the only legal pick
    EXPECT_EQ(t.wire_bytes, expect) << "level " << t.level;
    EXPECT_EQ(t.wire_raw_bytes, t.wire_bytes) << "level " << t.level;
    ++exchanges;
  }
  EXPECT_GT(exchanges, 0);
}

std::string wire_name(const ::testing::TestParamInfo<WireParam>& ti) {
  const auto [nodes, ppn, v] = ti.param;
  std::string name = "n";
  name.append(std::to_string(nodes)).append("_p").append(std::to_string(ppn));
  name.append("_v").append(std::to_string(v));
  return name;
}

INSTANTIATE_TEST_SUITE_P(Grid, BfsWireConservation,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 4),
                                            ::testing::Values(0, 1, 2, 3, 4)),
                         wire_name);

}  // namespace
}  // namespace numabfs::rt
