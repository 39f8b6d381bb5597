#include "bfs2d/bfs2d.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bfs2d/exchange2d.hpp"

#include "faults/errors.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/reference_bfs.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "numasim/topology.hpp"
#include "obs/trace.hpp"
#include "runtime/coll_model.hpp"

namespace numabfs::bfs2d {
namespace {

graph::Csr make_csr(int scale, std::uint64_t seed = 7) {
  graph::RmatParams p;
  p.scale = scale;
  p.edgefactor = 8;
  p.seed = seed;
  return graph::Csr::from_edges(p.num_vertices(), graph::rmat_edges(p));
}

graph::Vertex first_root(const graph::Csr& g) {
  graph::Vertex root = 0;
  while (g.degree(root) == 0) ++root;
  return root;
}

TEST(Grid2d, ShapeAndOwnership) {
  const Grid2d g = Grid2d::make(1000, 16);
  EXPECT_EQ(g.rows(), 4);
  EXPECT_EQ(g.cols(), 4);
  EXPECT_EQ(g.np(), 16);
  EXPECT_GE(g.padded(), 1000u);
  EXPECT_EQ(g.padded() % (16 * 64), 0u);
  EXPECT_EQ(g.band_bits() * 4, g.padded());
  EXPECT_EQ(g.colband_bits() * 4, g.padded());
  EXPECT_EQ(g.piece_bits() * 16, g.padded());
  // Every vertex owned exactly once, within the owner's piece range.
  for (std::uint64_t v = 0; v < 1000; ++v) {
    const int o = g.owner(v);
    EXPECT_GE(v, g.piece_begin(o));
    EXPECT_LT(v, g.piece_begin(o) + g.piece_bits());
    EXPECT_EQ(g.row_of(o), static_cast<int>(v / g.band_bits()));
  }
}

TEST(Grid2d, RectangularShapes) {
  // Non-square rank counts factor into the most-square admissible grid.
  const Grid2d a = Grid2d::make(1000, 8);  // 8 = 2*4 or 4*2 or 1*8 or 8*1
  EXPECT_EQ(a.rows() * a.cols(), 8);
  EXPECT_EQ(a.rows(), 2);  // ties between 2x4 and 4x2 go to the wider grid
  EXPECT_EQ(a.cols(), 4);
  const Grid2d b(1000, 3, 4);  // explicit rectangle
  EXPECT_EQ(b.np(), 12);
  EXPECT_EQ(b.band_bits(), b.piece_bits() * 4);
  EXPECT_EQ(b.colband_bits(), b.piece_bits() * 3);
  for (std::uint64_t v = 0; v < 1000; ++v) {
    const int o = b.owner(v);
    EXPECT_EQ(b.rank_at(b.row_of(o), b.col_of(o)), o);
  }
  EXPECT_THROW(Grid2d(100, 0, 4), std::invalid_argument);
}

TEST(Grid2d, PpnConstrainsColumns) {
  // ppn must divide C so rows span whole nodes.
  const Grid2d g = Grid2d::make(1000, 64, 8);
  EXPECT_EQ(g.cols() % 8, 0);
  EXPECT_EQ(g.rows() * g.cols(), 64);
  EXPECT_EQ(g.cols(), 8);  // 8x8 is the most-square admissible shape
  // 2 ranks with ppn=8 cannot host any grid whose C is a multiple of 8.
  try {
    Grid2d::make(1000, 2, 8);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error names the nearest admissible rank counts.
    EXPECT_NE(std::string(e.what()).find("nearest valid np"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("8"), std::string::npos);
  }
  // np=12, ppn=8: 8 and 16 are the nearest multiples.
  try {
    Grid2d::make(1000, 12, 8);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("8 or 16"), std::string::npos);
  }
}

TEST(Grid2d, TransposeRoundTrip) {
  for (const auto& [r, cc] : {std::pair{4, 4}, {2, 8}, {8, 2}, {3, 5}}) {
    const Grid2d g(1 << 12, r, cc);
    for (int piece = 0; piece < g.np(); ++piece) {
      const int dest = g.transpose_dest(piece);
      // The dest assembles slot piece % R of col-band piece / R.
      EXPECT_EQ(g.col_of(dest), piece / r);
      EXPECT_EQ(g.transpose_src(g.row_of(dest) % r, g.col_of(dest)),
                g.transpose_src(piece % r, piece / r));
      EXPECT_EQ(g.transpose_src(piece % r, piece / r), piece);
    }
  }
}

TEST(DistGraph2d, ConservesEveryDirectedEdgeInBothOrientations) {
  const graph::Csr g = make_csr(10);
  const Grid2d grid = Grid2d::make(g.num_vertices(), 16);
  const DistGraph2d d = DistGraph2d::build(g, grid);
  std::uint64_t td = 0, bu = 0, deg = 0;
  for (const auto& b : d.blocks) {
    td += b.edges();
    bu += b.bu_sources.size();
    EXPECT_TRUE(std::is_sorted(b.keys.begin(), b.keys.end()));
    EXPECT_TRUE(std::is_sorted(b.bu_keys.begin(), b.bu_keys.end()));
    EXPECT_EQ(b.offsets.size(), b.keys.size() + 1);
    EXPECT_EQ(b.bu_offsets.size(), b.bu_keys.size() + 1);
  }
  for (const auto& pd : d.piece_deg)
    for (std::uint64_t x : pd) deg += x;
  EXPECT_EQ(td, g.num_directed_edges());
  EXPECT_EQ(bu, g.num_directed_edges());
  EXPECT_EQ(deg, g.num_directed_edges());
}

TEST(DistGraph2d, BlockMembershipRespectsBands) {
  const graph::Csr g = make_csr(9);
  const Grid2d grid = Grid2d::make(g.num_vertices(), 8);  // 2x4
  const DistGraph2d d = DistGraph2d::build(g, grid);
  for (int i = 0; i < grid.rows(); ++i)
    for (int j = 0; j < grid.cols(); ++j) {
      const auto& b = d.blocks[static_cast<size_t>(grid.rank_at(i, j))];
      for (graph::Vertex u : b.keys)
        EXPECT_EQ(static_cast<int>(u / grid.colband_bits()), j);
      for (graph::Vertex v : b.targets)
        EXPECT_EQ(static_cast<int>(v / grid.band_bits()), i);
      for (graph::Vertex v : b.bu_keys)
        EXPECT_EQ(static_cast<int>(v / grid.band_bits()), i);
      for (graph::Vertex u : b.bu_sources)
        EXPECT_EQ(static_cast<int>(u / grid.colband_bits()), j);
    }
}

// --- col-band delivery plans (exchange2d.hpp) ----------------------------

/// Every Grid2d::make shape of 2..256 nodes x ppn 1, 2, 4 and 8.
std::vector<std::pair<int, int>> plan_shapes() {
  std::vector<std::pair<int, int>> out;
  for (int nodes : {2, 4, 8, 16, 32, 64, 128, 144, 256})
    for (int ppn : {1, 2, 4, 8}) out.emplace_back(nodes, ppn);
  return out;
}

TEST(Bfs2dPlan, RowPlanRunsWhereverItCan) {
  int divisible = 0, rows_picked = 0;
  for (const auto& [nodes, ppn] : plan_shapes()) {
    const Grid2d g = Grid2d::make(1 << 20, nodes * ppn, ppn);
    const bool divides = g.cols() % g.rows() == 0;
    divisible += divides;
    for (int next_dir : {0, 1})
      for (bool fresh : {true, false})
        for (bool degraded : {false, true}) {
          SCOPED_TRACE(std::to_string(nodes) + "x" + std::to_string(ppn) +
                       " next " + std::to_string(next_dir) +
                       (fresh ? " fresh" : "") + (degraded ? " degraded" : ""));
          const BandPlan pl = pick_plan(g, next_dir, fresh, degraded);
          // Never where a partner's row band misses the col band, once a
          // rank has died, or before a bottom-up level whose replicas are
          // stale; always otherwise, given a band to deliver (R > 1).
          const bool can = g.rows() > 1 && divides && !degraded &&
                           (next_dir == 0 || fresh);
          EXPECT_EQ(pl, can ? BandPlan::row : BandPlan::column);
          rows_picked += pl == BandPlan::row;
        }
  }
  // The sweep covers both kinds of grid and both plans.
  EXPECT_GT(divisible, 0);
  EXPECT_LT(divisible, static_cast<int>(plan_shapes().size()));
  EXPECT_GT(rows_picked, 0);
}

TEST(Bfs2dPlan, OneProcessorRowKeepsTheColumnPlan) {
  // A 1 x 2 grid: each rank's col band is its own piece, so the column
  // plan moves nothing before a top-down level, where the row plan would
  // pay a row allgather; before a bottom-up level both run the row leg
  // alone.
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(2), sim::CostParams{}, 1);
  const Grid2d g = Grid2d::make(1 << 12, 2, 1);
  ASSERT_EQ(g.rows(), 1);
  const auto h = rt::coll_model::HierLevel::node;
  const std::uint64_t b = g.piece_bits() / 8;
  for (int next_dir : {0, 1})
    EXPECT_EQ(pick_plan(g, next_dir, true, false), BandPlan::column);
  EXPECT_EQ(plan_ns(c, g, h, BandPlan::column, false, b), 0.0);
  EXPECT_GT(plan_ns(c, g, h, BandPlan::row, true, b), 0.0);
  EXPECT_EQ(plan_ns(c, g, h, BandPlan::column, true, b),
            plan_ns(c, g, h, BandPlan::row, true, b));
}

TEST(Bfs2dPlan, ColumnPlanSavesLessBeforeTopDownThanTheRebuildItCauses) {
  // Before a top-down level the column plan can undercut the row plan
  // (one rank per node, flat collectives), but it leaves the row replicas
  // stale, and the next td -> bu switch rebuilds them with a raw row
  // allgather. At physical alpha, where the 2-D benches run, that rebuild
  // costs more than the column plan saves on a top-down level of raw
  // pieces, over every shape where both plans may run and each hierarchy
  // level. (Under paper scaling the wire is bandwidth-bound and, at one
  // rank per node, the saving exceeds the rebuild: ROADMAP's plan item.)
  using rt::coll_model::HierLevel;
  constexpr std::uint64_t kN = 1ull << 20;
  int checked = 0, column_cheaper = 0;
  for (const auto& [nodes, ppn] : plan_shapes()) {
    const Grid2d g = Grid2d::make(kN, nodes * ppn, ppn);
    if (g.rows() == 1 || g.cols() % g.rows() != 0) continue;
    const std::uint64_t b = g.piece_bits() / 8;
    rt::Cluster c(sim::Topology::xeon_x7550_cluster(nodes), sim::CostParams{},
                  ppn);
    for (HierLevel h : {HierLevel::flat, HierLevel::node, HierLevel::socket}) {
      SCOPED_TRACE(std::to_string(nodes) + "x" + std::to_string(ppn) + " " +
                   rt::coll_model::to_string(h));
      const double column = plan_ns(c, g, h, BandPlan::column, false, b);
      const double row = plan_ns(c, g, h, BandPlan::row, true, b);
      const double rebuild =
          plan_ns(c, g, h, BandPlan::column, true, b) - column;
      EXPECT_LT(row - column, rebuild);
      column_cheaper += column < row;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_GT(column_cheaper, 0);  // the case the rule gives up
}

TEST(Bfs2dPlan, BandSenderIsThePieceTransposePartnerAndHoldsTheBand) {
  std::vector<Grid2d> grids;
  for (const auto& [nodes, ppn] : plan_shapes())
    grids.push_back(Grid2d::make(1 << 16, nodes * ppn, ppn));
  for (const auto& [r, cc] : {std::pair{2, 4}, {4, 4}, {3, 6}, {1, 5}})
    grids.emplace_back(1 << 12, r, cc);
  int checked = 0;
  for (const Grid2d& g : grids) {
    if (g.cols() % g.rows() != 0) continue;
    for (int q = 0; q < g.np(); ++q) {
      const int s = g.transpose_partner(q);
      // q assembles the partner's piece in the piece transpose...
      EXPECT_EQ(g.transpose_dest(s), q);
      // ...and the partner's row band holds q's whole col band.
      const std::uint64_t cb = g.colband_begin(g.col_of(q));
      const std::uint64_t rb = g.band_begin(g.row_of(s));
      EXPECT_LE(rb, cb);
      EXPECT_LE(cb + g.colband_bits(), rb + g.band_bits());
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(Bfs2dPlan, WeakTwoDShapePicksTheRowPlanInBothDirections) {
  // weak_2d: 256 nodes x 4, a 32 x 32 grid over 2^18 vertices (32-byte
  // pieces), node-aware collectives at physical alpha. A row spans 8 nodes
  // and a column 32, so a row allgather plus one band-sized transpose
  // undercuts the piece transpose plus the column allgather.
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(256), sim::CostParams{}, 4);
  const Grid2d g = Grid2d::make(1 << 18, 1024, 4);
  ASSERT_EQ(g.rows(), 32);
  ASSERT_EQ(g.cols(), 32);
  ASSERT_EQ(g.piece_bits() / 8, 32u);
  const auto h = rt::coll_model::HierLevel::node;
  for (int next_dir : {0, 1}) {
    EXPECT_EQ(pick_plan(g, next_dir, true, false), BandPlan::row)
        << "next " << next_dir;
    // The column plan runs the row leg too before a bottom-up level.
    EXPECT_LT(plan_ns(c, g, h, BandPlan::row, true, 32),
              plan_ns(c, g, h, BandPlan::column, next_dir == 1, 32))
        << "next " << next_dir;
  }
}

// --- validation matrix: shape x direction x codec x hier ----------------

struct Variant {
  int scale, nodes, ppn;
  bfs::Direction dir;
  bfs::CodecMode codec;
  rt::coll_model::HierLevel hier;
};

class Bfs2dMatrix : public ::testing::TestWithParam<int> {};

TEST_P(Bfs2dMatrix, ProducesValidTree) {
  using bfs::CodecMode;
  using bfs::Direction;
  using rt::coll_model::HierLevel;
  static const Variant vs[] = {
      {9, 1, 1, Direction::hybrid, CodecMode::off, HierLevel::flat},    // 1x1
      {9, 1, 4, Direction::hybrid, CodecMode::off, HierLevel::flat},    // 2x2
      {10, 2, 4, Direction::hybrid, CodecMode::off, HierLevel::flat},   // 2x4
      {10, 4, 4, Direction::hybrid, CodecMode::gate, HierLevel::node},  // 4x4
      {10, 8, 4, Direction::top_down_only, CodecMode::off,
       HierLevel::node},                                                // 4x8
      {10, 8, 4, Direction::bottom_up_only, CodecMode::gate,
       HierLevel::socket},                                              // 4x8
      {10, 8, 8, Direction::hybrid, CodecMode::force_sparse,
       HierLevel::node},                                                // 8x8
      {10, 8, 8, Direction::hybrid, CodecMode::force_dense,
       HierLevel::socket},                                              // 8x8
  };
  const Variant s = vs[GetParam()];
  const graph::Csr g = make_csr(s.scale);
  const Grid2d grid = Grid2d::make(g.num_vertices(), s.nodes * s.ppn, s.ppn);
  const DistGraph2d d = DistGraph2d::build(g, grid);
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(s.nodes), sim::CostParams{},
                s.ppn);
  Bfs2dOptions o;
  o.direction = s.dir;
  o.codec = s.codec;
  // Pipelining only exists with a decode stage; chunks > 1 with the codec
  // off is a contradictory combination validate() now rejects.
  o.exchange_chunks = s.codec == CodecMode::off ? 1 : 4;
  o.hier = s.hier;

  const graph::Vertex root = first_root(g);
  std::vector<graph::Vertex> parent;
  const Bfs2dResult res = run_bfs_2d(c, d, root, &parent, o);
  const auto v = graph::validate_bfs_tree(g, root, parent);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(res.visited, v.visited);
  EXPECT_GT(res.time_ns, 0.0);
  EXPECT_EQ(res.levels, static_cast<int>(res.directions.size()));
  EXPECT_EQ(res.td_levels + res.bu_levels, res.levels);
  if (s.dir == bfs::Direction::top_down_only) {
    EXPECT_EQ(res.bu_levels, 0);
  }
  if (s.dir == bfs::Direction::bottom_up_only) {
    EXPECT_EQ(res.td_levels, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, Bfs2dMatrix, ::testing::Range(0, 8));

TEST(Bfs2d, MatchesOneDimensionalVisitedSet) {
  const graph::Csr g = make_csr(10, 21);
  const Grid2d grid = Grid2d::make(g.num_vertices(), 16, 8);  // 2x8
  const DistGraph2d d = DistGraph2d::build(g, grid);
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(2), sim::CostParams{}, 8);

  const graph::Vertex root = first_root(g);
  std::vector<graph::Vertex> parent2d;
  run_bfs_2d(c, d, root, &parent2d);
  const graph::BfsTree ref = graph::reference_bfs(g, root);
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(parent2d[v] != graph::kNoVertex,
              ref.reached(static_cast<graph::Vertex>(v)))
        << "vertex " << v;
}

TEST(Bfs2d, Deterministic) {
  const graph::Csr g = make_csr(9);
  const Grid2d grid = Grid2d::make(g.num_vertices(), 8, 4);
  const DistGraph2d d = DistGraph2d::build(g, grid);
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(2), sim::CostParams{}, 4);
  Bfs2dOptions o;
  o.codec = bfs::CodecMode::gate;
  o.exchange_chunks = 2;
  o.hier = rt::coll_model::HierLevel::node;
  const graph::Vertex root = first_root(g);
  std::vector<graph::Vertex> pa, pb;
  const Bfs2dResult a = run_bfs_2d(c, d, root, &pa, o);
  const Bfs2dResult b = run_bfs_2d(c, d, root, &pb, o);
  EXPECT_DOUBLE_EQ(a.time_ns, b.time_ns);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.visited, b.visited);
  EXPECT_EQ(a.directions, b.directions);
  EXPECT_EQ(pa, pb);
}

TEST(Bfs2d, IsolatedRoot) {
  const graph::Csr g = make_csr(9);
  graph::Vertex isolated = graph::kNoVertex;
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v)
    if (g.degree(static_cast<graph::Vertex>(v)) == 0) {
      isolated = static_cast<graph::Vertex>(v);
      break;
    }
  ASSERT_NE(isolated, graph::kNoVertex);
  const Grid2d grid = Grid2d::make(g.num_vertices(), 4, 4);
  const DistGraph2d d = DistGraph2d::build(g, grid);
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(1), sim::CostParams{}, 4);
  std::vector<graph::Vertex> parent;
  const Bfs2dResult res = run_bfs_2d(c, d, isolated, &parent);
  EXPECT_EQ(res.visited, 1u);
  EXPECT_EQ(parent[isolated], isolated);
}

TEST(Bfs2d, RejectsBadShapes) {
  const graph::Csr g = make_csr(9);
  const Grid2d grid = Grid2d::make(g.num_vertices(), 4, 4);
  const DistGraph2d d = DistGraph2d::build(g, grid);
  // Cluster rank count != grid size.
  rt::Cluster c8(sim::Topology::xeon_x7550_cluster(1), sim::CostParams{}, 8);
  EXPECT_THROW(run_bfs_2d(c8, d, 0), std::invalid_argument);
  // ppn does not divide C: a 2x2 grid on ppn=4 leaves rows split.
  rt::Cluster c4(sim::Topology::xeon_x7550_cluster(1), sim::CostParams{}, 4);
  const Grid2d bad(g.num_vertices(), 2, 2);
  const DistGraph2d dbad = DistGraph2d::build(g, bad);
  EXPECT_THROW(run_bfs_2d(c4, dbad, 0), std::invalid_argument);
  // Root out of range.
  EXPECT_THROW(
      run_bfs_2d(c4, d, static_cast<graph::Vertex>(g.num_vertices())),
      std::invalid_argument);
}

TEST(Bfs2d, ExpandSmallerThanOneDAllgather) {
  // The point of 2-D: per-level expand moves a col-band (n/C per rank)
  // instead of the whole bitmap — its per-level cost must be below the 1-D
  // flat-ring exchange of the full frontier.
  const graph::Csr g = make_csr(12, 3);
  const Grid2d grid = Grid2d::make(g.num_vertices(), 64, 8);
  const DistGraph2d d = DistGraph2d::build(g, grid);
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(8),
                sim::CostParams{}.with_paper_cache_scaling(g.num_vertices()),
                8);
  const Bfs2dResult res = run_bfs_2d(c, d, first_root(g));
  EXPECT_GT(res.expand_ns_per_level, 0.0);
  const double one_d =
      rt::coll_model::flat_ring(c, grid.padded() / 8 / 64).total_ns;
  EXPECT_LT(res.expand_ns_per_level, one_d);
}

// --- the row-plan delivery hidden under the level's reduction -----------

/// One `2d.expand` span of a rank's track, or (`rollback`) the recovery
/// span of a crash.
struct ExpandSpan {
  double t0 = 0;
  bool rollback = false;
  bool row = false;
  double hidden_ns = 0;
};

/// Rank `rank`'s expand and recovery spans in track order, which must be
/// start order: a recovery span starts at the crashed level's entry and is
/// recorded when the rollback completes, before the rebuild it runs.
std::vector<ExpandSpan> expand_spans(const obs::Tracer& tr, int rank) {
  std::vector<ExpandSpan> out;
  for (const auto& ev : tr.track(rank)) {
    if (!ev.is_span()) continue;
    if (ev.name == "recovery.rollback") {
      out.push_back({.t0 = ev.ts_ns, .rollback = true});
      continue;
    }
    if (ev.name != "2d.expand") continue;
    constexpr std::string_view kHidden = "\"hidden_ns\":";
    const std::size_t at = ev.args.find(kHidden);
    EXPECT_NE(at, std::string::npos) << ev.args;
    if (at == std::string::npos) continue;
    out.push_back(
        {.t0 = ev.ts_ns,
         .row = ev.args.find("\"plan\":\"row\"") != std::string::npos,
         .hidden_ns =
             std::strtod(ev.args.c_str() + at + kHidden.size(), nullptr)});
  }
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_LE(out[i - 1].t0, out[i].t0) << "rank " << rank << " span " << i;
  return out;
}

/// Run `o` traced on `c` from `root`, check the tree, and return every
/// rank's expand spans.
std::vector<std::vector<ExpandSpan>> traced_spans(rt::Cluster& c,
                                                  const graph::Csr& g,
                                                  const DistGraph2d& d,
                                                  graph::Vertex root,
                                                  const Bfs2dOptions& o,
                                                  Bfs2dResult* res = nullptr) {
  auto tr = std::make_shared<obs::Tracer>(c.nranks(), c.ppn());
  c.set_tracer(tr);
  std::vector<graph::Vertex> parent;
  const Bfs2dResult r = run_bfs_2d(c, d, root, &parent, o);
  c.set_tracer(nullptr);
  const auto v = graph::validate_bfs_tree(g, root, parent);
  EXPECT_TRUE(v.ok) << v.error;
  if (res != nullptr) *res = r;
  std::vector<std::vector<ExpandSpan>> out;
  for (int rank = 0; rank < c.nranks(); ++rank)
    out.push_back(expand_spans(*tr, rank));
  return out;
}

TEST(Bfs2dOverlap, RowPlanLegsHideUnderTheLevelReduction) {
  // 16 nodes x 4 at physical alpha, an 8 x 8 grid, node-aware collectives,
  // codec off: every level's inputs ride the row plan, whose row allgather
  // and band transpose are posted beside the level's stats reduction. Each
  // rank then hides part of them, never more than the reduction took.
  const graph::Csr g = make_csr(12);
  const Grid2d grid = Grid2d::make(g.num_vertices(), 64, 4);
  ASSERT_EQ(grid.rows(), 8);
  const DistGraph2d d = DistGraph2d::build(g, grid);
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(16), sim::CostParams{}, 4);
  const double reduce_ns = rt::coll_model::allreduce_ns(c, c.world());
  Bfs2dOptions o;
  o.hier = rt::coll_model::HierLevel::node;
  Bfs2dResult r;
  const auto spans = traced_spans(c, g, d, first_root(g), o, &r);
  ASSERT_GT(r.levels, 2);
  double hidden_sum = 0;
  for (int rank = 0; rank < c.nranks(); ++rank) {
    ASSERT_EQ(spans[rank].size(), static_cast<std::size_t>(r.levels - 1));
    for (const ExpandSpan& sp : spans[rank]) {
      EXPECT_TRUE(sp.row) << "rank " << rank;
      EXPECT_GT(sp.hidden_ns, 0.0) << "rank " << rank;
      EXPECT_LE(sp.hidden_ns, reduce_ns) << "rank " << rank;
      hidden_sum += sp.hidden_ns;
    }
  }
  // The profile's overlap saving reports exactly what the legs hid.
  EXPECT_NEAR(r.profile_avg.overlap_saved_ns(), hidden_sum / c.nranks(),
              1e-9 * hidden_sum);
}

TEST(Bfs2dOverlap, NothingHidesWhereTheLegsWaitForTheReduction) {
  const graph::Csr g = make_csr(12);
  const graph::Vertex root = first_root(g);
  const auto none_hidden = [](const std::vector<std::vector<ExpandSpan>>& s) {
    int n = 0;
    for (const auto& rank : s)
      for (const ExpandSpan& sp : rank) {
        EXPECT_EQ(sp.hidden_ns, 0.0);
        n += !sp.rollback;
      }
    EXPECT_GT(n, 0);
  };
  Bfs2dOptions hier;
  hier.hier = rt::coll_model::HierLevel::node;

  // A forced codec's wire bytes come out of its trial reduction, so its
  // legs cannot start before the level's stats are reduced.
  const Grid2d sq = Grid2d::make(g.num_vertices(), 64, 4);
  const DistGraph2d dsq = DistGraph2d::build(g, sq);
  rt::Cluster c16(sim::Topology::xeon_x7550_cluster(16), sim::CostParams{},
                  4);
  Bfs2dOptions forced = hier;
  forced.codec = bfs::CodecMode::force_dense;
  none_hidden(traced_spans(c16, g, dsq, root, forced));

  // A 4 x 2 grid (C % R != 0) runs the column plan on every level.
  const Grid2d tall(g.num_vertices(), 4, 2);
  const DistGraph2d dtall = DistGraph2d::build(g, tall);
  rt::Cluster c4(sim::Topology::xeon_x7550_cluster(4), sim::CostParams{}, 2);
  none_hidden(traced_spans(c4, g, dtall, root, hier));

  // After a crash every level waits: the rollback rebuilds by the column
  // plan and a degraded grid keeps it. Before the crash the row plan hid.
  c16.set_fault_injector(std::make_shared<faults::FaultInjector>(
      faults::FaultPlan::parse("crash:rank=5@level=2"), c16.nranks(),
      c16.ppn()));
  Bfs2dResult r;
  const auto spans = traced_spans(c16, g, dsq, root, hier, &r);
  c16.set_fault_injector(nullptr);
  ASSERT_EQ(r.recoveries, 1);
  for (int rank = 0; rank < c16.nranks(); ++rank) {
    if (rank == 5) continue;
    bool after = false;
    int before = 0, later = 0;
    for (const ExpandSpan& sp : spans[rank]) {
      if (sp.rollback) {
        after = true;
        continue;
      }
      if (after) {
        EXPECT_FALSE(sp.row) << "rank " << rank;
        EXPECT_EQ(sp.hidden_ns, 0.0) << "rank " << rank;
        ++later;
      } else {
        EXPECT_GT(sp.hidden_ns, 0.0) << "rank " << rank;
        ++before;
      }
    }
    EXPECT_TRUE(after) << "rank " << rank;
    EXPECT_GT(before, 0) << "rank " << rank;
    EXPECT_GT(later, 0) << "rank " << rank;
  }
}

// --- fault tolerance parity (satellite: checkpoint/adoption) ------------

TEST(Bfs2dFaults, SurvivesSingleRankCrash) {
  const graph::Csr g = make_csr(10, 5);
  const Grid2d grid = Grid2d::make(g.num_vertices(), 16, 4);  // 4x4
  const DistGraph2d d = DistGraph2d::build(g, grid);
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(4), sim::CostParams{}, 4);
  const graph::Vertex root = first_root(g);

  std::vector<graph::Vertex> healthy;
  const Bfs2dResult base = run_bfs_2d(c, d, root, &healthy);

  c.set_fault_injector(std::make_shared<faults::FaultInjector>(
      faults::FaultPlan::parse("crash:rank=2@level=2"), c.nranks(), c.ppn()));
  std::vector<graph::Vertex> parent;
  Bfs2dOptions o;
  o.hier = rt::coll_model::HierLevel::node;
  const Bfs2dResult res = run_bfs_2d(c, d, root, &parent, o);
  c.set_fault_injector(nullptr);

  const auto v = graph::validate_bfs_tree(g, root, parent);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(res.visited, base.visited);
  EXPECT_EQ(res.recoveries, 1);
  EXPECT_EQ(res.ranks_lost, 1);
  EXPECT_GT(res.profile_avg.counters().adoptions, 0u);
  // The rolled-back level re-runs: the wall clock exceeds the healthy run.
  EXPECT_GT(res.time_ns, base.time_ns);
  // The healthy run takes the row plan; the rollback rebuilds the crashed
  // level's inputs by the column plan, and with a rank dead every later
  // level keeps it.
  const auto row = static_cast<int>(BandPlan::row);
  EXPECT_TRUE(
      std::any_of(base.trace.begin(), base.trace.end(),
                  [&](const Level2dTrace& t) { return t.plan == row; }));
  ASSERT_GT(res.trace.size(), 2u);
  for (std::size_t i = 2; i < res.trace.size(); ++i)
    EXPECT_EQ(res.trace[i].plan, static_cast<int>(BandPlan::column))
        << "level " << i;
}

TEST(Bfs2dFaults, RefusesCrashPlanWithoutCheckpointing) {
  const graph::Csr g = make_csr(9);
  const Grid2d grid = Grid2d::make(g.num_vertices(), 4, 4);
  const DistGraph2d d = DistGraph2d::build(g, grid);
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(1), sim::CostParams{}, 4);
  c.set_fault_injector(std::make_shared<faults::FaultInjector>(
      faults::FaultPlan::parse("checkpoint:off,crash:rank=1@level=1"),
      c.nranks(), c.ppn()));
  EXPECT_THROW(run_bfs_2d(c, d, first_root(g)), faults::FaultError);
  c.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace numabfs::bfs2d
