/// Property tests pinning the 2-D decomposition's communication-volume laws
/// (DESIGN.md §13). The byte counts in Level2dTrace are exact functions of
/// the grid shape and of the plan that built each level's inputs, so any
/// regression in the transpose/expand/fold/row paths shows up as a broken
/// conservation law rather than a flaky perf number:
///   - level 0's inputs are seeded locally: no plan, no input bytes;
///   - a column-plan level: expand (column allgather) raw bytes ==
///     np * (R-1) * piece_bytes — per-rank volume O(n/C), the term that
///     beats the 1-D allgather's O(n) — transpose raw == piece_bytes *
///     (np - #fixed points of the transpose map), and row raw ==
///     np * (C-1) * piece_bytes when the level is bottom-up, else 0;
///   - a row-plan level (only when C % R == 0): transpose raw == R *
///     piece_bytes * (np - #fixed points) — each rank's whole col band from
///     its transpose partner — expand raw == 0, and row raw ==
///     np * (C-1) * piece_bytes;
///   - with the codec off, wire == raw on every leg.
/// And the cross-shape invariant: nf/mf/rem are global allreduced sums, so
/// the direction history — hence visited set, level count, and parents'
/// validity — cannot depend on the grid shape, the codec, the collective
/// hierarchy, or the plans.

#include "bfs2d/bfs2d.hpp"

#include <gtest/gtest.h>

#include <set>

#include "bfs2d/exchange2d.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "numasim/topology.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::bfs2d {
namespace {

graph::Csr make_csr(int scale, std::uint64_t seed = 13) {
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

int transpose_fixed_points(const Grid2d& g) {
  int fixed = 0;
  for (int p = 0; p < g.np(); ++p)
    if (g.transpose_dest(p) == p) ++fixed;
  return fixed;
}

struct Shape {
  int nodes, ppn, rows, cols;
};

// Grid shapes spanning square, wide, tall, and multi-node rows. Where
// C % R == 0 every level after the first takes the row plan, elsewhere
// the column plan.
const Shape kShapes[] = {
    {4, 4, 4, 4},   // square, rows span one node
    {2, 4, 2, 4},   // wide
    {4, 2, 4, 2},   // tall (C == ppn): the column plan only
    {4, 4, 2, 8},   // wide, rows span two nodes
    {16, 1, 4, 4},  // square, one rank per node: every band crosses nodes
};

void check_volume_laws(const Bfs2dResult& r, const Grid2d& g,
                       bool codec_off) {
  const std::uint64_t piece_bytes = g.piece_bits() / 8;
  const std::uint64_t np = static_cast<std::uint64_t>(g.np());
  const auto R = static_cast<std::uint64_t>(g.rows());
  const auto C = static_cast<std::uint64_t>(g.cols());
  const std::uint64_t movers =
      np - static_cast<std::uint64_t>(transpose_fixed_points(g));
  for (size_t i = 0; i < r.trace.size(); ++i) {
    const Level2dTrace& lt = r.trace[i];
    SCOPED_TRACE("level " + std::to_string(lt.level));
    if (i == 0) {
      // The root seeds level 0's inputs: no plan, no gate, no input bytes.
      EXPECT_EQ(lt.plan, -1);
      EXPECT_EQ(lt.expand_codec, -1);
      EXPECT_EQ(lt.transpose_wire_bytes + lt.expand_wire_bytes +
                    lt.return_wire_bytes,
                0u);
      EXPECT_EQ(lt.transpose_raw_bytes + lt.expand_raw_bytes +
                    lt.return_raw_bytes,
                0u);
    } else if (lt.plan == static_cast<int>(BandPlan::row)) {
      EXPECT_EQ(C % R, 0u);
      EXPECT_EQ(lt.transpose_raw_bytes, movers * R * piece_bytes);
      EXPECT_EQ(lt.expand_raw_bytes, 0u);
      EXPECT_EQ(lt.return_raw_bytes, np * (C - 1) * piece_bytes);
    } else {
      EXPECT_EQ(lt.plan, static_cast<int>(BandPlan::column));
      EXPECT_EQ(lt.transpose_raw_bytes, movers * piece_bytes);
      EXPECT_EQ(lt.expand_raw_bytes, np * (R - 1) * piece_bytes);
      // The row allgather (or the replica rebuild) runs exactly when the
      // level is bottom-up.
      EXPECT_EQ(lt.return_raw_bytes,
                lt.direction == 1 ? np * (C - 1) * piece_bytes : 0u);
    }
    if (codec_off) {
      EXPECT_EQ(lt.expand_wire_bytes, lt.expand_raw_bytes);
      EXPECT_EQ(lt.transpose_wire_bytes, lt.transpose_raw_bytes);
      EXPECT_EQ(lt.fold_wire_bytes, lt.fold_raw_bytes);
      EXPECT_EQ(lt.return_wire_bytes, lt.return_raw_bytes);
    } else {
      // The fold gate is byte-based: coded only when strictly smaller.
      EXPECT_LE(lt.fold_wire_bytes, lt.fold_raw_bytes);
    }
  }
}

TEST(Bfs2dVolume, ExpandFollowsTheColBandLawAcrossShapes) {
  const graph::Csr g = make_csr(10);
  const graph::Vertex root = first_root(g);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(std::to_string(s.rows) + "x" + std::to_string(s.cols));
    const Grid2d grid(g.num_vertices(), s.rows, s.cols);
    const DistGraph2d d = DistGraph2d::build(g, grid);
    rt::Cluster c(sim::Topology::xeon_x7550_cluster(s.nodes),
                  sim::CostParams{}, s.ppn);
    for (bool codec : {false, true}) {
      Bfs2dOptions o;
      o.codec = codec ? bfs::CodecMode::gate : bfs::CodecMode::off;
      o.exchange_chunks = codec ? 2 : 1;
      o.hier = codec ? rt::coll_model::HierLevel::node
                     : rt::coll_model::HierLevel::flat;
      const Bfs2dResult r = run_bfs_2d(c, d, root, nullptr, o);
      ASSERT_GT(r.levels, 1);
      check_volume_laws(r, grid, /*codec_off=*/!codec);
    }
  }
}

TEST(Bfs2dVolume, PerRankExpandShrinksWithTheColumnCount) {
  // The law itself: total expand volume is np*(R-1)*piece = (R-1)/R * n/8
  // per rank-level... so the PER-RANK share (R-1)*piece_bytes ~ n/C falls
  // as the grid widens, while the 1-D equivalent stays (np-1)*n/np ~ n.
  const graph::Csr g = make_csr(10);
  const Grid2d tall(g.num_vertices(), 8, 2);
  const Grid2d wide(g.num_vertices(), 2, 8);
  const std::uint64_t per_rank_tall =
      static_cast<std::uint64_t>(tall.rows() - 1) * tall.piece_bits() / 8;
  const std::uint64_t per_rank_wide =
      static_cast<std::uint64_t>(wide.rows() - 1) * wide.piece_bits() / 8;
  EXPECT_LT(per_rank_wide, per_rank_tall);
  const std::uint64_t one_d = (16 - 1) * (tall.padded() / 16) / 8;
  EXPECT_LT(per_rank_wide, one_d);
  // And the measured trace agrees with the closed form on every level
  // after the first (level 0's inputs are seeded without an exchange).
  // Either plan lands R pieces per rank: the column plan R-1 of them by
  // the expand (the closed form) and one by the piece transpose, the row
  // plan all R by the band transpose to every rank that is not its own
  // transpose partner.
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(4), sim::CostParams{}, 4);
  const DistGraph2d d = DistGraph2d::build(g, wide);
  const Bfs2dResult r = run_bfs_2d(c, d, first_root(g));
  ASSERT_GT(r.trace.size(), 1u);
  const auto movers =
      static_cast<std::uint64_t>(16 - transpose_fixed_points(wide));
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    const Level2dTrace& lt = r.trace[i];
    SCOPED_TRACE("level " + std::to_string(i));
    if (lt.plan == static_cast<int>(BandPlan::column))
      EXPECT_EQ(lt.expand_raw_bytes / 16, per_rank_wide);
    else
      EXPECT_EQ(lt.transpose_raw_bytes / movers,
                per_rank_wide + wide.piece_bits() / 8);
  }
}

TEST(Bfs2dInvariance, ResultsIdenticalAcrossShapesCodecAndHierarchy) {
  const graph::Csr g = make_csr(10, 99);
  const graph::Vertex root = first_root(g);

  std::vector<graph::Vertex> ref_parent;
  std::vector<int> ref_directions;
  std::uint64_t ref_visited = 0;
  bool have_ref = false;
  // (plan, C % R == 0) of every level after the first, over all runs.
  std::set<std::pair<int, bool>> plans;

  for (const Shape& s : kShapes) {
    const Grid2d grid(g.num_vertices(), s.rows, s.cols);
    const DistGraph2d d = DistGraph2d::build(g, grid);
    rt::Cluster c(sim::Topology::xeon_x7550_cluster(s.nodes),
                  sim::CostParams{}, s.ppn);
    for (int mode = 0; mode < 3; ++mode) {
      SCOPED_TRACE(std::to_string(s.rows) + "x" + std::to_string(s.cols) +
                   " mode " + std::to_string(mode));
      Bfs2dOptions o;
      if (mode >= 1) {
        o.codec = bfs::CodecMode::gate;
        o.exchange_chunks = 4;
      }
      if (mode == 2) o.hier = rt::coll_model::HierLevel::node;
      std::vector<graph::Vertex> parent;
      const Bfs2dResult r = run_bfs_2d(c, d, root, &parent, o);
      const auto v = graph::validate_bfs_tree(g, root, parent);
      ASSERT_TRUE(v.ok) << v.error;
      for (std::size_t i = 1; i < r.trace.size(); ++i)
        plans.emplace(r.trace[i].plan, s.cols % s.rows == 0);
      if (!have_ref) {
        ref_parent = parent;
        ref_directions = r.directions;
        ref_visited = r.visited;
        have_ref = true;
        // The hybrid must actually exercise both kernels for this test to
        // mean anything.
        EXPECT_GT(r.td_levels, 0);
        EXPECT_GT(r.bu_levels, 0);
        continue;
      }
      // nf/mf/rem are global sums: the Beamer history cannot depend on the
      // shape, the codec, or the collective hierarchy...
      EXPECT_EQ(r.directions, ref_directions);
      EXPECT_EQ(r.visited, ref_visited);
      // ...and neither can the tree's reachability (parents may differ only
      // if tie-breaking differed — it must not, the claim order is fixed).
      EXPECT_EQ(parent, ref_parent);
    }
  }
  // The shapes cover both plans: the row plan wherever it can run, the
  // column plan where it cannot.
  const int row = static_cast<int>(BandPlan::row);
  const int column = static_cast<int>(BandPlan::column);
  EXPECT_TRUE(plans.count({row, true}));
  EXPECT_FALSE(plans.count({row, false}));
  EXPECT_TRUE(plans.count({column, false}));
  EXPECT_FALSE(plans.count({column, true}));
}

TEST(Bfs2dInvariance, ForcedCodecsKeepTheRawEquivalentLaw) {
  // Forcing a codec changes the wire bytes (encodings carry headers) but
  // never the raw-equivalent accounting: the volume law stays exact, so
  // compression ratios computed from the trace remain meaningful.
  const graph::Csr g = make_csr(9);
  const Grid2d grid(g.num_vertices(), 4, 4);
  const DistGraph2d d = DistGraph2d::build(g, grid);
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(4), sim::CostParams{}, 4);
  const std::uint64_t piece_bytes = grid.piece_bits() / 8;
  const auto np = static_cast<std::uint64_t>(grid.np());
  const std::uint64_t expand_law = np * (grid.rows() - 1) * piece_bytes;
  const std::uint64_t band_law =
      (np - static_cast<std::uint64_t>(transpose_fixed_points(grid))) *
      grid.rows() * piece_bytes;
  const std::uint64_t row_law = np * (grid.cols() - 1) * piece_bytes;
  for (bfs::CodecMode m :
       {bfs::CodecMode::force_sparse, bfs::CodecMode::force_dense}) {
    Bfs2dOptions o;
    o.codec = m;
    const Bfs2dResult r = run_bfs_2d(c, d, first_root(g), nullptr, o);
    ASSERT_GT(r.trace.size(), 1u);
    // Level 0's inputs are seeded locally; every later level's ride coded.
    for (std::size_t i = 1; i < r.trace.size(); ++i) {
      const Level2dTrace& lt = r.trace[i];
      SCOPED_TRACE("level " + std::to_string(i));
      if (lt.plan == static_cast<int>(BandPlan::row)) {
        EXPECT_EQ(lt.transpose_raw_bytes, band_law);
        EXPECT_GT(lt.transpose_wire_bytes, 0u);
        EXPECT_EQ(lt.return_raw_bytes, row_law);
        EXPECT_GT(lt.return_wire_bytes, 0u);
      } else {
        EXPECT_EQ(lt.expand_raw_bytes, expand_law);
        EXPECT_GT(lt.expand_wire_bytes, 0u);
      }
    }
  }
}

TEST(Bfs2dVolume, FoldMovesWholeClaimPairs) {
  // Fold raw bytes come in whole (child, parent) pairs — 8 bytes each with
  // 32-bit vertices (own-column claims never ride the wire, so the count is
  // at most the cross-column claims) — and every level's discoveries sum to
  // the visited count.
  const graph::Csr g = make_csr(10);
  const Grid2d grid(g.num_vertices(), 4, 4);
  const DistGraph2d d = DistGraph2d::build(g, grid);
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(4), sim::CostParams{}, 4);
  const Bfs2dResult r = run_bfs_2d(c, d, first_root(g));
  std::uint64_t discovered = 1;  // the root
  bool any_fold_bytes = false;
  for (const Level2dTrace& lt : r.trace) {
    EXPECT_EQ(lt.fold_raw_bytes % (2 * sizeof(graph::Vertex)), 0u);
    any_fold_bytes |= lt.fold_raw_bytes > 0;
    discovered += lt.discovered;
  }
  EXPECT_TRUE(any_fold_bytes);
  EXPECT_EQ(discovered, r.visited);
}

}  // namespace
}  // namespace numabfs::bfs2d
