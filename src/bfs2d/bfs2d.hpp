#pragma once
/// \file bfs2d.hpp
/// 2-D partitioned BFS (Buluc & Madduri, arXiv:1104.4518) as a first-class
/// peer of the 1-D hybrid: direction-optimizing level loop, the PR-4 codec
/// gate and K-chunk pipelining on every exchange leg, hierarchical
/// row/column collectives (arXiv:1705.04590), fault tolerance via the
/// checkpoint/adoption path, and obs spans through every phase.
///
/// Processors form an R x C grid (rank = i*C + j). Vertices are split into
/// R*C equal pieces; piece g is owned by rank g (row-major), so row-band i
/// = pieces [i*C, (i+1)*C) and col-band j = pieces [j*R, (j+1)*R). The
/// adjacency matrix is blocked: rank (i,j) stores the edges from col-band j
/// into row-band i. One level runs as:
///   1. *inputs*: every member of column j assembles the col-band frontier
///      bitmap of col-band j (O(n/C) per rank — the volume law that beats
///      the 1-D allgather's O(n) at scale), by one of two plans
///      (exchange2d.hpp):
///      - *column*: the owner of piece g sends it to the column member that
///        assembles slot g%R of col-band g/R (the piece transpose), and an
///        allgather along each processor column completes the band;
///      - *row* (whenever C % R == 0 and R > 1, until a rank dies): an
///        allgather along each processor row gives every member its row
///        band's frontier, and each rank's piece-transpose partner, whose
///        row band holds the rank's whole col band, sends it its R pieces
///        (the band transpose);
///      level 0's inputs are the root alone, set locally by its column;
///   2. *local scan*: top-down walks the frontier's groups; bottom-up walks
///      the unvisited row-band targets probing the col-band bitmap through
///      its Fig. 8 summary;
///   3. *fold*: (child, parent) claims are routed along the processor row
///      to the child's owner, which deduplicates against `visited`;
///   4. *row replicas*: the row allgather (on every row-plan level, and
///      before a bottom-up level under the column plan) ORs the new
///      frontier pieces into every member's row-band visited replica, so
///      the bottom-up scan can skip settled targets.
/// With ppn | C, a row spans C/ppn whole nodes and a column touches one
/// rank per node — rows intra-node, columns inter-node, the layout the
/// paper's NUMA optimizations compose with, and the reason the row plan's
/// allgather over C/ppn nodes undercuts the column's over R nodes.

#include <cstdint>
#include <vector>

#include "bfs/config.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "numasim/phase_profile.hpp"
#include "runtime/cluster.hpp"
#include "runtime/coll_model.hpp"

namespace numabfs::bfs2d {

/// Rectangular R x C processor grid over the cluster's ranks and the
/// conformal vertex distribution (piece g -> rank g, row-major).
class Grid2d {
 public:
  /// Explicit shape; vertices are padded so every piece is word-aligned.
  Grid2d(std::uint64_t n, int rows, int cols);

  /// Choose the most-square R x C factorization of `np` whose column count
  /// is a multiple of `ppn` (so rows span whole nodes and columns touch one
  /// rank per node). Throws std::invalid_argument naming the nearest valid
  /// rank counts when `np` admits no such grid.
  static Grid2d make(std::uint64_t n, int np, int ppn = 1);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int np() const { return rows_ * cols_; }
  std::uint64_t n() const { return n_; }
  std::uint64_t padded() const { return padded_; }
  std::uint64_t piece_bits() const {
    return padded_ / static_cast<std::uint64_t>(np());
  }
  std::uint64_t band_bits() const { return piece_bits() * cols_; }  ///< row
  std::uint64_t colband_bits() const { return piece_bits() * rows_; }

  int row_of(int rank) const { return rank / cols_; }
  int col_of(int rank) const { return rank % cols_; }
  int rank_at(int i, int j) const { return i * cols_ + j; }

  /// Owner of vertex v: piece index == rank (row-major distribution).
  int owner(std::uint64_t v) const {
    return static_cast<int>(v / piece_bits());
  }
  std::uint64_t piece_begin(int rank) const {
    return static_cast<std::uint64_t>(rank) * piece_bits();
  }
  std::uint64_t band_begin(int i) const {
    return static_cast<std::uint64_t>(i) * band_bits();
  }
  std::uint64_t colband_begin(int j) const {
    return static_cast<std::uint64_t>(j) * colband_bits();
  }

  /// The column member that assembles piece `g` (= rank g) for the expand:
  /// slot g % R of col-band g / R.
  int transpose_dest(int g) const {
    return (g % rows_) * cols_ + g / rows_;
  }
  /// The piece assembled at slot `k` of column `j`'s col-band.
  int transpose_src(int k, int j) const { return j * rows_ + k; }
  /// The rank whose piece `rank` assembles in the piece transpose: piece
  /// j*R + i, its own slot's origin. When C % R == 0 that rank's row band
  /// holds all of col-band j, so under the row plan it sends the band.
  int transpose_partner(int rank) const {
    return transpose_src(row_of(rank), col_of(rank));
  }

 private:
  std::uint64_t n_;
  int rows_;
  int cols_;
  std::uint64_t padded_;
};

/// Rank (i,j)'s matrix block: edges u (in col-band j) -> v (in row-band i),
/// stored in both orientations — by source for top-down scans, by target
/// for bottom-up probes.
struct Block2d {
  std::vector<graph::Vertex> keys;      ///< distinct sources, ascending
  std::vector<std::uint64_t> offsets;   ///< size keys+1
  std::vector<graph::Vertex> targets;   ///< children in row-band i

  std::vector<graph::Vertex> bu_keys;     ///< distinct targets, ascending
  std::vector<std::uint64_t> bu_offsets;  ///< size bu_keys+1
  std::vector<graph::Vertex> bu_sources;  ///< parents in col-band j

  std::uint64_t edges() const { return targets.size(); }
};

/// The distributed 2-D graph: one block per rank, plus each piece's global
/// degrees (for the direction heuristic and traversed-edge accounting).
struct DistGraph2d {
  Grid2d grid;
  std::uint64_t directed_edges = 0;
  std::vector<Block2d> blocks;
  /// piece_deg[rank][off] = degree of vertex piece_begin(rank) + off.
  std::vector<std::vector<std::uint64_t>> piece_deg;
  /// Sum of the piece's degrees (the partition's share of Eq. (1)'s m).
  std::vector<std::uint64_t> owned_edges;
  /// The largest vertex degree. Beamer's first-level test grows with the
  /// root's degree, so when this one would start top-down every root does.
  std::uint64_t max_degree = 0;

  /// Block `g` over `grid`, row bands spread over the executor pool.
  /// Throws std::invalid_argument when the grid and the CSR disagree on
  /// the vertex count. Must not be called from inside a rank.
  static DistGraph2d build(const graph::Csr& g, const Grid2d& grid);
};

struct Bfs2dOptions {
  bfs::Direction direction = bfs::Direction::hybrid;
  double alpha = 14.0;  ///< td -> bu when mf > rem / alpha (Beamer)
  double beta = 24.0;   ///< bu -> td when nf < n / beta
  /// Exchange codec (DESIGN.md §10) applied to the frontier pieces on every
  /// input leg and to the fold's claim lists.
  bfs::CodecMode codec = bfs::CodecMode::off;
  int exchange_chunks = 1;  ///< K-chunk wire/decode pipelining
  /// Hierarchy level of the row and column allgathers and row alltoallv.
  rt::coll_model::HierLevel hier = rt::coll_model::HierLevel::flat;
  std::uint64_t summary_granularity = 64;  ///< col-band summary (Fig. 8)

  /// Validate invariants (same contradictory-combo rules as bfs::Config);
  /// returns an actionable error message or empty. run_bfs_2d calls this
  /// and throws std::invalid_argument on a non-empty result.
  std::string validate() const;
};

/// Per-level record of what the 2-D loop measured (summed over ranks),
/// mirroring the 1-D LevelTrace for the volume-law property tests.
struct Level2dTrace {
  int level = 0;
  int direction = 0;  ///< 0 = top-down, 1 = bottom-up
  std::uint64_t frontier_vertices = 0;
  std::uint64_t discovered = 0;
  /// graph::codec::Kind of the gate on the pieces that built this level's
  /// inputs; -1 at level 0, whose inputs are seeded without an exchange.
  int expand_codec = -1;
  /// BandPlan that built this level's inputs: 0 column, 1 row, -1 none.
  int plan = -1;
  /// The legs that built this level's inputs (the row leg and a replica
  /// rebuild in return_*), then the level's own fold.
  std::uint64_t transpose_wire_bytes = 0, transpose_raw_bytes = 0;
  std::uint64_t expand_wire_bytes = 0, expand_raw_bytes = 0;
  std::uint64_t fold_wire_bytes = 0, fold_raw_bytes = 0;
  std::uint64_t return_wire_bytes = 0, return_raw_bytes = 0;

  std::uint64_t wire_bytes() const {
    return transpose_wire_bytes + expand_wire_bytes + fold_wire_bytes +
           return_wire_bytes;
  }
  std::uint64_t wire_raw_bytes() const {
    return transpose_raw_bytes + expand_raw_bytes + fold_raw_bytes +
           return_raw_bytes;
  }
};

struct Bfs2dResult {
  double time_ns = 0;
  std::uint64_t visited = 0;
  int levels = 0;
  int td_levels = 0;
  int bu_levels = 0;
  std::vector<int> directions;
  std::uint64_t traversed_directed_edges = 0;
  int recoveries = 0;  ///< checkpoint rollbacks performed
  int ranks_lost = 0;  ///< ranks dead at the end
  sim::PhaseProfile profile_avg;  ///< times averaged, counters summed
  sim::PhaseProfile profile_max;
  std::vector<Level2dTrace> trace;
  /// Mean time of one col-band delivery leg — the column allgather, or
  /// under the row plan the band transpose — over every rank and input
  /// build that ran one (level 0 runs none, and under the row plan a rank
  /// that is its own transpose partner receives no band), at its full
  /// modeled time even where the level's reduction hid it; and of one fold
  /// (row exchange) per level.
  double expand_ns_per_level = 0;
  double fold_ns_per_level = 0;

  /// Graph500 TEPS: undirected edges traversed over the modeled duration.
  double teps() const {
    return time_ns > 0 ? static_cast<double>(traversed_directed_edges) / 2.0 /
                             (time_ns * 1e-9)
                       : 0.0;
  }
};

/// Run one 2-D BFS. `c` must have nranks == grid.np() and its ppn must
/// divide the grid's column count. Honors the cluster's fault injector
/// (level-boundary checkpoints, crash adoption) and tracer. Returns the
/// result and fills `parent_out` (size grid.n()) for validation.
Bfs2dResult run_bfs_2d(rt::Cluster& c, const DistGraph2d& dg,
                       graph::Vertex root,
                       std::vector<graph::Vertex>* parent_out = nullptr,
                       const Bfs2dOptions& opt = {});

}  // namespace numabfs::bfs2d
