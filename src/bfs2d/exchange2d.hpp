#pragma once
/// \file exchange2d.hpp
/// The 2-D decomposition's communication legs behind the unified
/// FrontierExchange interface (DESIGN.md §13). All traversal state lives in
/// `State2d` — plain host-side vectors indexed by partition, visible to
/// every rank (the simulated address spaces are private by
/// convention); barriers separate the write and read phases exactly like
/// the 1-D exchanges.
///
/// Leg inventory per level (square brackets: the codec-gated ones):
///   [transpose]    p2p: piece g -> column member assembling slot g % R
///   [expand]       column allgather of R wire pieces (hier_subgroup_*)
///   [fold]         row alltoallv of (child, parent) claims (hier_alltoallv)
///   [claim-return] row allgather of the new frontier pieces, bottom-up only
/// The transpose and expand share one gate decision (the same pieces ride
/// both), the fold codes each claim list that its encoding shrinks, like
/// the 1-D sparse exchange, and the claim-return gates independently
/// (post-fold pieces).

#include <cstdint>
#include <span>
#include <vector>

#include "bfs/costs.hpp"
#include "bfs/exchange.hpp"
#include "bfs2d/bfs2d.hpp"
#include "graph/bitmap.hpp"
#include "graph/summary.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::bfs2d {

/// Per-partition traversal state of one 2-D BFS run.
struct State2d {
  State2d(const DistGraph2d& dg, std::uint64_t summary_granularity);

  // Owned piece state (indexed by partition == piece).
  std::vector<graph::Bitmap> frontier;  ///< current level's frontier piece
  std::vector<graph::Bitmap> next;      ///< claims accepted this level
  std::vector<graph::Bitmap> visited;
  std::vector<std::vector<graph::Vertex>> pred;
  std::vector<std::uint64_t> unvisited_edges;

  // Col-band replica (the expand target) + its Fig. 8 summary.
  std::vector<graph::Bitmap> colband;
  std::vector<graph::Summary> colband_summary;

  // Row-band visited replica for bottom-up target skipping, refreshed by
  // the claim-return leg (or rebuilt from `visited` on a td -> bu switch).
  std::vector<graph::Bitmap> row_visited;

  // Fold outboxes: out_children[q][k] / out_parents[q][k] are the claims
  // partition q routes to column k of its row (parallel arrays).
  std::vector<std::vector<std::vector<graph::Vertex>>> out_children;
  std::vector<std::vector<std::vector<graph::Vertex>>> out_parents;

  // Codec scratch, per gated leg.
  std::vector<std::vector<std::uint8_t>> enc_piece;  ///< transpose/expand
  std::vector<std::vector<std::uint8_t>> enc_ret;    ///< claim-return
  std::vector<std::vector<std::vector<std::uint8_t>>> enc_fold;  ///< [q][k]
};

/// What the fold leg moved and discovered (per calling rank).
struct FoldStats {
  std::uint64_t wire_bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t discovered = 0;        ///< claims accepted at owned parts
  std::uint64_t discovered_edges = 0;  ///< their degree sum (Beamer's mf)
};

/// Per-level wire accounting of every 2-D leg, split so the volume-law
/// property tests can pin each one. Filled by the legs of one TwoDExchange
/// call; the level loop snapshots and resets it.
struct LegBytes {
  std::uint64_t transpose_wire = 0, transpose_raw = 0;
  std::uint64_t expand_wire = 0, expand_raw = 0;
  std::uint64_t fold_wire = 0, fold_raw = 0;
  std::uint64_t ret_wire = 0, ret_raw = 0;
  int expand_codec = 0;  ///< graph::codec::Kind of the transpose/expand gate
};

/// One rank's view of the 2-D exchange. SPMD: every live rank constructs
/// its own instance and calls the legs in lockstep.
class TwoDExchange final : public bfs::FrontierExchange {
 public:
  TwoDExchange(const DistGraph2d& dg, State2d& st,
               std::span<const bfs::UnitCosts> costs, const Bfs2dOptions& opt)
      : dg_(dg), st_(st), costs_(costs), opt_(opt) {}

  const char* name() const override { return "2d"; }

  /// Build the col-band frontier inputs for a level about to run `dir`:
  /// codec-gated transpose + hierarchical column expand, plus the summary
  /// rebuild when the level is bottom-up. `frontier_bits` is the number of
  /// bits set over every frontier piece (the gate's popcount). Re-entrant:
  /// crash recovery calls it again after restoring the level-start
  /// frontier.
  bfs::ExchangeLevelStats build_inputs(rt::Proc& p, int dir,
                                       std::uint64_t frontier_bits,
                                       std::span<const int> parts);

  /// Route this level's claims along the rows and dedup at the owners
  /// (the communication tail of the level's kernel).
  FoldStats fold(rt::Proc& p, int dir, std::span<const int> parts);

  /// FrontierExchange: advance the frontier, refresh the row-band visited
  /// replicas when the next level is bottom-up (claim-return, or the full
  /// rebuild on a td -> bu switch), then build_inputs for `next_dir`.
  bfs::ExchangeLevelStats exchange(rt::Proc& p, int cur_dir, int next_dir,
                                   std::uint64_t nf,
                                   std::span<const int> parts) override;

  LegBytes& legs() { return legs_; }
  void reset_legs() { legs_ = LegBytes{}; }
  double last_expand_ns() const { return last_expand_ns_; }
  double last_fold_ns() const { return last_fold_ns_; }

 private:
  const DistGraph2d& dg_;
  State2d& st_;
  std::span<const bfs::UnitCosts> costs_;
  const Bfs2dOptions& opt_;
  LegBytes legs_;
  double last_expand_ns_ = 0;
  double last_fold_ns_ = 0;
  /// Are all row_visited replicas current? True after a claim-return,
  /// false once a level's claims were folded without one (top-down next).
  /// Toggled identically on every rank (pure function of the direction
  /// history), so the td -> bu switch rebuild is SPMD-consistent.
  bool rows_fresh_ = true;
  // decode scratch (fold lists, claim-return pieces)
  std::vector<graph::Vertex> dec_children_;
  std::vector<graph::Vertex> dec_parents_;
  std::vector<std::uint64_t> dec_piece_;
};

}  // namespace numabfs::bfs2d
