#pragma once
/// \file exchange2d.hpp
/// The 2-D decomposition's communication legs, the counterpart of the
/// 1-D hybrid's bfs::OneDExchange (DESIGN.md §13). All traversal state
/// lives in `State2d` — plain host-side vectors indexed by partition,
/// visible to every rank (the simulated address spaces are private by
/// convention); barriers separate the write and read phases exactly like
/// the 1-D exchanges.
///
/// Leg inventory per level (square brackets: the codec-gated ones). The
/// col-band inputs of the next level are built by one of two plans, picked
/// per level by a structural rule (pick_plan):
///   column plan
///     [transpose]  p2p: piece g -> column member assembling slot g % R
///     [expand]     column allgather of R wire pieces (hier_subgroup_*)
///     [row]        row allgather of the new frontier pieces, OR-ed into the
///                  row-band visited replicas; only when the next level is
///                  bottom-up (the claim-return)
///   row plan (wherever it can run: C % R == 0, R > 1, no rank dead)
///     [row]        the same row allgather, at every level
///     [band]       p2p: each rank's piece-transpose partner, whose row band
///                  holds the rank's whole col band, sends its R pieces
/// and on every level
///     [fold]       row alltoallv of (child, parent) claims (hier_alltoallv)
/// One gate decision per level covers every leg the frontier pieces ride;
/// the fold codes each claim list that its encoding shrinks, like the 1-D
/// sparse exchange. Level 0's inputs are the root alone, which every rank
/// knows, so the level loop seeds them locally and runs no plan.
///
/// The row plan's two legs carry the fold's output whatever the next
/// direction, so when the gate's pick needs no popcount either (codec off,
/// or a raw pick even popcount 0 forces: GateResult::popcount_free) they are
/// modeled as posted beside the level's stats reduction: each rank pays
/// max(0, its wire legs - the reduction's latency) after it. The column
/// plan, forced codecs and gate levels that may run a trial wait for the
/// reduction, and local passes (the frontier swap, the OR into the row
/// replicas, the summary rebuild) are charged after it in every case.

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
  // the row leg (or rebuilt from `visited` on a td -> bu switch).
  std::vector<graph::Bitmap> row_visited;

  // Fold outboxes: out_children[q][k] / out_parents[q][k] are the claims
  // partition q routes to column k of its row (parallel arrays).
  std::vector<std::vector<std::vector<graph::Vertex>>> out_children;
  std::vector<std::vector<std::vector<graph::Vertex>>> out_parents;

  // Codec scratch: the frontier piece as every input leg carries it, and
  // the fold's claim lists.
  std::vector<std::vector<std::uint8_t>> enc_piece;
  std::vector<std::vector<std::vector<std::uint8_t>>> enc_fold;  ///< [q][k]
};

/// What the fold leg moved and discovered (per calling rank).
struct FoldStats {
  std::uint64_t wire_bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t discovered = 0;        ///< claims accepted at owned parts
  std::uint64_t discovered_edges = 0;  ///< their degree sum (Beamer's mf)
};

/// How a level's col-band inputs are delivered.
enum class BandPlan : int {
  column = 0,  ///< piece transpose + column allgather (+ row allgather)
  row = 1,     ///< row allgather + band transpose from the transpose partner
};
const char* to_string(BandPlan b);

/// The plan that builds the inputs of a level about to run `next_dir`: the
/// row plan wherever it can run, the column plan otherwise. The row plan
/// needs a col band to deliver (R > 1) that each transpose partner's row
/// band holds whole (C % R == 0), every rank alive (not `degraded`), and,
/// before a bottom-up level, row replicas its row leg keeps current
/// (`rows_fresh`; stale ones are rebuilt from the visited pieces under the
/// column plan). Taking the row plan on every level keeps the replicas
/// current, so the td -> bu rebuild never fires.
BandPlan pick_plan(const Grid2d& g, int next_dir, bool rows_fresh,
                   bool degraded);

/// Modeled wire time of `plan`'s legs for frontier pieces of `chunk_bytes`
/// on the wire, with the coll_model terms that charge them: a transpose is
/// one NIC message among the node's ppn flows, a row or column allgather
/// is hier_subgroup_allgather over its shape. `row_leg`: the plan runs the
/// row allgather (the row plan always does; the column plan before a
/// bottom-up level whose replicas are current). The codec gate prices the
/// picked plan with it.
double plan_ns(const rt::Cluster& c, const Grid2d& g,
               rt::coll_model::HierLevel hier, BandPlan plan, bool row_leg,
               std::uint64_t chunk_bytes);

/// Per-level wire accounting of every 2-D leg, split so the volume-law
/// property tests can pin each one. Filled by the legs of one TwoDExchange
/// call; the level loop snapshots and resets it. Every leg that built a
/// level's inputs counts toward that level, the row leg included.
struct LegBytes {
  std::uint64_t transpose_wire = 0, transpose_raw = 0;  ///< piece or band
  std::uint64_t expand_wire = 0, expand_raw = 0;
  std::uint64_t fold_wire = 0, fold_raw = 0;
  std::uint64_t ret_wire = 0, ret_raw = 0;  ///< row leg or replica rebuild
  int expand_codec = -1;  ///< graph::codec::Kind of the gate; -1: no gate
  int plan = -1;          ///< BandPlan that built the inputs; -1: none
};

/// One rank's view of the 2-D exchange. SPMD: every live rank constructs
/// its own instance and calls the legs in lockstep.
class TwoDExchange {
 public:
  TwoDExchange(const DistGraph2d& dg, State2d& st,
               std::span<const bfs::UnitCosts> costs, const Bfs2dOptions& opt)
      : dg_(dg), st_(st), costs_(costs), opt_(opt) {}

  /// Rebuild the col-band frontier inputs of a level about to run `dir`
  /// after a rollback restored its frontier pieces: the codec-gated column
  /// plan, plus the summary rebuild when the level is bottom-up.
  /// `frontier_bits` is the number of bits set over every frontier piece
  /// (the gate's popcount).
  bfs::ExchangeLevelStats build_inputs(rt::Proc& p, int dir,
                                       std::uint64_t frontier_bits,
                                       std::span<const int> parts);

  /// Route this level's claims along the rows and dedup at the owners
  /// (the communication tail of the level's kernel).
  FoldStats fold(rt::Proc& p, int dir, std::span<const int> parts);

  /// The level exchange: advance the frontier, then build the col-band
  /// inputs for `next_dir` by the picked plan (pick_plan), keeping the
  /// row-band visited replicas current when the next level is bottom-up
  /// (the row leg, or the full rebuild on a td -> bu switch). SPMD, with
  /// the arguments of bfs::OneDExchange::exchange plus `reduce_ns`, the
  /// latency the level's stats reduction charged (bfs::Level::reduce_ns):
  /// row-plan wire legs that can be posted beside that reduction hide
  /// under it (see the file comment).
  bfs::ExchangeLevelStats exchange(rt::Proc& p, int cur_dir, int next_dir,
                                   std::uint64_t nf, std::span<const int> parts,
                                   double reduce_ns);

  LegBytes& legs() { return legs_; }
  void reset_legs() { legs_ = LegBytes{}; }
  /// Sum and count of the col-band delivery legs this rank was charged
  /// over its input builds: the column allgather, or under the row plan the
  /// band transpose (none where the rank is its own transpose partner).
  double expand_ns_sum() const { return expand_ns_sum_; }
  int expands() const { return expands_; }
  double last_fold_ns() const { return last_fold_ns_; }

 private:
  /// Gate, plan, legs, closing barrier and `2d.expand` span of one input
  /// build. `after_level`: a level exchange, which may take the row plan
  /// and serves the row replicas; otherwise a rollback's column rebuild.
  /// `reduce_ns`: the latency of the reduction the legs may hide under.
  bfs::ExchangeLevelStats deliver(rt::Proc& p, int dir,
                                  std::uint64_t frontier_bits,
                                  std::span<const int> parts,
                                  bool after_level, double reduce_ns);
  /// Wire bytes of origin `o`'s frontier piece under `kind`.
  std::uint64_t piece_wire_bytes(graph::codec::Kind kind, int o) const;
  /// Copy or decode origin `o`'s frontier piece into `dst`.
  void land_piece(graph::codec::Kind kind, int o,
                  std::span<std::uint64_t> dst) const;
  /// Modeled p2p time of `bytes` from rank `src` to `dst` (shared memory
  /// within a node, the NIC across nodes, stretched by a degrade window),
  /// counting the bytes into `intra`/`inter`.
  double p2p_ns(const rt::Proc& p, int src, int dst, std::uint64_t bytes,
                std::uint64_t& intra, std::uint64_t& inter) const;

  const DistGraph2d& dg_;
  State2d& st_;
  std::span<const bfs::UnitCosts> costs_;
  const Bfs2dOptions& opt_;
  LegBytes legs_;
  double expand_ns_sum_ = 0;
  int expands_ = 0;
  double last_fold_ns_ = 0;
  /// Are all row_visited replicas current? True while every level since
  /// the root or the last rebuild ran the row leg. Identical on every rank
  /// (a function of the direction history, the grid and the crashes), so
  /// the td -> bu switch rebuild is SPMD-consistent.
  bool rows_fresh_ = true;
  // decode scratch (fold lists, row-leg pieces)
  std::vector<graph::Vertex> dec_children_;
  std::vector<graph::Vertex> dec_parents_;
  std::vector<std::uint64_t> dec_piece_;
};

}  // namespace numabfs::bfs2d
