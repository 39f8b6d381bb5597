#pragma once
/// \file hybrid.hpp
/// The full hybrid (direction-optimizing) BFS driver — the paper's Fig. 1
/// pipeline: top-down until the frontier is large, bottom-up through the
/// bulge, top-down again for the stragglers; between levels, the two
/// allgathers rebuild the replicated/shared frontier.

#include <cstdint>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/state.hpp"
#include "graph/dist_graph.hpp"
#include "numasim/phase_profile.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::bfs {

/// Per-level trace entry (aggregated over ranks): the raw material of the
/// paper's Fig. 1 narrative — frontier ramp-up, direction switches, and
/// where the time goes level by level.
struct LevelTrace {
  int level = 0;
  int direction = 0;  ///< 0 = top-down, 1 = bottom-up
  std::uint64_t frontier_vertices = 0;  ///< input frontier of this level
  std::uint64_t discovered = 0;         ///< vertices found this level
  std::uint64_t edges_scanned = 0;      ///< summed over ranks
  std::uint64_t summary_zero_skips = 0;
  std::uint64_t summary_probes = 0;
  double comp_ns = 0;  ///< mean over ranks
  double comm_ns = 0;  ///< mean over ranks (exchange after this level)

  /// Codec the exchange after this level rode: graph::codec::Kind as int
  /// (0 raw, 1 sparse, 2 dense); -1 for the final level (no exchange).
  int exchange_codec = -1;
  /// Measured wire bytes of this level's exchange, summed over ranks, and
  /// what they would have been uncoded. Equal when the codec is off.
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_raw_bytes = 0;

  /// Measured compression of this level's exchange (1.0 = none).
  double wire_reduction() const {
    return wire_bytes > 0 ? static_cast<double>(wire_raw_bytes) /
                                static_cast<double>(wire_bytes)
                          : 1.0;
  }

  double frontier_density(std::uint64_t n) const {
    return n ? static_cast<double>(frontier_vertices) /
                   static_cast<double>(n)
             : 0.0;
  }
  double skip_rate() const {
    return summary_probes ? static_cast<double>(summary_zero_skips) /
                                static_cast<double>(summary_probes)
                          : 0.0;
  }
};

/// Result of one BFS (one root) on one variant.
struct BfsRunResult {
  double time_ns = 0;            ///< virtual wall time (max over ranks)
  std::uint64_t visited = 0;     ///< vertices in the tree (incl. root)
  std::uint64_t traversed_directed_edges = 0;  ///< adjacency entries covered
  int levels = 0;
  int td_levels = 0;
  int bu_levels = 0;
  int bu_exchanges = 0;  ///< bottom-up communication phases performed
  int td_exchanges = 0;
  int recoveries = 0;  ///< level re-runs after detecting crashed ranks
  int ranks_lost = 0;  ///< ranks dead by the end of the traversal
  std::vector<int> directions;  ///< 0 = top-down, 1 = bottom-up, per level

  /// Direction-controller switch count (0 unless tune.adapt_direction).
  int tune_direction_switches = 0;

  sim::PhaseProfile profile_avg;  ///< mean over ranks
  sim::PhaseProfile profile_max;  ///< per-phase max over ranks
  std::vector<LevelTrace> trace;  ///< one entry per level

  std::uint64_t traversed_edges() const {
    return traversed_directed_edges / 2;
  }
  double teps() const {
    return time_ns > 0 ? static_cast<double>(traversed_edges()) /
                             (time_ns * 1e-9)
                       : 0.0;
  }
  /// Mean duration of one bottom-up communication phase (Figs. 12/13).
  double avg_bu_comm_ns() const {
    return bu_exchanges > 0 ? profile_avg.get(sim::Phase::bu_comm) /
                                  bu_exchanges
                            : 0.0;
  }
};

/// Run one BFS from `root`. `st` must have been built for (dg, cfg) and the
/// cluster's shape; it is reset internally, so it can be reused across
/// roots.
///
/// Fault tolerance: the LevelLoop protocol (DESIGN.md §6) over per-partition
/// visited/pred/unvisited-edge checkpoints. A crash plan with checkpointing
/// off (`checkpoint:off`) raises faults::FaultError up front.
BfsRunResult run_bfs(rt::Cluster& c, const graph::DistGraph& dg, DistState& st,
                     graph::Vertex root);

/// Assemble the global parent array from the per-rank pred slices
/// (for validation against graph::validate_bfs_tree).
std::vector<graph::Vertex> gather_parents(const graph::DistGraph& dg,
                                          DistState& st);

}  // namespace numabfs::bfs
