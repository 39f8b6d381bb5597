#pragma once
/// \file msbfs.hpp
/// Bit-parallel multi-source BFS: one 64-bit *lane word* per vertex carries
/// up to 64 concurrent traversals (MS-BFS, Then et al., VLDB 2014), so a
/// whole batch of queries advances through ONE sequence of level kernels
/// and ONE allgather per level — amortizing exactly the frontier-exchange
/// costs the paper's NUMA optimizations attack.
///
/// Layout. For vertex v, bit b of `frontier[v]` says "v is in lane b's
/// current frontier"; `seen[v]` accumulates the lanes that have discovered
/// v. The frontier array is replicated per rank (or per node, under the
/// paper's sharing levels) like the hybrid BFS `in_queue`; each rank owns
/// the lane words, per-lane distances and per-lane parents of its 1-D
/// partition block. The per-level exchange allgathers the owned blocks of
/// next-frontier words through the same collective plans as the bitmap
/// exchange (flat ring / leader / parallel subgroups, rt::coll_model), with
/// a measured-sparsity wire format: a presence bitmap plus the nonzero lane
/// words, each carrying only ceil(active_lanes/8) bytes.
///
/// Per-lane retirement: a *full-distances* lane runs until its frontier
/// drains; an *s–t reachability* lane retires the level its target is
/// discovered (early exit); a *k-hop* lane retires after k levels. Retired
/// lanes leave `active_mask`, shrinking both kernel and wire work, and
/// record their completion level and virtual completion time.
///
/// Frontier summary (the paper's Fig. 8 mechanism, applied to lane words):
/// each replica carries a summary bitmap with one bit per
/// `summary_granularity` vertices, set iff some vertex of the group has a
/// nonzero frontier lane word. The dense kernel probes the (LLC-resident)
/// summary first and skips the expensive lane-word probe for provably
/// empty groups — which is most of them right after the direction switch,
/// when the union frontier is still sparse. The summary rides the same
/// exchange as the lane words: kernels mark per-partition out summaries,
/// the exchange merges them into the replicated frontier summaries.
///
/// Fault tolerance: the LevelLoop protocol (DESIGN.md §6) over seen-only
/// checkpoints (a level re-run rewrites distances/parents with identical
/// values); degraded links stretch the modeled exchange time.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/costs.hpp"
#include "numasim/phase_profile.hpp"
#include "graph/dist_graph.hpp"
#include "graph/summary.hpp"
#include "graph/types.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::engine {

/// Lane-local distance type; kUnreached marks "not discovered by this lane".
using Dist = std::uint16_t;
inline constexpr Dist kUnreached = 0xFFFF;
inline constexpr int kMaxLanes = 64;

enum class QueryKind {
  full_distances,   ///< distances (+ parents) to the whole component
  st_reachability,  ///< is `target` reachable from `source`? (early exit)
  k_hop,            ///< the vertices within k hops of `source`
  // Frontier-program workloads (fprog.hpp). These never ride a BFS wave:
  // the serving tier dispatches each through run_program() as a singleton.
  sssp,             ///< delta-stepping shortest path, dist(source -> target)
  pagerank,         ///< residual push/pull PageRank, rank(source)
  components,       ///< min-label connected components, component count
  triangles,        ///< exact triangle count
};

const char* to_string(QueryKind k);

/// Whether `k` is a frontier-program workload (run_program) rather than a
/// wave lane kind (run_wave). run_wave rejects program kinds.
inline bool is_program_kind(QueryKind k) { return k >= QueryKind::sssp; }

/// One lane of a wave.
struct WaveQuery {
  QueryKind kind = QueryKind::full_distances;
  graph::Vertex source = 0;
  graph::Vertex target = 0;  ///< st_reachability only
  int k = 0;                 ///< k_hop only
};

/// Per-lane outcome of a wave.
struct LaneResult {
  bool finished = false;    ///< the lane retired (false: the wave aborted
                            ///< before this lane completed)
  int complete_level = 0;   ///< BFS level at which the lane retired
  double complete_ns = 0;   ///< virtual time of retirement (wave-relative)
  bool reached = false;     ///< st_reachability: target found
  std::uint64_t visited = 0;  ///< vertices the lane discovered (incl. source)
};

/// Result of one batched wave.
struct WaveResult {
  /// Graph epoch the wave served (WaveOptions::epoch; 0 for static graphs).
  std::uint64_t epoch = 0;
  double wave_ns = 0;  ///< virtual wall time of the wave (max over ranks)
  sim::PhaseProfile profile_avg;  ///< mean over ranks (counters summed)
  int levels = 0;
  int td_levels = 0;     ///< levels run with the sparse (top-down) kernel
  int bu_levels = 0;     ///< levels run with the dense (bottom-up) kernel
  int recoveries = 0;    ///< level re-runs after rank crashes
  int ranks_lost = 0;
  bool aborted = false;  ///< hit WaveOptions::abort_at_ns before draining
  double abort_ns = 0;   ///< virtual time the abort was observed
  std::uint64_t unfinished = 0;  ///< lanes still active at the abort
  std::vector<LaneResult> lanes;  ///< one per submitted query
};

/// Cross-replica wave checkpoint: everything another cluster serving the
/// same DistGraph needs to resume the surviving lanes — the failover unit
/// of the replicated serving tier. Exported at level boundaries (an "epoch")
/// strictly before any scheduled death of that level, so a valid checkpoint
/// always describes a consistent pre-crash state.
struct WaveCheckpoint {
  bool valid = false;
  /// Graph epoch the exporting wave was pinned to. A failover resume must
  /// run against the same pinned snapshot — lane state (seen words,
  /// distances) is only meaningful relative to that adjacency.
  std::uint64_t epoch = 0;
  int level = 0;             ///< level the next kernel would run
  int dir = 0;               ///< kernel chosen for that level (0 sparse)
  bool use_summary = false;  ///< dense kernel's summary decision
  std::uint64_t active = 0;  ///< lanes alive at the epoch
  std::vector<std::vector<std::uint64_t>> seen;     ///< per partition
  std::vector<std::vector<Dist>> dist;              ///< per partition
  std::vector<std::vector<graph::Vertex>> parent;   ///< per partition (may
                                                    ///< be empty vectors)
  std::vector<std::uint64_t> frontier;  ///< one replicated-frontier copy
};

/// Knobs of the fault-tolerant wave entry point. Defaults reproduce the
/// plain run_wave bit-for-bit (no horizon, no export, fresh start).
struct WaveOptions {
  /// Graph epoch the wave serves (dynamic graph layer): stamped into the
  /// WaveResult and every exported checkpoint. Purely a label at this
  /// layer — the caller passes the matching pinned DistGraph view.
  std::uint64_t epoch = 0;
  /// Virtual time at which this replica stops making progress (its outage
  /// instant). The wave aborts at the first clock-aligned point at or past
  /// it: lanes retired strictly before keep their results, the rest are
  /// reported in WaveResult::unfinished for failover.
  double abort_at_ns = std::numeric_limits<double>::infinity();
  /// Epoch stride of cross-replica checkpoint export (levels); only used
  /// when `export_to` is set.
  int export_every = 1;
  /// Destination of the epoch exports (nullptr: no export).
  WaveCheckpoint* export_to = nullptr;
  /// Resume from this checkpoint instead of seeding the sources (nullptr:
  /// fresh wave). The checkpoint must come from a wave over the same
  /// DistGraph, batch and sharing shape.
  const WaveCheckpoint* resume_from = nullptr;
  /// Lanes to resume (subset of the checkpoint's `active`); 0 means all of
  /// them. Lanes the original wave retired after the exported epoch are
  /// masked out here so the resumed wave does not redo them.
  std::uint64_t resume_active = 0;
};

/// Reusable state of the wave kernel for one (graph, config, shape). Owns
/// the per-partition lane words/distances/parents and the replicated
/// frontier copies; allocate once, run many waves.
class WaveState {
 public:
  /// `track_parents` = false skips the per-lane parent array (the largest
  /// structure: 64 lanes x 4 bytes per owned vertex) when only distances
  /// are needed.
  WaveState(const graph::DistGraph& dg, const bfs::Config& cfg, int nodes,
            int ppn, bool track_parents = true);

  const bfs::Config& config() const { return cfg_; }
  bool shared_frontier() const { return shared_; }
  bool track_parents() const { return track_parents_; }
  std::uint64_t padded_vertices() const { return padded_vertices_; }
  int nodes() const { return nodes_; }
  int ppn() const { return ppn_; }
  int node_of(int rank) const { return rank / ppn_; }

  /// Replicated frontier lane words (padded vertex space) seen by `rank`.
  std::span<std::uint64_t> frontier(int rank) {
    auto& v = shared_ ? node_frontier_[static_cast<std::size_t>(node_of(rank))]
                      : rank_frontier_[static_cast<std::size_t>(rank)];
    return {v.data(), v.size()};
  }
  /// Summary over `frontier(rank)`: bit g covers `summary_granularity`
  /// vertices; zero proves every covered lane word is zero.
  graph::SummaryView frontier_summary(int rank) {
    auto& s = shared_
                  ? node_fsummary_[static_cast<std::size_t>(node_of(rank))]
                  : rank_fsummary_[static_cast<std::size_t>(rank)];
    return s.view();
  }
  /// Summary over partition `part`'s out block (local positions).
  graph::SummaryView out_summary(int part) {
    return out_summary_[static_cast<std::size_t>(part)].view();
  }
  std::uint64_t summary_bits() const {
    return graph::SummaryView::summary_bits_for(padded_vertices_,
                                                cfg_.summary_granularity);
  }

  // --- owned-partition structures (local index space) -------------------
  std::span<std::uint64_t> seen(int part) {
    auto& v = seen_[static_cast<std::size_t>(part)];
    return {v.data(), v.size()};
  }
  /// Next-frontier lane words of partition `part`'s block (block-sized).
  std::span<std::uint64_t> out(int part) {
    auto& v = out_[static_cast<std::size_t>(part)];
    return {v.data(), v.size()};
  }
  /// dist[local_v * 64 + lane].
  std::span<Dist> dist(int part) {
    auto& v = dist_[static_cast<std::size_t>(part)];
    return {v.data(), v.size()};
  }
  /// parent[local_v * 64 + lane]; empty when !track_parents().
  std::span<graph::Vertex> parent(int part) {
    auto& v = parent_[static_cast<std::size_t>(part)];
    return {v.data(), v.size()};
  }

 private:
  bfs::Config cfg_;
  int nodes_;
  int ppn_;
  bool shared_;
  bool track_parents_;
  std::uint64_t padded_vertices_;

  std::vector<std::vector<std::uint64_t>> rank_frontier_;
  std::vector<std::vector<std::uint64_t>> node_frontier_;
  std::vector<graph::Summary> rank_fsummary_;
  std::vector<graph::Summary> node_fsummary_;
  std::vector<graph::Summary> out_summary_;
  std::vector<std::vector<std::uint64_t>> seen_;
  std::vector<std::vector<std::uint64_t>> out_;
  std::vector<std::vector<Dist>> dist_;
  std::vector<std::vector<graph::Vertex>> parent_;
};

/// Run one batched wave of up to 64 queries. `ws` must have been built for
/// (dg, cfg) and the cluster's shape; it is reset internally, so it can be
/// reused across waves. Throws std::invalid_argument on an oversized or
/// empty batch, and faults::FaultError if the attached fault plan schedules
/// crashes with checkpointing disabled.
WaveResult run_wave(rt::Cluster& c, const graph::DistGraph& dg, WaveState& ws,
                    std::span<const WaveQuery> queries);

/// Fault-tolerant entry point: same as above plus an abort horizon, epoch
/// checkpoint export and checkpoint resume (see WaveOptions). `queries`
/// must be the *original* batch even when resuming — lane indices key the
/// checkpoint and the per-lane results.
WaveResult run_wave(rt::Cluster& c, const graph::DistGraph& dg, WaveState& ws,
                    std::span<const WaveQuery> queries,
                    const WaveOptions& opts);

/// Assemble lane `lane`'s global distance array (kUnreached where the lane
/// never discovered the vertex).
std::vector<Dist> gather_lane_distances(const graph::DistGraph& dg,
                                        WaveState& ws, int lane);

/// Assemble lane `lane`'s global parent array (graph::kNoVertex where
/// unreached) for graph::validate_bfs_tree. Requires ws.track_parents().
std::vector<graph::Vertex> gather_lane_parents(const graph::DistGraph& dg,
                                               WaveState& ws, int lane);

}  // namespace numabfs::engine
