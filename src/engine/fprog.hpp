#pragma once
/// \file fprog.hpp
/// Frontier-program abstraction (DESIGN.md §16): the engine half of every
/// frontier-driven workload that is not a BFS lane wave.
///
/// A FrontierProgram supplies the *algorithm*: how to seed the first
/// frontier, how one level advances it (push over top-down groups or pull
/// over owned adjacency), how the shared control scalars evolve from the
/// level's reduced statistics, and when the computation has converged. The
/// engine supplies everything else — the state layout, the per-level
/// exchange (the MS-BFS wave's presence exchange, presence_exchange.hpp, on
/// the bfs/ collective-plan core), checkpointing,
/// crash detection with partition adoption and level rollback, abort
/// horizons with cross-replica checkpoint export/resume for failover, the
/// observability spans and the cost-model direction choice.
///
/// Ownership contract (who touches what):
///  - program state is split into a *replicated read side* (frontier bit
///    words + value array per replica, updated only by the exchange) and a
///    *partition-owned write side* (out bits, out summary, val_out),
///    written only by the partition's current owner;
///  - `val_out` is the partition's authoritative value state. Entries the
///    level left unchanged always equal what every replica already holds
///    (values evolve deterministically from the replicated inputs), so the
///    exchange ships only the changed entries on the modeled wire while the
///    simulation lands the whole block;
///  - programs never touch the virtual clock: they return work counts
///    (ProgStats) and the engine converts them to modeled time with the
///    partition's unit costs, exactly once per level;
///  - control scalars are per-rank copies evolved by post_level() from
///    all-reduced statistics only, so every rank takes identical decisions
///    without further communication.

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "bfs/config.hpp"
#include "graph/dist_graph.hpp"
#include "graph/summary.hpp"
#include "numasim/phase_profile.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::engine {

/// One 64-bit value slot per vertex. Programs pack what they need into it
/// (a distance, a label, two packed float32 for PageRank's (rank, residual)).
using Value = std::uint64_t;

inline constexpr Value kProgInf = ~0ull;

/// Per-level, per-partition work counts a program's kernels report. The
/// engine charges modeled time from them and all-reduces the reduction
/// fields; `reduced` views of this struct hold their global values (the
/// local-only `sources` and `scanned` stay zero there).
struct ProgStats {
  std::uint64_t changed = 0;         ///< out bits set (next frontier size)
  std::uint64_t sources = 0;         ///< frontier vertices processed (push)
  std::uint64_t frontier_edges = 0;  ///< adjacency entries behind the frontier
  std::uint64_t scanned = 0;         ///< adjacency entries actually examined
  std::uint64_t needy = 0;           ///< pull-side vertices still in play
  std::uint64_t mu = 0;              ///< their adjacency volume
  std::uint64_t min_word = kProgInf; ///< min-reduced program word
  std::uint64_t acc = 0;             ///< sum-reduced program word
  std::uint64_t flags = 0;           ///< or-reduced program flags

  void add(const ProgStats& o) {
    changed += o.changed;
    sources += o.sources;
    frontier_edges += o.frontier_edges;
    scanned += o.scanned;
    needy += o.needy;
    mu += o.mu;
    min_word = min_word < o.min_word ? min_word : o.min_word;
    acc += o.acc;
    flags |= o.flags;
  }
};

/// Distributed program state: replicated frontier/value arrays plus the
/// partition-owned out side. Frontier bits live in per-partition
/// word-aligned slabs of `words_per_block()` words, so the exchange lands a
/// partition's chunk with one memcpy regardless of the block size; the bit
/// of global vertex v sits at bit_pos(owner, v - owner*block).
class ProgramState {
 public:
  ProgramState(const graph::DistGraph& dg, const bfs::Config& cfg, int nodes,
               int ppn, bool with_values);

  const bfs::Config& config() const { return cfg_; }
  bool shared_frontier() const { return shared_; }
  bool with_values() const { return with_values_; }
  std::uint64_t block() const { return block_; }
  std::uint64_t words_per_block() const { return wpb_; }
  std::uint64_t padded_words() const { return wpb_ * static_cast<std::uint64_t>(np_); }
  std::uint64_t padded_values() const { return block_ * static_cast<std::uint64_t>(np_); }
  std::uint64_t summary_bits() const {
    return graph::SummaryView::summary_bits_for(padded_words() * 64,
                                                cfg_.summary_granularity);
  }

  std::uint64_t bit_pos(int part, std::uint64_t local_v) const {
    return static_cast<std::uint64_t>(part) * wpb_ * 64 + local_v;
  }
  /// Read vertex u's frontier bit from a replica's words.
  static bool test(std::span<const std::uint64_t> f, std::uint64_t pos) {
    return (f[pos >> 6] >> (pos & 63)) & 1;
  }

  // Replicated read side (indexed by rank; node-shared replicas alias).
  std::span<std::uint64_t> frontier(int rank);
  graph::SummaryView frontier_summary(int rank);
  std::span<Value> values(int rank);

  // Partition-owned write side.
  std::span<std::uint64_t> out_bits(int part);
  graph::SummaryView out_summary(int part);
  std::span<Value> val_out(int part);

 private:
  bfs::Config cfg_;
  int np_ = 1;
  int ppn_ = 1;
  bool shared_ = false;
  bool with_values_ = true;
  std::uint64_t block_ = 0;
  std::uint64_t wpb_ = 0;  // frontier words per partition slab

  std::vector<std::vector<std::uint64_t>> frontier_;  // per replica
  std::vector<graph::Summary> fsummary_;              // per replica
  std::vector<std::vector<Value>> values_;            // per replica
  std::vector<std::vector<std::uint64_t>> out_bits_;  // per partition
  std::vector<graph::Summary> out_summary_;           // per partition
  std::vector<std::vector<Value>> val_out_;           // per partition
};

/// The query a program instance answers. Global workloads (PageRank as a
/// whole-graph computation, components, triangles) read `source` only to
/// pick which vertex's final value to report.
struct ProgramQuery {
  graph::Vertex source = 0;
  graph::Vertex target = 0;  ///< SSSP reports dist(source -> target)
};

/// Knobs of the built-in programs (engine::make_program).
struct ProgramParams {
  std::uint64_t sssp_delta = 8;       ///< delta-stepping bucket width
  std::uint32_t sssp_max_weight = 15; ///< hashed weights in [1, max]
  std::uint64_t weight_seed = 0x57455447u;
  double pr_damping = 0.85;
  double pr_eps = 1e-6;  ///< residual threshold gating the PR frontier
  int max_levels = 1 << 20;  ///< divergence backstop, not a tuning knob
};

/// Everything a program kernel sees of one partition: the calling rank's
/// replicated read side plus the partition's write side. `lg` is the
/// partition's (possibly epoch-merged) graph slice.
struct PartCtx {
  const graph::LocalGraph& lg;
  int part;
  std::uint64_t vbegin;
  std::uint64_t block;
  std::span<const std::uint64_t> frontier;  ///< replica bit words (read)
  graph::SummaryView fsummary;              ///< replica frontier summary (read)
  std::span<const Value> values;            ///< replica values (read)
  std::span<std::uint64_t> out_bits;        ///< partition out bits (write)
  graph::SummaryView out_summary;           ///< partition out summary (write)
  std::span<Value> val_out;                 ///< partition values (read/write)
  const ProgramState* ps;                   ///< bit_pos / test helpers
};

class FrontierProgram {
 public:
  virtual ~FrontierProgram() = default;

  virtual const char* name() const = 0;
  /// Whether the workload carries a per-vertex value array (triangle
  /// counting does not; its exchange ships presence bits only).
  virtual bool with_values() const { return true; }
  /// Whether the engine's cost model may pick pull kernels per level. When
  /// false the program always advances by push (dir 0).
  virtual bool direction_optimizing() const { return false; }

  virtual int scalar_count() const { return 0; }
  virtual void init_scalars(std::span<std::uint64_t> s) const {
    for (auto& x : s) x = 0;
  }

  /// Initialize partition `part`: fill val_out with the initial values and
  /// set the out bits of the level-0 frontier. Called once per partition by
  /// its owner; the seeding exchange then lands every replica.
  virtual ProgStats seed(const ProgramQuery& q, PartCtx& ctx) const = 0;

  /// Advance one level over partition `part` in direction `dir` (0 = push
  /// over td groups, 1 = pull over owned adjacency; `use_summary` is the
  /// cost model's frontier-summary hint for pulls). Reads the replicated
  /// inputs, writes the partition's out side, returns the work counts.
  /// Must be a pure function of (replica state, val_out, scalars, level):
  /// the engine re-runs it verbatim after a crash rollback.
  virtual ProgStats advance(const ProgramQuery& q, PartCtx& ctx,
                            std::span<const std::uint64_t> scalars, int level,
                            int dir, bool use_summary) const = 0;

  /// Evolve the control scalars from the level's reduced statistics and
  /// report convergence. Runs on every rank with identical inputs.
  virtual bool post_level(std::span<std::uint64_t> scalars,
                          const ProgStats& reduced, int level) const = 0;

  /// Host-side: the query's scalar answer, read from the converged state.
  virtual double final_value(const ProgramQuery& q, const graph::DistGraph& dg,
                             ProgramState& ps,
                             const ProgStats& last) const = 0;
};

/// Cross-replica program checkpoint for failover resume, the analog of
/// WaveCheckpoint: partition owners persist val_out, the recorder persists
/// one frontier replica (bits + values) and the control position.
struct ProgramCheckpoint {
  bool valid = false;
  std::vector<std::vector<Value>> val_out;     ///< per partition
  std::vector<std::uint64_t> frontier;         ///< one replica, padded words
  std::vector<Value> values;                   ///< one replica, padded values
  std::vector<std::uint64_t> scalars;
  int level = 1;
  int dir = 0;
  bool use_summary = false;
  std::uint64_t epoch = 0;
};

struct ProgramOptions {
  std::uint64_t epoch = 0;
  double abort_at_ns = std::numeric_limits<double>::infinity();
  int export_every = 1;
  ProgramCheckpoint* export_to = nullptr;
  const ProgramCheckpoint* resume_from = nullptr;
  /// Divergence backstop: a program still unconverged after this many
  /// levels stops with converged = false (it does not throw — the serving
  /// tier reports the query as failed).
  int max_levels = 1 << 20;
};

struct ProgramResult {
  double total_ns = 0;
  sim::PhaseProfile profile_avg;
  int levels = 0;     ///< advance levels executed
  int td_levels = 0;  ///< push levels
  int bu_levels = 0;  ///< pull levels
  bool converged = false;
  double value = 0;   ///< the program's scalar answer for the query
  ProgStats last;     ///< reduced stats of the converging level
  int recoveries = 0;
  int ranks_lost = 0;
  bool aborted = false;
  double abort_ns = 0;
  std::uint64_t epoch = 0;
};

/// Run `prog` to convergence (or abort) on the cluster. Deterministic for a
/// fixed (graph, config, query, fault plan); crash plans require the
/// injector's checkpointing, as run_wave does.
ProgramResult run_program(rt::Cluster& c, const graph::DistGraph& dg,
                          ProgramState& ps, const FrontierProgram& prog,
                          const ProgramQuery& query,
                          const ProgramOptions& opts = {});

/// Gather one full value array host-side (validation / reporting).
std::vector<Value> gather_values(const graph::DistGraph& dg, ProgramState& ps);

}  // namespace numabfs::engine
