#pragma once
/// \file engine.hpp
/// Query-serving layer over the batched multi-source BFS kernel: a seeded
/// deterministic workload (queries arriving in virtual time), a bounded
/// FIFO admission queue with backpressure, and a batch scheduler that
/// groups compatible queries into waves of up to 64 lanes (msbfs.hpp).
///
/// All scheduling happens in *virtual* time, the same clock domain as the
/// simulated cluster: a wave's duration is the max rank clock of its
/// `run_wave`, a query's completion instant is the wave's start plus the
/// lane's in-wave retirement time, and its latency is completion minus
/// arrival (so queueing delay is part of the reported latency, as in any
/// real serving system). Everything is bit-deterministic for a fixed
/// (workload seed, config, fault plan) triple — including the latency
/// percentiles, which is what the chaos reproducibility tests pin down.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "engine/msbfs.hpp"
#include "engine/programs.hpp"

namespace numabfs::engine {

/// One query of the workload. `arrival_ns` is its virtual arrival instant;
/// the submission order (and id) follows arrival order.
struct Query {
  int id = 0;
  QueryKind kind = QueryKind::full_distances;
  graph::Vertex source = 0;
  graph::Vertex target = 0;  ///< st_reachability only
  int k = 0;                 ///< k_hop only
  double arrival_ns = 0;
};

/// Per-query serving record (virtual-time accounting).
struct QueryResult {
  int id = 0;
  QueryKind kind = QueryKind::full_distances;
  double arrival_ns = 0;
  double admit_ns = 0;     ///< entered the bounded queue (> arrival when the
                           ///< queue was full: backpressure delay)
  double start_ns = 0;     ///< wave the query rode began
  double complete_ns = 0;  ///< lane retirement instant
  int wave = 0;            ///< index of that wave
  int lane = 0;            ///< lane within the wave
  int complete_level = 0;
  /// Graph epoch the query's wave was pinned to (dynamic graph layer);
  /// 0 when serving a static graph.
  std::uint64_t epoch = 0;
  bool reached = false;       ///< st_reachability verdict
  std::uint64_t visited = 0;  ///< vertices the lane discovered
  /// Program workloads: the scalar answer (distance, rank, component
  /// count, triangle count). 0 for wave kinds.
  double value = 0;

  double latency_ns() const { return complete_ns - arrival_ns; }
  double queue_ns() const { return start_ns - arrival_ns; }
};

/// Deterministic workload description (generate()).
struct WorkloadSpec {
  int num_queries = 64;
  std::uint64_t seed = 1;
  double mean_interarrival_ns = 1e6;  ///< exponential arrivals
  double st_fraction = 0.0;           ///< share of s-t reachability queries
  double khop_fraction = 0.0;         ///< share of k-hop queries
  int k_min = 2;                      ///< k_hop radius range (inclusive)
  int k_max = 4;
  // Program-workload shares (all default 0, so pre-existing workloads keep
  // their exact draw sequences). The remainder is full-distance BFS.
  double sssp_fraction = 0.0;
  double pagerank_fraction = 0.0;
  double components_fraction = 0.0;
  double triangles_fraction = 0.0;
};

/// Called after each wave, before the wave state is reused — the hook the
/// tests and benches use to validate per-lane distances/parents in place.
using WaveSink = std::function<void(std::span<const WaveQuery>,
                                    const WaveResult&, WaveState&)>;

/// Called after each program dispatch, before the program state is torn
/// down — the hook for reading full value arrays (gather_values) in place.
using ProgramSink =
    std::function<void(const Query&, const ProgramResult&, ProgramState&)>;

/// An epoch-stamped graph view handed to the serving tier by the dynamic
/// graph layer (dyn::SnapshotManager::pin). `graph` stays valid for as long
/// as the pointer is held, even across background compactions; `pin_ns` is
/// the modeled cost of acquiring it (charged on the serving path, so pins
/// delay the wave they admit). A null `graph` means "serve the engine's
/// bound static graph" — the static path, bit-identical to pre-dynamic
/// behavior.
struct PinnedGraph {
  std::uint64_t epoch = 0;
  std::shared_ptr<const graph::DistGraph> graph;
  double pin_ns = 0;
};

/// Pins the freshest consistent snapshot at virtual instant `now_ns`.
/// Called once per wave at admission; every lane of the wave serves the
/// returned epoch (QueryResult::epoch), and exported failover checkpoints
/// carry it so a resume runs against the same snapshot.
using GraphSource = std::function<PinnedGraph(double now_ns)>;

struct EngineConfig {
  int max_batch = 64;    ///< lanes per wave (1..64)
  int queue_depth = 256; ///< admission queue bound (backpressure beyond it)
  bool track_parents = true;
  WaveSink sink;         ///< optional per-wave observer
  ProgramParams programs;    ///< knobs of the program workloads
  ProgramSink program_sink;  ///< optional per-program-dispatch observer
  GraphSource graph_source;  ///< optional dynamic-graph pin hook (unset:
                             ///< serve the bound static graph)

  /// Validate invariants; returns an actionable error message or empty.
  /// The QueryEngine ctor calls this and throws on a non-empty result.
  std::string validate() const;
};

/// Aggregated serving report.
struct EngineReport {
  std::vector<QueryResult> results;  ///< ordered by query id
  int waves = 0;
  int program_runs = 0;    ///< singleton program dispatches (not waves)
  int levels = 0;          ///< level kernels run, summed over waves
  double total_ns = 0;     ///< virtual makespan (end of the last wave)
  double busy_ns = 0;      ///< sum of wave durations (total - busy = idle)
  double mean_latency_ns = 0;
  double p50_latency_ns = 0;
  double p95_latency_ns = 0;
  double p99_latency_ns = 0;
  double qps = 0;          ///< num_queries / total virtual seconds
  int backpressured = 0;   ///< queries delayed by a full queue
  int recoveries = 0;      ///< crash-recovery level re-runs, summed
  int ranks_lost = 0;      ///< max over waves (each wave re-injects its plan)
};

/// The serving engine: owns a reusable WaveState for one (cluster, graph,
/// config) binding and drains workloads through it.
class QueryEngine {
 public:
  QueryEngine(rt::Cluster& c, const graph::DistGraph& dg,
              const bfs::Config& cfg, EngineConfig ec);

  /// Serve a workload (queries must be sorted by arrival_ns; generate()
  /// output already is). Runs waves back-to-back in virtual time until
  /// every query completes.
  EngineReport serve(std::span<const Query> queries);

  /// Seeded deterministic workload: exponential interarrivals, kind mix by
  /// the spec fractions, sources/targets hash-walked over degree > 0
  /// vertices (Graph500-style root selection).
  static std::vector<Query> generate(const graph::DistGraph& dg,
                                     const WorkloadSpec& spec);

  WaveState& wave_state() { return ws_; }

 private:
  rt::Cluster& cluster_;
  const graph::DistGraph& dg_;
  EngineConfig ec_;
  WaveState ws_;
  ProgramCache progs_;  ///< lives as long as the engine
};

/// The program workload a program-kind query runs (is_program_kind only).
ProgramWorkload workload_of(QueryKind k);

}  // namespace numabfs::engine
