#pragma once
/// \file programs.hpp
/// The four built-in frontier programs (DESIGN.md §16), each a
/// FrontierProgram the engine runs through run_program():
///  - SSSP: delta-stepping over the hashed edge weights (graph/weights.hpp).
///    Scalars carry (bucket, mode); relax levels push tentative distances
///    out of the current bucket's frontier until the bucket reaches its
///    intra-bucket fixpoint, a reseed level then re-ships the next bucket's
///    members from the owned distance arrays. Integer distances make the
///    result bit-identical to the Dijkstra reference.
///  - PageRank: residual push/pull with per-level direction choice. The
///    value word packs (rank, residual) as two float32; the frontier is the
///    set of vertices whose residual exceeds pr_eps, so push work tracks
///    the frontier's edges while pull streams the owned adjacency — a
///    genuine measured direction tradeoff per level.
///  - Connected components: min-label propagation (direction-optimizing).
///    Converges to each component's minimum vertex id, the same labels the
///    BFS-sweep reference produces.
///  - Triangle counting: one-shot merge-intersection over a host-built
///    forward adjacency (sorted, deduplicated, greater-id neighbors); the
///    count rides the sum-reduced accumulator.

#include <array>
#include <bit>
#include <cstdint>
#include <memory>

#include "engine/fprog.hpp"
#include "graph/weights.hpp"

namespace numabfs::engine {

enum class ProgramWorkload { sssp, pagerank, components, triangles };

const char* to_string(ProgramWorkload w);

/// Build one of the built-in programs for `dg`. The program holds read-only
/// host-built auxiliaries (global degrees, forward adjacency) derived from
/// the slices, so a new instance is needed per graph epoch.
std::unique_ptr<FrontierProgram> make_program(ProgramWorkload w,
                                              const graph::DistGraph& dg,
                                              const ProgramParams& pp);

/// One program instance per workload, built on first use and rebuilt when
/// the graph or its epoch moves (instances hold graph-derived auxiliaries).
class ProgramCache {
 public:
  explicit ProgramCache(const ProgramParams& pp) : pp_(pp) {}

  const FrontierProgram& get(ProgramWorkload w, const graph::DistGraph& dg,
                             std::uint64_t epoch);

 private:
  struct Slot {
    std::unique_ptr<FrontierProgram> prog;
    const graph::DistGraph* dg = nullptr;
    std::uint64_t epoch = 0;
  };
  ProgramParams pp_;
  std::array<Slot, 4> slots_;
};

/// PageRank value packing: (rank, residual) as two float32 in one Value.
inline Value pack_pr(float rank, float residual) {
  return static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(rank)) << 32 |
         std::bit_cast<std::uint32_t>(residual);
}
inline float pr_rank(Value v) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(v >> 32));
}
inline float pr_residual(Value v) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(v));
}

}  // namespace numabfs::engine
