#pragma once
/// \file allgather.hpp
/// Data-moving collectives over a `Comm`.
///
/// Data movement is real (chunks are copied between rank buffers through
/// the shared address space) and identical for every algorithm; the
/// algorithms differ in the *modeled time* charged, which is where the
/// paper's optimizations live. The BFS frontier exchanges land their chunks
/// in node-shared destinations themselves and charge the same coll_model
/// times through the plan core in bfs/exchange.hpp.

#include <cstdint>
#include <span>

#include "numasim/phase_profile.hpp"
#include "runtime/cluster.hpp"
#include "runtime/coll_model.hpp"

namespace numabfs::rt {

/// Which time model an allgather charges (the data result is identical).
enum class AllgatherAlgo {
  flat_ring,    ///< Open MPI default: ring over every rank
  leader_ring,  ///< Fig. 5a: gather -> leader ring -> broadcast
  leader_rd,    ///< like leader_ring but recursive doubling between leaders
};

const char* to_string(AllgatherAlgo a);

/// Allgather of equal-sized chunks into each member's private `dst`
/// (member order, chunk i at offset i*chunk.size()). Every member must pass
/// chunks of the same size. Returns the modeled per-call breakdown; the
/// total is charged to `phase` on every member, and byte counters are
/// updated from the actually performed copies.
coll_model::CollTimes allgather(Proc& p, Comm& comm,
                                std::span<const std::uint64_t> chunk,
                                std::span<std::uint64_t> dst,
                                AllgatherAlgo algo, sim::Phase phase);

/// Allreduce of one scalar over `comm` (latency-bound tree model).
std::uint64_t allreduce_sum(Proc& p, Comm& comm, std::uint64_t v,
                            sim::Phase phase);
std::uint64_t allreduce_max(Proc& p, Comm& comm, std::uint64_t v,
                            sim::Phase phase);
/// Bitwise-OR allreduce (lane masks of the multi-source BFS engine).
std::uint64_t allreduce_or(Proc& p, Comm& comm, std::uint64_t v,
                           sim::Phase phase);

}  // namespace numabfs::rt
