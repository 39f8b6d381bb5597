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

/// The modeled breakdown `allgather` charges for chunks of `chunk_bytes`
/// over `comm` under `algo` (the 1-D library exchange plan charges it over
/// the world).
coll_model::CollTimes allgather_time(const Cluster& c, const Comm& comm,
                                     std::uint64_t chunk_bytes,
                                     AllgatherAlgo algo);

/// Allgather of equal-sized chunks into each member's private `dst`
/// (member order, chunk i at offset i*chunk.size()). Every member must pass
/// chunks of the same size. Returns the modeled per-call breakdown; the
/// total is charged to `phase` on every member, and byte counters are
/// updated from the actually performed copies.
coll_model::CollTimes allgather(Proc& p, Comm& comm,
                                std::span<const std::uint64_t> chunk,
                                std::span<std::uint64_t> dst,
                                AllgatherAlgo algo, sim::Phase phase);

/// Per-word operation of a vector allreduce.
enum class ReduceOp { sum, max, min, bit_or };

/// Allreduce of at most Comm::kMaxReduceWords words over `comm` (more
/// throw std::invalid_argument): word i combines every live member's word
/// i with `ops[i]`. `words` holds this rank's contribution on entry and the
/// reduced values on exit; every member passes the same ops. The comm's
/// lowest live member combines every live contribution once into the
/// comm's result, which every member copies after the closing barrier;
/// dead members' slots hold stale values from before the crash and are
/// skipped. The words ride one eager message, so the call is charged
/// coll_model::allreduce_ns of the comm whatever their count, and counts
/// one reduction on the calling rank. Returns that latency, so a caller can
/// overlap work it posts beside the reduction (a straggler's Proc::charge
/// scales the latency and that work alike).
double allreduce(Proc& p, Comm& comm, std::span<std::uint64_t> words,
                 std::span<const ReduceOp> ops, sim::Phase phase);

}  // namespace numabfs::rt
