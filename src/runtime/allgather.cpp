#include "runtime/allgather.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "faults/errors.hpp"
#include "faults/hash.hpp"

namespace numabfs::rt {

const char* to_string(AllgatherAlgo a) {
  switch (a) {
    case AllgatherAlgo::flat_ring: return "flat_ring";
    case AllgatherAlgo::leader_ring: return "leader_ring";
    case AllgatherAlgo::leader_rd: return "leader_rd";
  }
  return "?";
}

coll_model::CollTimes allgather_time(const Cluster& c, const Comm& comm,
                                     std::uint64_t chunk_bytes,
                                     AllgatherAlgo algo) {
  const int nnodes = comm.nodes();
  const int per_node = comm.per_node();
  coll_model::CollTimes t;
  switch (algo) {
    case AllgatherAlgo::flat_ring:
      return coll_model::flat_ring_shape(c, nnodes, per_node, chunk_bytes);
    case AllgatherAlgo::leader_ring:
    case AllgatherAlgo::leader_rd: {
      const std::uint64_t node_chunk =
          chunk_bytes * static_cast<std::uint64_t>(per_node);
      const std::uint64_t total =
          node_chunk * static_cast<std::uint64_t>(nnodes);
      t.gather_ns = per_node > 1 ? coll_model::gather_to_leader_ns(c, chunk_bytes)
                                 : 0.0;
      t.inter_ns = algo == AllgatherAlgo::leader_ring
                       ? coll_model::inter_ring_ns(c, node_chunk, 1)
                       : coll_model::inter_recursive_doubling_ns(c, node_chunk, 1);
      t.bcast_ns =
          per_node > 1 ? coll_model::bcast_from_leader_ns(c, total) : 0.0;
      t.total_ns = t.gather_ns + t.inter_ns + t.bcast_ns;  // sequential steps
      return t;
    }
  }
  return t;
}

namespace {

/// Attempt budget for one chunk of a fault-tolerant allgather (mirrors
/// PostOffice::kMaxAttempts).
constexpr int kCollMaxAttempts = 20;

/// Retransmit timeout after `attempt` (exponential backoff, capped).
double coll_rto_ns(const sim::CostParams& cp, int attempt) {
  const int exp = std::min(attempt, 6);
  return 4.0 * cp.nic_msg_latency_ns * static_cast<double>(1u << exp);
}

}  // namespace

coll_model::CollTimes allgather(Proc& p, Comm& comm,
                                std::span<const std::uint64_t> chunk,
                                std::span<std::uint64_t> dst,
                                AllgatherAlgo algo, sim::Phase phase) {
  Cluster& c = *p.cluster;
  const faults::FaultInjector* inj = c.injector();
  const int idx = comm.index_of(p.rank);
  assert(idx >= 0);
  const size_t words = chunk.size();
  assert(dst.size() == words * static_cast<size_t>(comm.size()));
  const double trace_t0 = p.clock.now_ns();

  comm.publish_ptr(idx, chunk.data());
  comm.publish_val(idx, words);
  if (inj != nullptr) comm.publish_chk(idx, faults::checksum64(chunk));
  p.barrier(comm, sim::Phase::stall);  // inputs ready; clocks aligned

  // Real data movement: copy every member's chunk into our private dst.
  // Under chaos, every incoming inter-node chunk rolls per-attempt
  // drop/corrupt coins; corruption is detected by verifying the copied
  // words against the sender's published checksum, then re-copied.
  double fault_extra_ns = 0.0;
  for (int i = 0; i < comm.size(); ++i) {
    std::uint64_t* out = dst.data() + static_cast<size_t>(i) * words;
    const int peer = comm.world_rank(i);
    const std::uint64_t bytes = words * sizeof(std::uint64_t);
    if (inj != nullptr && inj->dead(peer)) {
      // No sender: the slice is defined as zeros so callers see a stable
      // (empty) contribution instead of stale garbage.
      std::memset(out, 0, bytes);
      continue;
    }
    assert(comm.val(i) == words && "allgather requires equal chunk sizes");
    const auto* src = static_cast<const std::uint64_t*>(comm.ptr(i));
    const bool inter = c.node_of(peer) != p.node;
    if (i != idx) {
      if (inter)
        p.prof.counters().bytes_inter_node += bytes;
      else
        p.prof.counters().bytes_intra_node += bytes;
      p.prof.counters().bytes_raw_equiv += bytes;
    }
    if (inj == nullptr || i == idx || !inter) {
      std::memcpy(out, src, bytes);
      continue;
    }
    const std::uint64_t seq = p.coll_seq++;
    const std::uint64_t want = comm.chk(i);
    for (int attempt = 0;; ++attempt) {
      const faults::Verdict v =
          inj->attempt_verdict(peer, p.rank, seq, attempt, p.clock.now_ns());
      if (v == faults::Verdict::drop) {
        p.trace_instant(obs::kCatFault, "coll.drop",
                        obs::kv("from", peer) + "," + obs::kv("seq", seq) +
                            "," + obs::kv("attempt", attempt));
        ++p.prof.counters().retransmits;
        fault_extra_ns += c.link().nic_transfer_ns(bytes, 1, c.node_of(peer),
                                                   p.node) +
                          coll_rto_ns(c.params(), attempt);
        if (attempt + 1 >= kCollMaxAttempts)
          throw faults::FaultError(
              "allgather: chunk from rank " + std::to_string(peer) +
              " to rank " + std::to_string(p.rank) + " dropped " +
              std::to_string(kCollMaxAttempts) + " times; giving up");
        continue;
      }
      std::memcpy(out, src, bytes);
      if (v == faults::Verdict::corrupt)
        inj->corrupt_payload({out, words}, peer, p.rank, seq, attempt);
      if (faults::checksum64({out, words}) == want) break;
      // Checksum mismatch: discard, NACK, wait for the retransmission.
      p.trace_instant(obs::kCatFault, "coll.corrupt",
                      obs::kv("from", peer) + "," + obs::kv("seq", seq) + "," +
                          obs::kv("attempt", attempt));
      ++p.prof.counters().retransmits;
      fault_extra_ns += 2.0 * c.params().nic_msg_latency_ns;
      if (attempt + 1 >= kCollMaxAttempts)
        throw faults::FaultError(
            "allgather: chunk from rank " + std::to_string(peer) +
            " to rank " + std::to_string(p.rank) + " corrupted " +
            std::to_string(kCollMaxAttempts) + " times; giving up");
    }
  }

  coll_model::CollTimes t =
      allgather_time(c, comm, words * sizeof(std::uint64_t), algo);
  if (inj != nullptr) {
    // A degraded fabric stretches the inter-node stage; retransmissions of
    // individual chunks are tacked onto the total.
    const double lf = inj->min_link_factor(p.clock.now_ns());
    t.total_ns += t.inter_ns * (1.0 / lf - 1.0) + fault_extra_ns;
    t.inter_ns /= lf;
  }
  p.charge(phase, t.total_ns);
  p.barrier(comm, phase);  // collective completes together
  p.trace_span(obs::kCatColl, std::string("allgather.") + to_string(algo),
               trace_t0, p.clock.now_ns(),
               obs::kv("chunk_bytes",
                       static_cast<std::uint64_t>(words) * sizeof(std::uint64_t)) +
                   "," + obs::kv("group", comm.size()));
  return t;
}

double allreduce(Proc& p, Comm& comm, std::span<std::uint64_t> words,
                 std::span<const ReduceOp> ops, sim::Phase phase) {
  assert(words.size() == ops.size());
  if (words.size() > Comm::kMaxReduceWords)
    throw std::invalid_argument(
        "allreduce: " + std::to_string(words.size()) +
        " words do not fit one message of " +
        std::to_string(Comm::kMaxReduceWords));
  const faults::FaultInjector* inj = p.cluster->injector();
  const int idx = comm.index_of(p.rank);
  assert(idx >= 0);
  comm.publish_ptr(idx, words.data());
  p.barrier(comm, phase);
  // The lowest live member combines every live contribution once; dead
  // members' slots hold stale values from before the crash.
  const auto live = [&](int i) {
    return inj == nullptr || !inj->dead(comm.world_rank(i));
  };
  int combiner = 0;
  while (!live(combiner)) ++combiner;
  auto& acc = comm.reduced();
  if (idx == combiner) {
    std::copy(words.begin(), words.end(), acc.begin());
    for (int i = idx + 1; i < comm.size(); ++i) {
      if (!live(i)) continue;
      const auto* v = static_cast<const std::uint64_t*>(comm.ptr(i));
      for (std::size_t w = 0; w < words.size(); ++w) {
        switch (ops[w]) {
          case ReduceOp::sum: acc[w] += v[w]; break;
          case ReduceOp::max: acc[w] = std::max(acc[w], v[w]); break;
          case ReduceOp::min: acc[w] = std::min(acc[w], v[w]); break;
          case ReduceOp::bit_or: acc[w] |= v[w]; break;
        }
      }
    }
  }
  const double ns = coll_model::allreduce_ns(*p.cluster, comm);
  p.charge(phase, ns);
  ++p.prof.counters().reductions;
  p.barrier(comm, phase);  // the combined result is complete
  std::copy_n(acc.begin(), words.size(), words.begin());
  return ns;
}

}  // namespace numabfs::rt
