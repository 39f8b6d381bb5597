#pragma once
/// \file coll_model.hpp
/// Analytic durations of the collective-communication building blocks.
///
/// These are pure functions of the cluster shape and message sizes; the
/// data-moving collectives charge them to virtual clocks, and the unit
/// tests assert their algebraic properties (e.g. the paper's Eq. (1):
/// a flat allgather transmits m*(np-1) bytes; Eq. (2): subgroup-parallel
/// allgather moves the same volume while using every NIC port).

#include <cstdint>

#include "runtime/cluster.hpp"

namespace numabfs::rt::coll_model {

/// Timing breakdown of one allgather (the steps of the paper's Fig. 5).
struct CollTimes {
  double gather_ns = 0.0;  ///< step 1: children -> leader (intra-node)
  double inter_ns = 0.0;   ///< step 2: inter-node allgather between leaders
  double bcast_ns = 0.0;   ///< step 3: leader -> children (intra-node)
  double intra_overlapped_ns = 0.0;  ///< flat algorithm's intra component
  double total_ns = 0.0;

  double intra_ns() const { return gather_ns + bcast_ns + intra_overlapped_ns; }
};

/// Open MPI-style default: ring allgather over all np = nnodes*ppn ranks,
/// each contributing `chunk_bytes`. Intra-node hops pay the copy-in/copy-out
/// shared-memory channel cost; each node has one boundary flow crossing the
/// network per step. Intra and inter transfers of a step overlap; the step
/// costs their maximum.
CollTimes flat_ring(const Cluster& c, std::uint64_t chunk_bytes);

/// Same model for an arbitrary group shape: `nnodes` nodes spanned with
/// `per_node` members each.
CollTimes flat_ring_shape(const Cluster& c, int nnodes, int per_node,
                          std::uint64_t chunk_bytes);

/// Step 1 of Fig. 5a: ppn-1 children push `chunk_bytes` each into the
/// leader socket's memory (concurrent, bounded by that socket's ceiling).
double gather_to_leader_ns(const Cluster& c, std::uint64_t chunk_bytes);

/// Step 3 of Fig. 5a: ppn-1 children each pull `total_bytes` from the
/// leader socket's memory.
double bcast_from_leader_ns(const Cluster& c, std::uint64_t total_bytes);

/// Ring allgather among one rank per node, each contributing
/// `chunk_bytes`, with `flows_per_node` concurrent flows sharing each
/// node's NIC (1 for the plain leader ring; ppn when all subgroups run in
/// parallel, each then moving chunk_bytes/... — pass the per-flow chunk).
double inter_ring_ns(const Cluster& c, std::uint64_t chunk_bytes,
                     int flows_per_node);

/// Recursive-doubling allgather among the leaders (better for the small
/// summary bitmaps: log2(n) message latencies instead of n-1).
double inter_recursive_doubling_ns(const Cluster& c, std::uint64_t chunk_bytes,
                                   int flows_per_node);

/// Composite model of the leader-based allgather family (Fig. 5), over the
/// whole cluster with per-rank chunks of `chunk_bytes`:
///  - `with_gather`/`with_bcast` select steps 1/3 (sharing the out/in
///    structures eliminates them — Fig. 5b);
///  - `flows_per_node` = 1 for a single leader, ppn when all subgroups ring
///    in parallel (Fig. 7; each flow then carries chunk_bytes instead of
///    the full node chunk).
CollTimes leader_allgather(const Cluster& c, std::uint64_t chunk_bytes,
                           bool with_gather, bool with_bcast,
                           int flows_per_node);

/// The same composite under *perfect* intra/inter overlap (HierKNEM-style
/// pipelining, the best case of the overlap literature the paper reviews):
/// total = max(gather + bcast, inter) instead of their sum. The paper's
/// Section III.A argument is that even this bound cannot beat sharing,
/// because the intra-node steps alone exceed the inter-node step
/// (Fig. 6) — `bench_fig06_allgather` prints this row.
CollTimes leader_allgather_overlapped(const Cluster& c,
                                      std::uint64_t chunk_bytes);

/// Rounds of a recursive-doubling exchange over `n` members: 0 for n <= 1,
/// log2(n) for a power of two, floor(log2(n)) + 2 otherwise (the extra
/// members fold in before the rounds and out after them, as in MPICH).
/// One message per member per round: the single-port schedule of the
/// library algorithms the paper measured.
int rd_rounds(int n);

/// Rounds of a k-port schedule over `n` members (Bruck et al., "Efficient
/// algorithms for all-to-all communications in multiport message-passing
/// systems", IEEE TPDS 1997): every round each member exchanges one message
/// with each of k peers, one per port, so the members reached multiply by
/// k + 1 a round. ceil(log_{k+1} n); 0 for n <= 1.
int kport_rounds(int n, int k);

/// Latency of an allreduce of at most Comm::kMaxReduceWords words over
/// `comm`; the words fit one cache line and one eager message, so the
/// charge has no byte term. It is the cheaper of two schedules, read off
/// the comm's shape:
///  - flat: recursive doubling over every member, one NIC latency per
///    round, rd_rounds(size) rounds;
///  - node-aware (the paper's sharing, applied to the reduction): the
///    members of a node combine through one node-shared cache line and
///    read the result back from it (two QPI line transfers), and one
///    leader per node runs a k-port dissemination over the node's
///    k = nic_ports_per_node() ports, kport_rounds(nodes, k) rounds.
/// The flat form stays single-port: with ppn >= k members per node its
/// rounds already inject k messages per node. At physical alpha the
/// node-aware one wins; under paper cache scaling alpha drops below one
/// line transfer and the flat one wins, except on a one-rank-per-node comm,
/// which pays no line transfer.
double allreduce_ns(const Cluster& c, const Comm& comm);

/// Duration of two dependent stages (e.g. wire transfer then decode, each
/// taking `a_ns`/`b_ns` in full) pipelined over `chunks` equal pieces:
/// stage-b work on chunk i overlaps stage-a work on chunk i+1, so
///   total = a/k + (k-1) * max(a, b)/k + b/k
/// (fill + steady-state + drain). chunks <= 1 degrades to a + b; more
/// chunks converge to max(a, b) plus the fill/drain of one chunk.
double pipelined2_ns(double a_ns, double b_ns, int chunks);

/// Total bytes transmitted by an allgather of total payload m over np
/// processes — the paper's Eq. (1): m * (np - 1).
std::uint64_t allgather_volume_bytes(std::uint64_t total_bytes, int np);

/// Slowest NIC factor among all nodes (ring collectives are bound by it).
double min_nic_factor(const Cluster& c);

// --- hierarchical subgroup collectives (DESIGN.md §13) -------------------
// The 2-D decomposition's row/column collectives run over *subgroups* of
// the grid, not the whole cluster, and their scaling limit at 256+ nodes is
// message count, not bandwidth (Buluc et al., arXiv:1705.04590). The
// models below therefore refine the flat family in two ways. First,
// concurrent messages injected by one node serialize over its NIC ports,
// so a step with q messages in flight pays ceil(q / ports) message
// latencies. Second, the node-aware variants combine the co-located
// members' chunks into one message per node (leader gather -> inter-node
// phase -> intra-node bcast), and the leaders run k-port schedules over the
// node's k = nic_ports_per_node() ports (Bruck et al., IEEE TPDS 1997):
// ceil(log_{k+1} n) rounds over n nodes, each round costing one alpha plus
// its largest per-port message at the per-flow rate of the ports it uses.
// The socket-aware variants additionally stage through a directly-mapped
// segment (no copy-in/copy-out bounce). The flat/leader functions above
// model the single-port library algorithms the paper measured and keep
// their semantics.

/// How a subgroup collective exploits the machine hierarchy.
enum class HierLevel : int {
  flat = 0,   ///< every member is an independent flow (baseline)
  node,       ///< node-aware: co-located members combine into one message
  socket,     ///< node-aware + direct-mapped (no-CICO) intra-node staging
};
const char* to_string(HierLevel h);

/// Allgather over one subgroup spanning `span_nodes` nodes with `per_node`
/// members on each, every member contributing `chunk_bytes`; `concurrency`
/// sibling subgroups of identical shape run on the same nodes at once and
/// share their NICs (the C columns of an R x C grid have per_node = 1 and
/// concurrency = ppn; a row has per_node = ppn and concurrency = 1).
/// flat: ring over all members, per-step latency scaled by the injection
/// serialization above; a one-node subgroup (span_nodes <= 1) takes this
/// ring at every level. node/socket: per-node staging, then the leaders
/// run a k-port Bruck concatenation of the combined
/// per_node*concurrency*chunk node blocks: the blocks a leader holds
/// multiply by k + 1 a round, the last round splitting the rest evenly
/// over the ports, so kport_rounds(span_nodes, k) rounds at any node
/// count; then one intra-node fan-out of the assembled payload. A round
/// delivering d blocks costs at most the d steps of the leader ring that
/// deliver them, so the concatenation never costs more than that ring.
CollTimes hier_subgroup_allgather(const Cluster& c, int span_nodes,
                                  int per_node, int concurrency,
                                  std::uint64_t chunk_bytes, HierLevel level);

/// The inter-node schedule hier_alltoallv_ns charged.
enum class A2aSchedule : int {
  direct = 0,  ///< one message per peer, injections serialized over ports
  bruck,       ///< k-port Bruck index exchange between node leaders
};
const char* to_string(A2aSchedule s);

/// One hier_alltoallv_ns charge and the schedule it took.
struct AlltoallvTimes {
  double total_ns = 0.0;
  A2aSchedule sched = A2aSchedule::direct;
};

/// Personalized exchange (alltoallv) over the same subgroup shape, from the
/// charged node's viewpoint: `node_intra_bytes` / `node_inter_bytes` are the
/// *measured* volumes the node's members receive over each transport this
/// step (every member charges the node-level time; they leave the exchange
/// through a barrier anyway). flat: per_node^2 * (span_nodes - 1) incoming
/// messages serialize over the ports (direct). node/socket: the inter-node
/// payload is staged through the leader on the way out and the way in, and
/// the leaders take the cheaper of two schedules at the measured volume:
///  - direct: span_nodes - 1 combined messages, ceil((span_nodes - 1) / k)
///    injection latencies, the whole volume at the node's one-flow rate;
///  - bruck: a k-port Bruck index exchange, kport_rounds(span_nodes, k)
///    rounds; round i forwards, over port j, every block whose destination
///    offset has base-(k+1) digit i equal to j, and costs one alpha plus
///    its largest per-port message (peer blocks of the mean size
///    node_inter_bytes / (span_nodes - 1)).
/// Bruck wins on small volumes, where latency decides; direct on large
/// ones, since a block rides up to kport_rounds hops. Ties go to direct.
AlltoallvTimes hier_alltoallv_ns(const Cluster& c, int span_nodes,
                                 int per_node, std::uint64_t node_intra_bytes,
                                 std::uint64_t node_inter_bytes,
                                 HierLevel level);

}  // namespace numabfs::rt::coll_model
