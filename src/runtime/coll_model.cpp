#include "runtime/coll_model.hpp"

#include <algorithm>
#include <bit>

namespace numabfs::rt::coll_model {

double min_nic_factor(const Cluster& c) {
  // A topology degrades at most one node's NIC.
  const int weak = c.topo().weak_node();
  return weak >= 0 && weak < c.topo().nodes()
             ? std::min(1.0, c.topo().nic_factor(weak))
             : 1.0;
}

CollTimes flat_ring(const Cluster& c, std::uint64_t chunk_bytes) {
  return flat_ring_shape(c, c.topo().nodes(), c.ppn(), chunk_bytes);
}

CollTimes flat_ring_shape(const Cluster& c, int nnodes, int per_node,
                          std::uint64_t chunk_bytes) {
  CollTimes t;
  const int np = nnodes * per_node;
  if (np <= 1) return t;
  const int steps = np - 1;
  const auto& cp = c.params();

  // Intra-node hop: CICO shared-memory channel. All per_node flows of a
  // node copy concurrently, so each gets at most an equal share of the
  // node-wide copy ceiling.
  double t_intra = 0.0;
  if (per_node > 1) {
    const double per_flow =
        std::min(c.link().shm_flow_bw(1),
                 cp.node_copy_ceiling / static_cast<double>(per_node));
    t_intra = cp.cico_factor * static_cast<double>(chunk_bytes) / per_flow;
  }

  // Inter-node hop: with block rank order each node has exactly one
  // boundary flow per step.
  double t_inter = 0.0;
  if (nnodes > 1)
    t_inter = cp.nic_msg_latency_ns + static_cast<double>(chunk_bytes) /
                                          c.link().nic_flow_bw(1, min_nic_factor(c));

  t.intra_overlapped_ns = steps * t_intra;
  t.inter_ns = steps * t_inter;
  t.total_ns = steps * std::max(t_intra, t_inter);
  return t;
}

double gather_to_leader_ns(const Cluster& c, std::uint64_t chunk_bytes) {
  const int children = c.ppn() - 1;
  if (children <= 0) return 0.0;
  const auto& cp = c.params();
  // MPI gather over the shared-memory channel drains the children
  // serially through the leader's bounce buffers (CICO both ways).
  return static_cast<double>(children) * static_cast<double>(chunk_bytes) *
         cp.cico_factor / cp.shm_copy_bw;
}

double bcast_from_leader_ns(const Cluster& c, std::uint64_t total_bytes) {
  const int children = c.ppn() - 1;
  if (children <= 0) return 0.0;
  const auto& cp = c.params();
  // Pipelined sm broadcast: children read each bounce segment concurrently,
  // so the leader's copy-in rate is the bottleneck — the whole payload
  // crosses the leader's bounce buffers once, with the CICO penalty. This
  // is the step that dominates Fig. 6 and that sharing in_queue deletes.
  return static_cast<double>(total_bytes) * cp.cico_factor / cp.shm_copy_bw;
}

double inter_ring_ns(const Cluster& c, std::uint64_t chunk_bytes,
                     int flows_per_node) {
  const int n = c.topo().nodes();
  if (n <= 1) return 0.0;
  const auto& cp = c.params();
  const double bw = c.link().nic_flow_bw(flows_per_node, min_nic_factor(c));
  return (n - 1) *
         (cp.nic_msg_latency_ns + static_cast<double>(chunk_bytes) / bw);
}

double inter_recursive_doubling_ns(const Cluster& c, std::uint64_t chunk_bytes,
                                   int flows_per_node) {
  const int n = c.topo().nodes();
  if (n <= 1) return 0.0;
  const auto& cp = c.params();
  const double bw = c.link().nic_flow_bw(flows_per_node, min_nic_factor(c));
  // Non-power-of-two group sizes fall back to the ring bound; the harness
  // only selects recursive doubling for power-of-two node counts.
  if (!std::has_single_bit(static_cast<unsigned>(n)))
    return inter_ring_ns(c, chunk_bytes, flows_per_node);
  const int rounds = std::countr_zero(static_cast<unsigned>(n));
  double t = 0.0;
  std::uint64_t sz = chunk_bytes;
  for (int r = 0; r < rounds; ++r) {
    t += cp.nic_msg_latency_ns + static_cast<double>(sz) / bw;
    sz *= 2;
  }
  return t;
}

CollTimes leader_allgather(const Cluster& c, std::uint64_t chunk_bytes,
                           bool with_gather, bool with_bcast,
                           int flows_per_node) {
  CollTimes t;
  const int ppn = c.ppn();
  const std::uint64_t node_chunk =
      chunk_bytes * static_cast<std::uint64_t>(ppn);
  const std::uint64_t total =
      node_chunk * static_cast<std::uint64_t>(c.topo().nodes());

  if (with_gather && ppn > 1) t.gather_ns = gather_to_leader_ns(c, chunk_bytes);

  // The node chunk is split across the concurrent subgroup flows: one flow
  // carries it whole (single leader), ppn flows carry one rank chunk each.
  const std::uint64_t wire_chunk =
      node_chunk / static_cast<std::uint64_t>(std::max(1, flows_per_node));
  t.inter_ns = inter_ring_ns(c, wire_chunk, flows_per_node);

  if (with_bcast && ppn > 1) t.bcast_ns = bcast_from_leader_ns(c, total);

  t.total_ns = t.gather_ns + t.inter_ns + t.bcast_ns;
  return t;
}

CollTimes leader_allgather_overlapped(const Cluster& c,
                                      std::uint64_t chunk_bytes) {
  CollTimes t = leader_allgather(c, chunk_bytes, true, true, 1);
  t.total_ns = std::max(t.gather_ns + t.bcast_ns, t.inter_ns);
  return t;
}

int rd_rounds(int n) {
  if (n <= 1) return 0;
  const auto u = static_cast<unsigned>(n);
  const int lg = std::bit_width(u) - 1;
  return std::has_single_bit(u) ? lg : lg + 2;
}

int kport_rounds(int n, int k) {
  int rounds = 0;
  for (std::int64_t reached = 1; reached < n; reached *= k + 1) ++rounds;
  return rounds;
}

double allreduce_ns(const Cluster& c, const Comm& comm) {
  const auto& cp = c.params();
  const double flat = rd_rounds(comm.size()) * cp.nic_msg_latency_ns;
  const double node_aware =
      (comm.per_node() > 1 ? 2.0 * cp.remote_cache_ns : 0.0) +
      kport_rounds(comm.nodes(), c.topo().nic_ports_per_node()) *
          cp.nic_msg_latency_ns;
  return std::min(flat, node_aware);
}

double pipelined2_ns(double a_ns, double b_ns, int chunks) {
  if (chunks <= 1) return a_ns + b_ns;
  const double k = static_cast<double>(chunks);
  return a_ns / k + (k - 1.0) * std::max(a_ns, b_ns) / k + b_ns / k;
}

std::uint64_t allgather_volume_bytes(std::uint64_t total_bytes, int np) {
  return total_bytes * static_cast<std::uint64_t>(np > 0 ? np - 1 : 0);
}

// --- hierarchical subgroup collectives ------------------------------------

const char* to_string(HierLevel h) {
  switch (h) {
    case HierLevel::flat: return "flat";
    case HierLevel::node: return "node";
    case HierLevel::socket: return "socket";
  }
  return "?";
}

const char* to_string(A2aSchedule s) {
  switch (s) {
    case A2aSchedule::direct: return "direct";
    case A2aSchedule::bruck: return "bruck";
  }
  return "?";
}

namespace {

/// Message latencies one node pays to inject `msgs` concurrent messages:
/// the injection pipeline serializes over the NIC ports.
double inject_lat_ns(const Cluster& c, int msgs) {
  if (msgs <= 0) return 0.0;
  const int ports = std::max(1, c.topo().nic_ports_per_node());
  const int rounds = (msgs + ports - 1) / ports;
  return static_cast<double>(rounds) * c.params().nic_msg_latency_ns;
}

/// Staged shared-memory pass of `bytes` through a node leader: CICO bounce
/// at HierLevel::node, direct-mapped (single pass) at HierLevel::socket.
double stage_ns(const Cluster& c, std::uint64_t bytes, HierLevel level) {
  const double factor =
      level == HierLevel::socket ? 1.0 : c.params().cico_factor;
  return factor * static_cast<double>(bytes) / c.params().shm_copy_bw;
}

/// One round of a k-port schedule: one alpha, then the largest of its
/// `msgs` concurrent per-port messages at their per-flow rate.
double kport_round_ns(const Cluster& c, int msgs, double largest_bytes,
                      double factor) {
  return c.params().nic_msg_latency_ns +
         largest_bytes / c.link().nic_flow_bw(msgs, factor);
}

/// k-port Bruck concatenation among `n` node leaders, each starting with
/// one `block` of bytes. A leader holding h blocks forwards them to up to
/// k peers, one message a port, so it then holds (k + 1) * h; the last
/// round's remainder splits evenly over the ports (the partner offsets
/// are free, so such a split always exists).
double bruck_allgather_ns(const Cluster& c, int n, std::uint64_t block,
                          double factor) {
  const int k = c.topo().nic_ports_per_node();
  double t = 0.0;
  for (int have = 1; have < n;) {
    const int need = std::min(n - have, k * have);
    const int msgs = std::min(k, need);
    const int largest = (need + msgs - 1) / msgs;
    t += kport_round_ns(c, msgs,
                        static_cast<double>(largest) *
                            static_cast<double>(block),
                        factor);
    have += need;
  }
  return t;
}

/// k-port Bruck index exchange among `n` node leaders, every leader owing
/// each peer a block of `peer_bytes`. Round i sends, over port j, every
/// block whose destination offset x in [1, n) has base-(k+1) digit i
/// equal to j; the round waits for its largest port.
double bruck_index_ns(const Cluster& c, int n, double peer_bytes,
                      double factor) {
  const int k = c.topo().nic_ports_per_node();
  const std::int64_t radix = k + 1;
  double t = 0.0;
  for (std::int64_t p = 1; p < n; p *= radix) {
    // Offsets below n with digit j at place p: p per full cycle of
    // radix * p, plus the part of the last cycle past j * p.
    const std::int64_t cycle = p * radix;
    std::int64_t largest = 0;
    int msgs = 0;
    for (int j = 1; j <= k; ++j) {
      const std::int64_t blocks =
          n / cycle * p + std::clamp<std::int64_t>(n % cycle - j * p, 0, p);
      if (blocks == 0) continue;
      ++msgs;
      largest = std::max(largest, blocks);
    }
    t += kport_round_ns(c, msgs, static_cast<double>(largest) * peer_bytes,
                        factor);
  }
  return t;
}

}  // namespace

CollTimes hier_subgroup_allgather(const Cluster& c, int span_nodes,
                                  int per_node, int concurrency,
                                  std::uint64_t chunk_bytes, HierLevel level) {
  CollTimes t;
  const int members = span_nodes * per_node;
  if (members <= 1) return t;
  const auto& cp = c.params();
  const double factor = min_nic_factor(c);

  // A one-node subgroup has no inter-node phase for staging to combine
  // messages for, so it runs the flat ring at every level.
  if (level == HierLevel::flat || span_nodes <= 1) {
    // Ring over all members; each node injects one message per co-located
    // participant per step (per_node members x concurrency siblings).
    const int steps = members - 1;
    double t_intra = 0.0;
    if (per_node > 1) {
      const int copies = per_node * concurrency;
      const double per_flow =
          std::min(c.link().shm_flow_bw(1),
                   cp.node_copy_ceiling / static_cast<double>(copies));
      t_intra = cp.cico_factor * static_cast<double>(chunk_bytes) / per_flow;
    }
    double t_inter = 0.0;
    if (span_nodes > 1) {
      const int msgs = per_node * concurrency;
      t_inter = inject_lat_ns(c, msgs) +
                static_cast<double>(chunk_bytes) /
                    c.link().nic_flow_bw(msgs, factor);
    }
    t.intra_overlapped_ns = steps * t_intra;
    t.inter_ns = steps * t_inter;
    t.total_ns = steps * std::max(t_intra, t_inter);
    return t;
  }

  // Node-aware: all co-located participants (per_node members of this
  // subgroup x concurrency siblings) stage their chunks at the node leader,
  // leaders concatenate the combined node chunks, the assembled payload
  // fans back out once.
  const int staged = per_node * concurrency;
  const std::uint64_t node_chunk =
      chunk_bytes * static_cast<std::uint64_t>(staged);
  if (staged > 1)
    t.gather_ns = stage_ns(
        c, chunk_bytes * static_cast<std::uint64_t>(staged - 1), level);
  t.inter_ns = bruck_allgather_ns(c, span_nodes, node_chunk, factor);
  if (staged > 1)
    t.bcast_ns = stage_ns(
        c, node_chunk * static_cast<std::uint64_t>(span_nodes), level);
  t.total_ns = t.gather_ns + t.inter_ns + t.bcast_ns;
  return t;
}

AlltoallvTimes hier_alltoallv_ns(const Cluster& c, int span_nodes,
                                 int per_node, std::uint64_t node_intra_bytes,
                                 std::uint64_t node_inter_bytes,
                                 HierLevel level) {
  const double factor = min_nic_factor(c);
  // Intra-node peer traffic: bounced (CICO) unless the exchange buffers are
  // directly mapped (socket level — the paper's sharing idea applied to the
  // fold).
  const double intra_factor =
      level == HierLevel::socket ? 1.0 : c.params().cico_factor;
  const double t_intra = intra_factor * static_cast<double>(node_intra_bytes) /
                         c.params().shm_copy_bw;
  AlltoallvTimes a;
  a.total_ns = t_intra;
  if (span_nodes <= 1 || node_inter_bytes == 0) return a;

  const double bytes = static_cast<double>(node_inter_bytes);
  if (level == HierLevel::flat) {
    const int msgs = per_node * per_node * (span_nodes - 1);
    a.total_ns += inject_lat_ns(c, msgs) +
                  bytes / c.link().nic_node_bw(per_node, factor);
    return a;
  }
  // Leaders exchange the node's inter-node payload, staged through the
  // leader on the way out and the way in, by the cheaper schedule.
  const double staging = 2.0 * stage_ns(c, node_inter_bytes, level);
  const double direct = staging + inject_lat_ns(c, span_nodes - 1) +
                        bytes / c.link().nic_node_bw(1, factor);
  const double bruck =
      staging + bruck_index_ns(c, span_nodes, bytes / (span_nodes - 1),
                               factor);
  if (bruck < direct) {
    a.total_ns += bruck;
    a.sched = A2aSchedule::bruck;
  } else {
    a.total_ns += direct;
  }
  return a;
}

}  // namespace numabfs::rt::coll_model
