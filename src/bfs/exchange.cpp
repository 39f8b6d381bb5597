#include "bfs/exchange.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "runtime/allgather.hpp"

namespace numabfs::bfs {

namespace cm = rt::coll_model;
namespace codec = graph::codec;

namespace {

/// Summary-bit range [sb, se) covering partition `part`'s vertex block.
std::pair<std::uint64_t, std::uint64_t> summary_range(const DistState& st,
                                                      std::uint64_t block_bits,
                                                      int part) {
  const std::uint64_t g = st.config().summary_granularity;
  const std::uint64_t sb = static_cast<std::uint64_t>(part) * block_bits / g;
  const std::uint64_t se = std::min(
      st.summary_bits(),
      (static_cast<std::uint64_t>(part + 1) * block_bits + g - 1) / g);
  return {sb, se};
}

/// Wipe partition `part`'s out_queue chunk and out_summary share for the
/// next level. The owner wipes its share of the summary map (a private map
/// whole, its word slice of a node map); an adopter clears a crashed
/// owner's summary range.
void clear_out_bits(rt::Proc& p, const graph::DistGraph& dg, DistState& st,
                    const UnitCosts& u, sim::Phase phase, int part) {
  const std::uint64_t block_bits = dg.part.block();
  const std::uint64_t block_words = block_bits / 64;
  auto out_q = st.out_queue(part);
  const std::uint64_t off = static_cast<std::uint64_t>(part) * block_words;
  std::memset(out_q.words().data() + off, 0, block_words * 8);

  auto out_s = st.out_summary(part);
  auto sw = out_s.bits().words();
  if (part == p.rank && !st.shared_out()) {
    // Private: only our own range was ever set; the whole map is tiny.
    std::memset(sw.data(), 0, sw.size() * 8);
    p.charge(phase, u.stream_pass_ns(block_words + sw.size()));
    return;
  }
  if (part == p.rank) {
    // Shared: the node's ranks wipe disjoint word slices of the node map.
    const int ppn = p.ppn;
    const std::size_t lo = sw.size() * static_cast<std::size_t>(p.local) /
                           static_cast<std::size_t>(ppn);
    const std::size_t hi = sw.size() * static_cast<std::size_t>(p.local + 1) /
                           static_cast<std::size_t>(ppn);
    std::memset(sw.data() + lo, 0, (hi - lo) * 8);
    p.charge(phase, u.stream_pass_ns(block_words + (hi - lo)));
    return;
  }

  // Unlike the healthy wipe (disjoint local slices of a node map), the dead
  // owner's summary share has no other writer left, so the adopter clears
  // exactly the partition's summary range.
  const auto [sb, se] = summary_range(st, block_bits, part);
  const faults::FaultInjector* inj = p.cluster->injector();
  if (!st.shared_out() || inj == nullptr) {
    out_s.bits().clear_range(sb, se);
  } else {
    // In a node map the live ranks are wiping their own word slices in
    // this same phase, so the adopter clears only the part of the range
    // inside dead ranks' slices: every word keeps one writer, and the map
    // ends as if the whole range were cleared.
    const std::uint64_t words = sw.size();
    const auto ppn = static_cast<std::uint64_t>(p.ppn);
    const int node = p.cluster->node_of(part);
    for (int l = 0; l < p.ppn; ++l) {
      if (!inj->dead(node * p.ppn + l)) continue;
      const auto ul = static_cast<std::uint64_t>(l);
      const std::uint64_t lo = std::max(sb, words * ul / ppn * 64);
      const std::uint64_t hi = std::min(se, words * (ul + 1) / ppn * 64);
      if (lo < hi) out_s.bits().clear_range(lo, hi);
    }
  }
  p.charge(phase, u.stream_pass_ns(block_words + (se - sb + 63) / 64));
}

/// Direction-switch conversion (td -> bu): materialize partition `part`'s
/// out_queue / out_queue_summary bits from this level's discovered list,
/// so the bitmap exchange can build the next in_queue.
void discovered_to_out_bits(rt::Proc& p, DistState& st, const UnitCosts& u,
                            int part) {
  auto out_q = st.out_queue(part);
  auto out_s = st.out_summary(part);
  const auto& discovered = st.discovered(part);
  for (graph::Vertex v : discovered) {
    out_q.set(v);
    out_s.mark(v);
  }
  p.charge(sim::Phase::switch_conv,
           static_cast<double>(discovered.size()) * 2.0 * u.write_ns /
               u.omp_div);
}

}  // namespace

ExchangePlan select_plan(const rt::Proc& p, const Config& cfg) {
  const rt::Cluster& c = *p.cluster;
  const faults::FaultInjector* inj = c.injector();
  const bool degraded = inj != nullptr && inj->any_dead();
  ExchangePlan plan;
  if (cfg.sharing == Sharing::none || c.ppn() == 1)
    plan.kind = PlanKind::library;
  else if (cfg.sharing == Sharing::in_queue)
    plan.kind = PlanKind::leader_gather;
  else if (cfg.parallel_allgather && !degraded)
    plan.kind = PlanKind::parallel;
  else
    plan.kind = PlanKind::leader;
  plan.base_algo = cfg.base_algo;
  plan.acts_leader = degraded ? p.local == inj->lowest_live_local(p.node)
                              : p.is_node_leader();
  plan.chunks = std::max(1, cfg.exchange_chunks);
  plan.assemble_chunks = plan.kind == PlanKind::parallel
                             ? static_cast<std::uint64_t>(c.topo().nodes())
                             : static_cast<std::uint64_t>(c.nranks());
  return plan;
}

cm::CollTimes plan_time(const rt::Cluster& c, const ExchangePlan& plan,
                        std::uint64_t chunk_bytes) {
  switch (plan.kind) {
    case PlanKind::library:
      return rt::allgather_time(c, c.world(), chunk_bytes, plan.base_algo);
    // Shared replicas drop the broadcast step (Fig. 5b), shared out slabs
    // the gather step too; the parallel plan rings ppn flows per node.
    case PlanKind::leader_gather:
      return cm::leader_allgather(c, chunk_bytes, true, false, 1);
    case PlanKind::leader:
      return cm::leader_allgather(c, chunk_bytes, false, false, 1);
    case PlanKind::parallel:
      return cm::leader_allgather(c, chunk_bytes, false, false, c.ppn());
  }
  throw std::logic_error("plan_time: unknown plan");
}

double stretched_ns(const rt::Proc& p, const cm::CollTimes& t) {
  const faults::FaultInjector* inj = p.cluster->injector();
  if (inj == nullptr) return t.total_ns;
  const double lf = inj->min_link_factor(p.clock.now_ns());
  return t.total_ns + t.inter_ns * (1.0 / lf - 1.0);
}

double overlap_decode_ns(rt::Proc& p, double wire_ns, double decode_ns,
                         int chunks, double split_ns) {
  const double total_ns =
      cm::pipelined2_ns(wire_ns, decode_ns, chunks) + split_ns;
  p.prof.add_overlap_saved(wire_ns + decode_ns - total_ns);
  return total_ns;
}

double run_plan(rt::Proc& p, const UnitCosts& u, sim::Phase phase,
                const ExchangePlan& plan, const PlanWire& wire,
                const std::function<void()>& reset,
                const std::function<void(int)>& land) {
  rt::Cluster& c = *p.cluster;
  p.barrier(c.world(), sim::Phase::stall);  // every partition's out data ready

  if (plan.kind == PlanKind::parallel) {
    // Each color assembles its slice of every node chunk in place; blocks
    // are word-disjoint, but the shared summary needs one wipe before the
    // colors' merges.
    if (p.is_node_leader()) reset();
    p.barrier(c.node_comm(p.node), sim::Phase::stall);
    for (int m = 0; m < c.topo().nodes(); ++m) land(m * c.ppn() + p.local);
  } else if (plan.kind == PlanKind::library || plan.acts_leader) {
    reset();
    for (int r = 0; r < c.nranks(); ++r) land(r);
  }

  // A degraded fabric stretches each collective's inter-node stage.
  double total_ns = stretched_ns(p, plan_time(c, plan, wire.chunk_bytes));
  if (wire.summary_bytes > 0)
    total_ns += stretched_ns(p, plan_time(c, plan, wire.summary_bytes));
  if (wire.coded) {
    // The decode of wire chunk i proceeds while chunk i+1 is in flight.
    total_ns = overlap_decode_ns(
        p, total_ns,
        u.stream_pass_ns(plan.assemble_chunks * wire.decode_words),
        plan.chunks, static_cast<double>(plan.chunks - 1) * wire.split_ns);
  }
  p.charge(phase, total_ns);
  p.barrier(c.world(), phase);  // the collective completes together
  return total_ns;
}

std::string gate_trace_args(int level, const ExchangeLevelStats& ex) {
  return obs::kv("level", level) + "," +
         obs::kv("kind", codec::to_string(ex.codec)) + "," +
         obs::kv("wire_bytes", ex.wire_bytes) + "," +
         obs::kv("raw_bytes", ex.raw_bytes) + "," +
         obs::kv("mean_pop", ex.gate.mean_pop) + "," +
         obs::kv("raw_est_ns", ex.gate.raw_est_ns) + "," +
         obs::kv("coded_est_ns", ex.gate.coded_est_ns) + "," +
         obs::kv("reduce_ns", ex.gate.reduce_ns);
}

void decode_bitmap_checked(std::span<const std::uint8_t> in,
                           std::span<std::uint64_t> words, const char* what,
                           int src_rank) {
  const std::size_t used = codec::decode_bitmap(in, words);
  if (used != in.size())
    throw std::invalid_argument(
        std::string(what) + ": bitmap encoding from rank " +
        std::to_string(src_rank) + " decoded " + std::to_string(used) +
        " of " + std::to_string(in.size()) + " bytes");
}

GateResult gate_bitmap_chunks(
    rt::Proc& p, rt::Comm& comm, CodecMode mode, int pipeline_chunks,
    std::span<GateChunk> chunks, std::uint64_t set_bits,
    std::uint64_t chunk_words, std::uint64_t chunk_bits,
    std::uint64_t decode_chunks, const UnitCosts& u, sim::Phase phase,
    const std::function<double(std::uint64_t)>& plan_total_ns,
    double per_chunk_ns) {
  GateResult res;
  res.wire_chunk_bytes = chunk_words * 8;
  const int total = comm.size();
  if (mode == CodecMode::off || total <= 1) {
    res.popcount_free = true;
    return res;
  }
  const int K = std::max(1, pipeline_chunks);

  // Chunks are skewed (R-MAT hubs cluster), and every collective plan moves
  // each chunk once per hop, so the honest per-chunk wire charge — and the
  // gate's input — is the *mean* encoded chunk, not the densest one: the
  // global set-bit count (and below, encoded bytes) divided by the global
  // chunk count (== comm size: one chunk per partition).
  res.mean_pop = set_bits / static_cast<std::uint64_t>(total);

  // Splitting into K chunks pays (K-1) * per_chunk_ns on top of the
  // pipelined time — the same charge the final exchange pays, so the gate
  // optimizes exactly what is charged. A trial encode also pays the
  // reduction of the measured sizes, the gate's one collective: at a
  // thousand ranks its latency rounds outweigh the bytes a codec saves on
  // a small chunk, so it is priced into both coded estimates, at exactly
  // the charge rt::allreduce pays.
  const double split_ns = static_cast<double>(K - 1) * per_chunk_ns;
  res.reduce_ns = cm::allreduce_ns(*p.cluster, comm);
  res.raw_est_ns = plan_total_ns(chunk_words * 8);
  const double enc_est = u.stream_pass_ns(chunk_words);
  const double dec_est = u.stream_pass_ns(decode_chunks * chunk_words);
  const auto coded_est = [&](std::uint64_t bytes) {
    return res.reduce_ns + enc_est + split_ns +
           cm::pipelined2_ns(plan_total_ns(bytes), dec_est, K);
  };
  const double dense_est =
      coded_est(codec::dense_estimate_bytes(chunk_words, res.mean_pop));
  const double sparse_est =
      coded_est(codec::sparse_estimate_bytes(res.mean_pop, chunk_bits));
  res.coded_est_ns = std::min(dense_est, sparse_est);

  // The estimates assume uniform density, but chunks are skewed, so a level
  // whose *mean* density looks hopeless can still compress on its sparse
  // chunks (each chunk falls back to raw + 1 at worst). Trial-encode
  // whenever the analytic estimate lands within 1.5x of raw; the final pick
  // is then made on the measured bytes, with the (already charged) encode
  // pass sunk.
  codec::Kind trial = codec::Kind::raw;
  switch (mode) {
    case CodecMode::force_dense:
      trial = codec::Kind::dense_bitmap;
      break;
    case CodecMode::force_sparse:
      trial = codec::Kind::sparse_list;
      break;
    default:
      if (res.coded_est_ns < res.raw_est_ns * 1.5)
        trial = sparse_est <= dense_est ? codec::Kind::sparse_list
                                       : codec::Kind::dense_bitmap;
  }
  if (trial == codec::Kind::raw) {
    // Every popcount's estimate is at least popcount 0's, so when that one
    // fails the trial test too, no frontier could have changed the pick.
    res.popcount_free =
        coded_est(std::min(codec::dense_estimate_bytes(chunk_words, 0),
                           codec::sparse_estimate_bytes(0, chunk_bits))) >=
        res.raw_est_ns * 1.5;
    return res;
  }

  // Encode for real; wire time is then charged on the *measured*
  // (allreduce-summed) encoded sizes, never on the gate's estimate.
  std::uint64_t my_enc = 0;
  double encode_ns = 0;
  for (GateChunk& ch : chunks) {
    ch.enc->clear();
    std::size_t nb;
    if (trial == codec::Kind::dense_bitmap)
      nb = codec::encode_dense(ch.words, *ch.enc,
                               ch.guide ? &*ch.guide : nullptr,
                               ch.guide_base_bit);
    else
      nb = codec::encode_bitmap_sparse(ch.words, *ch.enc);
    my_enc += static_cast<std::uint64_t>(nb);
    encode_ns += u.stream_pass_ns(chunk_words + (nb + 7) / 8);
  }
  p.charge(phase, encode_ns);
  std::array<std::uint64_t, 1> enc_sum{my_enc};
  rt::allreduce(p, comm, enc_sum, std::array{rt::ReduceOp::sum},
                sim::Phase::stall);
  const std::uint64_t enc_mean =
      (enc_sum[0] + static_cast<std::uint64_t>(total) - 1) /
      static_cast<std::uint64_t>(total);
  if (mode != CodecMode::gate ||
      cm::pipelined2_ns(plan_total_ns(enc_mean), dec_est, K) + split_ns <
          res.raw_est_ns) {
    res.kind = trial;
    res.wire_chunk_bytes = enc_mean;
  }
  return res;
}

ExchangeLevelStats exchange_sparse(rt::Proc& p, const graph::DistGraph& dg,
                                   DistState& st, const UnitCosts& u,
                                   sim::Phase phase, bool wipe_out,
                                   std::span<const int> parts) {
  rt::Cluster& c = *p.cluster;
  const faults::FaultInjector* inj = c.injector();
  rt::Comm& world = c.world();
  const int np = c.nranks();
  const bool try_codec = st.config().codec != CodecMode::off && np > 1;

  // Publish each owned partition's list, raw or delta-varint coded from the
  // partition's enc_buf: each list rides coded only where its own encoding
  // is smaller (tiny tail/startup lists inflate under varint headers: a
  // 1-vertex list costs 5 coded bytes vs 4 raw), so no rank needs another's
  // sizes and the exchange runs no reduction. The size slot carries the
  // list's form in its low bit and its length above it: vertices raw, bytes
  // coded. Adopted partitions are impersonated into the dead owners' slots
  // so the dense assembly loop below needs no holes.
  const auto publish_part = [&](int q) {
    const auto& list = st.discovered(q);
    auto& buf = st.enc_buf(q);
    const std::uint64_t raw = list.size() * sizeof(graph::Vertex);
    if (try_codec && !list.empty()) {
      buf.clear();
      const std::size_t nb =
          codec::encode_list({list.data(), list.size()}, buf);
      p.charge(phase, u.stream_pass_ns(raw / 8 + (nb + 7) / 8));
      if (nb < raw) {
        world.publish_ptr(q, buf.data());
        world.publish_val(q, buf.size() << 1 | 1);
        return;
      }
    }
    world.publish_ptr(q, list.data());
    world.publish_val(q, list.size() << 1);
  };
  for_owned_parts(p, parts, publish_part);
  p.barrier(world, sim::Phase::stall);  // lists ready

  auto& frontier = st.frontier(p.rank);
  frontier.clear();
  ExchangeLevelStats stats;
  std::uint64_t intra_bytes = 0, inter_bytes = 0;
  std::uint64_t decode_bytes = 0;  // received coded lists, coded + raw
  for (int r = 0; r < np; ++r) {
    const bool coded = (world.val(r) & 1) != 0;
    std::uint64_t bytes = world.val(r) >> 1;  // what rides the wire
    std::uint64_t count;
    if (coded) {
      stats.codec = codec::Kind::sparse_list;
      const auto* src = static_cast<const std::uint8_t*>(world.ptr(r));
      const std::size_t before = frontier.size();
      // Strict framing: a decode that stops short of the published size
      // accepted a corrupted stream whose trailing bytes it never looked
      // at — the checksummed-retransmit path needs a hard error instead.
      const std::size_t used = codec::decode_list({src, bytes}, frontier);
      if (used != bytes)
        throw std::invalid_argument(
            "exchange_sparse: list encoding from rank " + std::to_string(r) +
            " decoded " + std::to_string(used) + " of " +
            std::to_string(bytes) + " published bytes");
      count = frontier.size() - before;
    } else {
      count = bytes;
      const auto* src = static_cast<const graph::Vertex*>(world.ptr(r));
      frontier.insert(frontier.end(), src, src + count);
      bytes = count * sizeof(graph::Vertex);
    }
    if (r == p.rank) continue;
    stats.wire_bytes += bytes;
    stats.raw_bytes += count * sizeof(graph::Vertex);
    if (coded) decode_bytes += bytes + count * sizeof(graph::Vertex);
    (c.node_of(r) == p.node ? intra_bytes : inter_bytes) += bytes;
  }
  p.prof.counters().bytes_intra_node += intra_bytes;
  p.prof.counters().bytes_inter_node += inter_bytes;
  p.prof.counters().bytes_raw_equiv += stats.raw_bytes;
  // The decode pass over the received encodings.
  p.charge(phase, u.stream_pass_ns(decode_bytes / 8));

  const auto& cp = c.params();
  double inter_bw = c.link().nic_flow_bw(1, cm::min_nic_factor(c));
  if (inj != nullptr)
    inter_bw *= inj->min_link_factor(p.clock.now_ns());
  const double t =
      static_cast<double>(np - 1) * cp.nic_msg_latency_ns +
      static_cast<double>(inter_bytes) / inter_bw +
      static_cast<double>(intra_bytes) * cp.cico_factor /
          c.link().shm_flow_bw(1);
  p.charge(phase, t);

  if (wipe_out)
    for_owned_parts(p, parts, [&](int q) {
      clear_out_bits(p, dg, st, u, sim::Phase::switch_conv, q);
    });
  p.barrier(world, phase);
  return stats;
}

ExchangeTimes exchange_frontier(rt::Proc& p, const graph::DistGraph& dg,
                                DistState& st, const UnitCosts& u,
                                sim::Phase phase, std::uint64_t frontier_bits,
                                std::span<const int> parts) {
  rt::Cluster& c = *p.cluster;
  const Config& cfg = st.config();
  const std::uint64_t block_bits = dg.part.block();
  const std::uint64_t block_words = block_bits / 64;
  const ExchangePlan plan = select_plan(p, cfg);
  const double split_ns = c.params().chunk_split_overhead_ns;

  // --- per-level codec gate (DESIGN.md §10) -----------------------------
  // Every rank computes the same decision from allreduced measured sparsity
  // and rank-uniform unit costs — the same SPMD-deterministic pattern as
  // the MS-BFS kernel chooser. A level near 50% density estimates above the
  // raw wire cost and stays raw. The machinery itself is shared with the
  // 2-D exchange (gate_bitmap_chunks); this call site only describes the
  // 1-D out_queue chunks and prices them with the plan's own time.
  std::vector<GateChunk> gate_chunks;
  const auto offer = [&](int q) {
    GateChunk ch;
    ch.words = st.out_queue(q).words().subspan(
        static_cast<std::uint64_t>(q) * block_words, block_words);
    ch.guide = st.out_summary(q);
    ch.guide_base_bit = static_cast<std::uint64_t>(q) * block_bits;
    ch.enc = &st.enc_buf(q);
    gate_chunks.push_back(ch);
  };
  for_owned_parts(p, parts, offer);
  const GateResult gate = gate_bitmap_chunks(
      p, c.world(), cfg.codec, plan.chunks, gate_chunks, frontier_bits,
      block_words, block_bits, plan.assemble_chunks, u, phase,
      [&](std::uint64_t b) { return plan_time(c, plan, b).total_ns; },
      split_ns);
  const codec::Kind kind = gate.kind;

  // --- real assembly of one source partition (time is the plan's) -------
  auto in_q = st.in_queue(p.rank);
  auto in_s = st.in_summary(p.rank);
  const auto land = [&](int src) {
    const std::uint64_t off = static_cast<std::uint64_t>(src) * block_words;
    std::uint64_t bytes = block_words * 8;  // raw wire size
    if (kind == codec::Kind::raw) {
      auto words = st.out_queue(src).words();
      std::memcpy(in_q.words().data() + off, words.data() + off,
                  block_words * 8);
    } else {
      const auto& buf = st.enc_buf(src);
      // Strict framing (see exchange_sparse): the encoding must account for
      // every published byte, or the stream was corrupted.
      decode_bitmap_checked({buf.data(), buf.size()},
                            in_q.words().subspan(off, block_words),
                            "exchange_frontier", src);
      bytes = buf.size();
    }
    // The parallel plan's subgroups merge into one node summary at once,
    // so a range's boundary words merge atomically.
    const auto [sb, se] = summary_range(st, block_bits, src);
    if (sb < se)
      graph::copy_bits(in_s.bits().words(), sb,
                       st.out_summary(src).bits().words(), sb, se - sb,
                       /*atomic_boundaries=*/true);
    if (src == p.rank) return;  // own chunk: no transmission (Eq. (1))
    if (c.node_of(src) == p.node)
      p.prof.counters().bytes_intra_node += bytes;
    else
      p.prof.counters().bytes_inter_node += bytes;
    p.prof.counters().bytes_raw_equiv += block_words * 8;
  };
  const auto reset = [&] {
    auto w = in_s.bits().words();
    std::memset(w.data(), 0, w.size() * 8);
  };

  // The queue allgather rides `wire_chunk_bytes` — the measured encoded
  // chunk when a codec is active, the raw chunk otherwise. The summary
  // allgather always rides raw (it is itself the compressed digest).
  PlanWire wire;
  wire.chunk_bytes = gate.wire_chunk_bytes;
  wire.summary_bytes = std::max<std::uint64_t>(
      1, block_bits / (8 * cfg.summary_granularity));
  wire.coded = kind != codec::Kind::raw;
  wire.decode_words = block_words;
  wire.split_ns = split_ns;
  ExchangeTimes ex;
  ex.total_ns = run_plan(p, u, phase, plan, wire, reset, land);

  for_owned_parts(p, parts,
                  [&](int q) { clear_out_bits(p, dg, st, u, phase, q); });
  p.barrier(c.world(), sim::Phase::stall);  // wipes land before the next level

  ex.gate = gate;
  return ex;
}

ExchangeLevelStats OneDExchange::exchange(rt::Proc& p, int cur_dir,
                                          int next_dir, std::uint64_t nf,
                                          std::span<const int> parts) {
  ExchangeLevelStats s;
  if (next_dir == 1) {
    // Next level searches bottom-up: it needs the in_queue bitmap. A
    // top-down level only produced a sparse list — materialize it
    // ("Switch" in Fig. 11), then run the two allgathers of Fig. 1.
    if (cur_dir == 0)
      for (int q : parts) discovered_to_out_bits(p, st_, u_, q);
    const ExchangeTimes ex =
        exchange_frontier(p, dg_, st_, u_, sim::Phase::bu_comm, nf, parts);
    s.codec = ex.gate.kind;
    s.wire_bytes = ex.gate.wire_chunk_bytes;
    s.raw_bytes = dg_.part.block() / 8;
    s.bitmap = true;
    s.gate = ex.gate;
  } else {
    // Next level is top-down: the sparse list exchange suffices; when
    // leaving bottom-up, the stale out bitmaps are wiped on the way.
    s = exchange_sparse(p, dg_, st_, u_, sim::Phase::td_comm,
                        /*wipe_out=*/cur_dir == 1, parts);
  }
  return s;
}

}  // namespace numabfs::bfs
