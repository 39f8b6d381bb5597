#include "bfs2d/exchange2d.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "faults/injector.hpp"
#include "graph/codec.hpp"
#include "obs/trace.hpp"
#include "runtime/allgather.hpp"
#include "runtime/coll_model.hpp"

namespace numabfs::bfs2d {

namespace cm = rt::coll_model;
namespace codec = graph::codec;

State2d::State2d(const DistGraph2d& dg, std::uint64_t summary_granularity) {
  const Grid2d& g = dg.grid;
  const int np = g.np();
  const std::uint64_t piece = g.piece_bits();
  frontier.reserve(np);
  next.reserve(np);
  visited.reserve(np);
  colband.reserve(np);
  colband_summary.reserve(np);
  row_visited.reserve(np);
  for (int r = 0; r < np; ++r) {
    frontier.emplace_back(piece);
    next.emplace_back(piece);
    visited.emplace_back(piece);
    colband.emplace_back(g.colband_bits());
    colband_summary.emplace_back(g.colband_bits(), summary_granularity);
    row_visited.emplace_back(g.band_bits());
  }
  pred.assign(static_cast<std::size_t>(np),
              std::vector<graph::Vertex>(piece, graph::kNoVertex));
  unvisited_edges.assign(static_cast<std::size_t>(np), 0);
  out_children.assign(static_cast<std::size_t>(np),
                      std::vector<std::vector<graph::Vertex>>(
                          static_cast<std::size_t>(g.cols())));
  out_parents = out_children;
  enc_piece.resize(static_cast<std::size_t>(np));
  enc_fold.assign(static_cast<std::size_t>(np),
                  std::vector<std::vector<std::uint8_t>>(
                      static_cast<std::size_t>(g.cols())));
}

const char* to_string(BandPlan b) {
  switch (b) {
    case BandPlan::column: return "column";
    case BandPlan::row: return "row";
  }
  return "?";
}

namespace {

/// A transpose message of `bytes`: one NIC message among the node's ppn
/// concurrent flows (every member of a node receives one).
double transpose_price_ns(const rt::Cluster& c, std::uint64_t bytes) {
  return c.params().nic_msg_latency_ns +
         static_cast<double>(bytes) /
             c.link().nic_flow_bw(c.ppn(), cm::min_nic_factor(c));
}

/// The column allgather: R members, one per node, ppn columns per node.
cm::CollTimes column_allgather(const rt::Cluster& c, const Grid2d& g,
                               std::uint64_t b, cm::HierLevel hier) {
  return cm::hier_subgroup_allgather(c, g.rows(), 1, c.ppn(), b, hier);
}

/// The row allgather: C members over C/ppn nodes, ppn of them per node.
cm::CollTimes row_allgather(const rt::Cluster& c, const Grid2d& g,
                            std::uint64_t b, cm::HierLevel hier) {
  return cm::hier_subgroup_allgather(c, std::max(1, g.cols() / c.ppn()),
                                     std::min(c.ppn(), g.cols()), 1, b, hier);
}

}  // namespace

BandPlan pick_plan(const Grid2d& g, int next_dir, bool rows_fresh,
                   bool degraded) {
  const bool row = g.rows() > 1 && g.cols() % g.rows() == 0 && !degraded &&
                   (next_dir == 0 || rows_fresh);
  return row ? BandPlan::row : BandPlan::column;
}

double plan_ns(const rt::Cluster& c, const Grid2d& g, cm::HierLevel hier,
               BandPlan plan, bool row_leg, std::uint64_t chunk_bytes) {
  const int R = g.rows();
  double t = row_leg && g.cols() > 1
                 ? row_allgather(c, g, chunk_bytes, hier).total_ns
                 : 0.0;
  if (R > 1)
    t += plan == BandPlan::row
             ? transpose_price_ns(
                   c, chunk_bytes * static_cast<std::uint64_t>(R))
             : transpose_price_ns(c, chunk_bytes) +
                   column_allgather(c, g, chunk_bytes, hier).total_ns;
  return t;
}

std::uint64_t TwoDExchange::piece_wire_bytes(codec::Kind kind, int o) const {
  return kind == codec::Kind::raw
             ? dg_.grid.piece_bits() / 8
             : st_.enc_piece[static_cast<std::size_t>(o)].size();
}

void TwoDExchange::land_piece(codec::Kind kind, int o,
                              std::span<std::uint64_t> dst) const {
  if (kind == codec::Kind::raw) {
    auto src = st_.frontier[static_cast<std::size_t>(o)].view().words();
    std::memcpy(dst.data(), src.data(), dst.size() * 8);
  } else {
    const auto& buf = st_.enc_piece[static_cast<std::size_t>(o)];
    bfs::decode_bitmap_checked({buf.data(), buf.size()}, dst, "expand2d", o);
  }
}

double TwoDExchange::p2p_ns(const rt::Proc& p, int src, int dst,
                            std::uint64_t bytes, std::uint64_t& intra,
                            std::uint64_t& inter) const {
  const rt::Cluster& c = *p.cluster;
  if (c.node_of(src) == c.node_of(dst)) {
    intra += bytes;
    return c.params().cico_factor * static_cast<double>(bytes) /
           c.link().shm_flow_bw(1);
  }
  inter += bytes;
  const double alpha = c.params().nic_msg_latency_ns;
  const double t =
      c.link().nic_transfer_ns(bytes, p.ppn, c.node_of(src), c.node_of(dst));
  const faults::FaultInjector* inj = c.injector();
  return inj == nullptr
             ? t
             : alpha + (t - alpha) / inj->min_link_factor(p.clock.now_ns());
}

bfs::ExchangeLevelStats TwoDExchange::build_inputs(rt::Proc& p, int dir,
                                                   std::uint64_t frontier_bits,
                                                   std::span<const int> parts) {
  return deliver(p, dir, frontier_bits, parts, /*after_level=*/false,
                 /*reduce_ns=*/0.0);
}

bfs::ExchangeLevelStats TwoDExchange::deliver(rt::Proc& p, int dir,
                                              std::uint64_t frontier_bits,
                                              std::span<const int> parts,
                                              bool after_level,
                                              double reduce_ns) {
  rt::Cluster& c = *p.cluster;
  const faults::FaultInjector* inj = c.injector();
  rt::Comm& world = c.world();
  const Grid2d& g = dg_.grid;
  const int R = g.rows();
  const int C = g.cols();
  const std::uint64_t piece_words = g.piece_bits() / 64;
  const std::uint64_t piece_bytes = piece_words * 8;
  const bfs::UnitCosts& u = costs_[static_cast<std::size_t>(p.rank)];
  const sim::Phase phase = dir == 1 ? sim::Phase::bu_comm : sim::Phase::td_comm;
  const int K = std::max(1, opt_.exchange_chunks);
  const bool degraded = inj != nullptr && inj->any_dead();
  const cm::HierLevel hier = degraded ? cm::HierLevel::flat : opt_.hier;
  const double t0 = p.clock.now_ns();

  // A rollback rebuilds from the restored frontier pieces alone, by the
  // column plan. A level exchange serves the row replicas too: by the row
  // leg while they are current, else, before a bottom-up level, by the
  // rebuild from the visited pieces.
  const bool fresh = after_level && rows_fresh_;
  const bool rebuild = after_level && dir == 1 && !rows_fresh_;
  const BandPlan plan = pick_plan(g, dir, fresh, degraded || !after_level);
  // The row plan always runs the row leg; the column plan before a
  // bottom-up level while the replicas are current.
  const bool row_leg = plan == BandPlan::row || (fresh && dir == 1);

  // One gate decision covers every leg the pieces ride, priced by the plan.
  std::vector<bfs::GateChunk> chunks;
  bfs::for_owned_parts(p, parts, [&](int q) {
    bfs::GateChunk ch;
    ch.words = st_.frontier[static_cast<std::size_t>(q)].view().words();
    ch.enc = &st_.enc_piece[static_cast<std::size_t>(q)];
    chunks.push_back(ch);
  });
  const bfs::GateResult gate = bfs::gate_bitmap_chunks(
      p, world, opt_.codec, K, chunks, frontier_bits, piece_words,
      g.piece_bits(), static_cast<std::uint64_t>(R + (row_leg ? C : 0)), u,
      phase, [&](std::uint64_t b) {
        return plan_ns(c, g, hier, plan, row_leg, b);
      });
  const codec::Kind kind = gate.kind;
  const bool coded = kind != codec::Kind::raw;
  legs_.expand_codec = static_cast<int>(kind);
  legs_.plan = static_cast<int>(plan);
  // The row plan's wire legs need neither the next direction nor, with a
  // popcount-free pick, the reduced stats, so they hide under the level's
  // reduction: a rank pays what of them outlasts it.
  const double hide_ns =
      plan == BandPlan::row && gate.popcount_free ? reduce_ns : 0.0;
  double hidden_ns = 0;

  p.barrier(world, sim::Phase::stall);  // frontier pieces/encodings ready

  std::uint64_t wire0 = 0, raw0 = 0;
  std::uint64_t intra = 0, inter = 0;
  const auto count = [&](std::uint64_t& wire, std::uint64_t& raw,
                         std::uint64_t b, std::uint64_t r) {
    wire += b;
    raw += r;
    wire0 += b;
    raw0 += r;
    p.prof.counters().bytes_raw_equiv += r;
  };

  if (rebuild) {
    // td -> bu switch: the replicas missed the top-down levels' claims —
    // rebuild them outright from the row's visited pieces (dense maps; a
    // codec would only add headers). Charged to switch_conv, like the
    // 1-D's discovered-list materialization.
    for (int q : parts) {
      const int iq = g.row_of(q);
      auto rv = st_.row_visited[static_cast<std::size_t>(q)].view().words();
      for (int k = 0; k < C; ++k) {
        const int m = g.rank_at(iq, k);
        auto src = st_.visited[static_cast<std::size_t>(m)].view().words();
        std::memcpy(rv.data() + static_cast<std::uint64_t>(k) * piece_words,
                    src.data(), piece_bytes);
        if (m == q) continue;
        count(legs_.ret_wire, legs_.ret_raw, piece_bytes, piece_bytes);
        (c.node_of(m) == c.node_of(q) ? intra : inter) += piece_bytes;
      }
      p.charge(sim::Phase::switch_conv,
               bfs::stretched_ns(p, row_allgather(c, g, piece_bytes, hier)) +
                   u.stream_pass_ns(g.band_bits() / 64));
    }
  }

  for (int q : parts) {
    const int iq = g.row_of(q);
    const int jq = g.col_of(q);
    double leg_ns = 0;
    // Wire legs add up apart only where they may hide, so every other
    // input build charges exactly the sum it always did.
    double posted_ns = 0;
    double& wire_ns = hide_ns > 0 ? posted_ns : leg_ns;
    if (row_leg) {
      // The row allgather of the new frontier pieces, OR-ed into the
      // replica.
      auto rv = st_.row_visited[static_cast<std::size_t>(q)].view().words();
      for (int k = 0; k < C; ++k) {
        const int m = g.rank_at(iq, k);
        auto dst = rv.subspan(static_cast<std::uint64_t>(k) * piece_words,
                              piece_words);
        dec_piece_.resize(piece_words);
        land_piece(kind, m, dec_piece_);
        for (std::uint64_t w = 0; w < piece_words; ++w) dst[w] |= dec_piece_[w];
        if (m == q) continue;
        const std::uint64_t b = piece_wire_bytes(kind, m);
        count(legs_.ret_wire, legs_.ret_raw, b, piece_bytes);
        (c.node_of(m) == c.node_of(q) ? intra : inter) += b;
      }
      leg_ns += u.stream_pass_ns(g.band_bits() / 64);  // the OR pass
      if (C > 1) {
        double tot = bfs::stretched_ns(
            p, row_allgather(c, g, gate.wire_chunk_bytes, hier));
        if (coded)
          tot = bfs::overlap_decode_ns(
              p, tot,
              u.stream_pass_ns(static_cast<std::uint64_t>(C) * piece_words),
              K);
        wire_ns += tot;
      }
    }

    // Real assembly: col-band slot k <- piece j*R + k, decoded or copied.
    auto cb = st_.colband[static_cast<std::size_t>(q)].view().words();
    std::uint64_t band_bytes = 0;
    for (int k = 0; k < R; ++k) {
      const int o = g.transpose_src(k, jq);
      land_piece(kind, o,
                 cb.subspan(static_cast<std::uint64_t>(k) * piece_words,
                            piece_words));
      band_bytes += piece_wire_bytes(kind, o);
    }
    // Under the row plan partition q's transpose partner sends all of col
    // band j, as its R pieces rode the row leg.
    const int to = g.transpose_partner(q);
    if (plan == BandPlan::row) {
      // A partition that is its own partner holds its col band already.
      double band_ns = 0;
      if (to != q) {
        band_ns = p2p_ns(p, to, q, band_bytes, intra, inter);
        count(legs_.transpose_wire, legs_.transpose_raw, band_bytes,
              static_cast<std::uint64_t>(R) * piece_bytes);
      }
      if (coded)
        band_ns = bfs::overlap_decode_ns(
            p, band_ns,
            u.stream_pass_ns(static_cast<std::uint64_t>(R) * piece_words), K);
      wire_ns += band_ns;
      if (to != q) {
        expand_ns_sum_ += band_ns;
        ++expands_;
      }
    } else {
      // Transpose: partition q received exactly one piece, its own slot's.
      if (to != q) {
        const std::uint64_t b = piece_wire_bytes(kind, to);
        count(legs_.transpose_wire, legs_.transpose_raw, b, piece_bytes);
        wire_ns += p2p_ns(p, to, q, b, intra, inter);
      }
      // Expand: the other R-1 column members' contributions.
      for (int k = 0; k < R; ++k) {
        const int m = g.rank_at(k, jq);
        if (m == q) continue;
        const std::uint64_t b = piece_wire_bytes(kind, g.transpose_src(k, jq));
        count(legs_.expand_wire, legs_.expand_raw, b, piece_bytes);
        (c.node_of(m) == c.node_of(q) ? intra : inter) += b;
      }
      if (R > 1) {
        double tot = bfs::stretched_ns(
            p, column_allgather(c, g, gate.wire_chunk_bytes, hier));
        if (coded)
          tot = bfs::overlap_decode_ns(
              p, tot,
              u.stream_pass_ns(static_cast<std::uint64_t>(R) * piece_words),
              K);
        wire_ns += tot;
        expand_ns_sum_ += tot;
        ++expands_;
      }
    }
    if (hide_ns > 0) {
      const double h = std::min(posted_ns, hide_ns - hidden_ns);
      hidden_ns += h;
      leg_ns += posted_ns - h;
    }
    if (dir == 1) {
      // Bottom-up scans probe the col-band through its Fig. 8 summary;
      // rebuild it locally from the just-assembled band (no extra wire —
      // unlike the 1-D, which allgathers the summary as a second chunk).
      st_.colband_summary[static_cast<std::size_t>(q)].view().rebuild_range(
          st_.colband[static_cast<std::size_t>(q)].view(), 0,
          g.colband_bits());
      leg_ns += u.stream_pass_ns(g.colband_bits() / 64);
    }
    p.charge(phase, leg_ns);
  }
  p.prof.counters().bytes_intra_node += intra;
  p.prof.counters().bytes_inter_node += inter;
  p.prof.add_overlap_saved(hidden_ns);
  if (after_level) rows_fresh_ = rebuild || (rows_fresh_ && row_leg);

  p.barrier(world, phase);  // the level's inputs complete together
  p.trace_span(obs::kCatBfs, "2d.expand", t0, p.clock.now_ns(),
               obs::kv("kind", codec::to_string(kind)) + "," +
                   obs::kv("plan", to_string(plan)) + "," +
                   obs::kv("wire_bytes", wire0) + "," +
                   obs::kv("hidden_ns", hidden_ns));

  bfs::ExchangeLevelStats s;
  s.codec = kind;
  s.wire_bytes = wire0;
  s.raw_bytes = raw0;
  s.bitmap = true;
  s.gate = gate;
  return s;
}

FoldStats TwoDExchange::fold(rt::Proc& p, int dir, std::span<const int> parts) {
  rt::Cluster& c = *p.cluster;
  const faults::FaultInjector* inj = c.injector();
  rt::Comm& world = c.world();
  const Grid2d& g = dg_.grid;
  const int C = g.cols();
  const int ppn = p.ppn;
  const bfs::UnitCosts& u = costs_[static_cast<std::size_t>(p.rank)];
  const sim::Phase phase = dir == 1 ? sim::Phase::bu_comm : sim::Phase::td_comm;
  const sim::Phase comp = dir == 1 ? sim::Phase::bu_comp : sim::Phase::td_comp;
  const int K = std::max(1, opt_.exchange_chunks);
  const double t0 = p.clock.now_ns();

  // Encode each outbox's claim lists, like the 1-D sparse exchange: a list
  // rides coded only where its own encoding is smaller than raw, so no rank
  // needs another's sizes and the fold runs no reduction. The encoding
  // stays in enc_fold, which is left empty when the list rides raw.
  if (opt_.codec != bfs::CodecMode::off && g.np() > 1) {
    bfs::for_owned_parts(p, parts, [&](int q) {
      for (int k = 0; k < C; ++k) {
        const auto& ch = st_.out_children[static_cast<std::size_t>(q)]
                                         [static_cast<std::size_t>(k)];
        const auto& pa = st_.out_parents[static_cast<std::size_t>(q)]
                                        [static_cast<std::size_t>(k)];
        auto& buf = st_.enc_fold[static_cast<std::size_t>(q)]
                                [static_cast<std::size_t>(k)];
        buf.clear();
        if (ch.empty()) continue;  // absence is free either way
        codec::encode_list({ch.data(), ch.size()}, buf);
        codec::encode_list({pa.data(), pa.size()}, buf);
        p.charge(phase, u.stream_pass_ns(ch.size() * sizeof(graph::Vertex) /
                                             4 +
                                         (buf.size() + 7) / 8));
        if (buf.size() >= (ch.size() + pa.size()) * sizeof(graph::Vertex))
          buf.clear();
      }
    });
  }
  p.barrier(world, sim::Phase::stall);  // outboxes and encodings ready

  FoldStats fs;
  std::uint64_t intra = 0, inter = 0;
  std::uint64_t claims_seen = 0, accepts = 0;
  std::uint64_t decode_bytes = 0;  // received coded lists, coded + raw
  bool coded = false;  // a claim list rode coded to this rank
  for (int q : parts) {
    const int iq = g.row_of(q);
    const int jq = g.col_of(q);
    const std::uint64_t pb = g.piece_begin(q);
    auto vis = st_.visited[static_cast<std::size_t>(q)].view();
    auto nxt = st_.next[static_cast<std::size_t>(q)].view();
    auto& pr = st_.pred[static_cast<std::size_t>(q)];
    const auto& pdeg = dg_.piece_deg[static_cast<std::size_t>(q)];
    // Deterministic dedup: claims arrive in ascending column order, so the
    // surviving parent of a multiply-claimed child is reproducible.
    for (int k = 0; k < C; ++k) {
      const int peer = g.rank_at(iq, k);
      const auto& raw_ch = st_.out_children[static_cast<std::size_t>(peer)]
                                           [static_cast<std::size_t>(jq)];
      const auto& raw_pa = st_.out_parents[static_cast<std::size_t>(peer)]
                                          [static_cast<std::size_t>(jq)];
      const auto& buf = st_.enc_fold[static_cast<std::size_t>(peer)]
                                    [static_cast<std::size_t>(jq)];
      const graph::Vertex* ch = raw_ch.data();
      const graph::Vertex* pa = raw_pa.data();
      std::size_t cnt = raw_ch.size();
      std::uint64_t bytes = cnt * 2 * sizeof(graph::Vertex);
      if (!buf.empty()) {
        dec_children_.clear();
        dec_parents_.clear();
        const std::size_t used1 =
            codec::decode_list({buf.data(), buf.size()}, dec_children_);
        const std::size_t used2 = codec::decode_list(
            {buf.data() + used1, buf.size() - used1}, dec_parents_);
        // Strict framing + pairing: both lists must account for every
        // published byte and agree on the claim count.
        if (used1 + used2 != buf.size() ||
            dec_children_.size() != dec_parents_.size())
          throw std::invalid_argument(
              "fold2d: claim encoding from rank " + std::to_string(peer) +
              " decoded " + std::to_string(used1 + used2) + " of " +
              std::to_string(buf.size()) + " published bytes");
        ch = dec_children_.data();
        pa = dec_parents_.data();
        cnt = dec_children_.size();
        bytes = buf.size();
      }
      for (std::size_t i = 0; i < cnt; ++i) {
        const std::uint64_t lv = ch[i] - pb;
        ++claims_seen;
        if (vis.get(lv)) continue;
        vis.set(lv);
        pr[lv] = pa[i];
        nxt.set(lv);
        ++accepts;
        ++fs.discovered;
        fs.discovered_edges += pdeg[lv];
        st_.unvisited_edges[static_cast<std::size_t>(q)] -= pdeg[lv];
      }
      if (peer == q) continue;  // own claims never ride the wire
      const std::uint64_t raw_b = cnt * 2 * sizeof(graph::Vertex);
      if (!buf.empty()) {
        coded = true;
        decode_bytes += bytes + raw_b;
      }
      fs.wire_bytes += bytes;
      fs.raw_bytes += raw_b;
      legs_.fold_wire += bytes;
      legs_.fold_raw += raw_b;
      (c.node_of(peer) == c.node_of(q) ? intra : inter) += bytes;
    }
  }
  p.prof.counters().bytes_intra_node += intra;
  p.prof.counters().bytes_inter_node += inter;
  p.prof.counters().bytes_raw_equiv += fs.raw_bytes;
  p.prof.counters().queue_writes += accepts;
  // Owner-side merge: one visited probe per claim, pred + next per accept.
  p.charge(comp, (static_cast<double>(claims_seen) * u.visited_probe_ns +
                  static_cast<double>(accepts) * 2.0 * u.write_ns) /
                     u.omp_div);
  const double dec_ns = u.stream_pass_ns(decode_bytes / 8);

  // Modeled wire time: the row alltoallv is bounded by the node's NIC, so
  // the charge takes the whole node's inbound claim volume (every rank of a
  // node belongs to the same row when ppn | C). Adoption note: volumes are
  // attributed to partition homes; cross-row adoption only occurs when a
  // whole node died, and then the degraded (flat) model is active anyway.
  std::uint64_t node_intra = 0, node_inter = 0;
  for (int m = p.node * ppn; m < (p.node + 1) * ppn; ++m) {
    const int im = g.row_of(m);
    const int jm = g.col_of(m);
    for (int k = 0; k < C; ++k) {
      const int peer = g.rank_at(im, k);
      if (peer == m) continue;
      const auto& raw_ch = st_.out_children[static_cast<std::size_t>(peer)]
                                           [static_cast<std::size_t>(jm)];
      const auto& buf = st_.enc_fold[static_cast<std::size_t>(peer)]
                                    [static_cast<std::size_t>(jm)];
      const std::uint64_t bytes =
          buf.empty() ? raw_ch.size() * 2 * sizeof(graph::Vertex) : buf.size();
      (c.node_of(peer) == p.node ? node_intra : node_inter) += bytes;
    }
  }
  const bool degraded = inj != nullptr && inj->any_dead();
  const cm::HierLevel hier = degraded ? cm::HierLevel::flat : opt_.hier;
  const cm::AlltoallvTimes a2a =
      cm::hier_alltoallv_ns(c, std::max(1, C / ppn), std::min(ppn, C),
                            node_intra, node_inter, hier);
  double t = a2a.total_ns;
  if (inj != nullptr) t /= inj->min_link_factor(p.clock.now_ns());
  // The owner decodes claim lists while later chunks are in flight
  // (K-chunk wire/decode pipelining, as on the bitmap legs).
  if (dec_ns > 0) t = bfs::overlap_decode_ns(p, t, dec_ns, K);
  p.charge(phase, t);
  last_fold_ns_ = t;
  p.barrier(world, phase);

  // Wipe the drained outboxes (every row peer has read them by now).
  for (int q : parts) {
    for (int k = 0; k < C; ++k) {
      st_.out_children[static_cast<std::size_t>(q)][static_cast<std::size_t>(k)]
          .clear();
      st_.out_parents[static_cast<std::size_t>(q)][static_cast<std::size_t>(k)]
          .clear();
      st_.enc_fold[static_cast<std::size_t>(q)][static_cast<std::size_t>(k)]
          .clear();
    }
  }
  p.barrier(world, sim::Phase::stall);
  p.trace_span(obs::kCatBfs, "2d.fold", t0, p.clock.now_ns(),
               obs::kv("coded", coded ? 1 : 0) + "," +
                   obs::kv("sched", cm::to_string(a2a.sched)) + "," +
                   obs::kv("wire_bytes", fs.wire_bytes) + "," +
                   obs::kv("discovered", fs.discovered));
  return fs;
}

bfs::ExchangeLevelStats TwoDExchange::exchange(rt::Proc& p, int /*cur_dir*/,
                                               int next_dir, std::uint64_t nf,
                                               std::span<const int> parts,
                                               double reduce_ns) {
  const bfs::UnitCosts& u = costs_[static_cast<std::size_t>(p.rank)];
  const sim::Phase phase =
      next_dir == 1 ? sim::Phase::bu_comm : sim::Phase::td_comm;
  // Advance: the accepted claims become the next frontier. The gate reads
  // only the caller's own pieces; the barrier after it publishes them.
  for (int q : parts) {
    std::swap(st_.frontier[static_cast<std::size_t>(q)],
              st_.next[static_cast<std::size_t>(q)]);
    st_.next[static_cast<std::size_t>(q)].view().reset();
    p.charge(phase, u.stream_pass_ns(2 * (dg_.grid.piece_bits() / 64)));
  }
  return deliver(p, next_dir, nf, parts, /*after_level=*/true, reduce_ns);
}

}  // namespace numabfs::bfs2d
