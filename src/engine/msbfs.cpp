#include "engine/msbfs.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "bfs/direction.hpp"
#include "bfs/level_loop.hpp"
#include "engine/exchange_core.hpp"
#include "graph/codec.hpp"
#include "runtime/allgather.hpp"

namespace numabfs::engine {

const char* to_string(QueryKind k) {
  switch (k) {
    case QueryKind::full_distances: return "full";
    case QueryKind::st_reachability: return "st";
    case QueryKind::k_hop: return "khop";
    case QueryKind::sssp: return "sssp";
    case QueryKind::pagerank: return "pagerank";
    case QueryKind::components: return "components";
    case QueryKind::triangles: return "triangles";
  }
  return "?";
}

WaveState::WaveState(const graph::DistGraph& dg, const bfs::Config& cfg,
                     int nodes, int ppn, bool track_parents)
    : cfg_(cfg),
      nodes_(nodes),
      ppn_(ppn),
      shared_(cfg.sharing != bfs::Sharing::none && ppn > 1),
      track_parents_(track_parents),
      padded_vertices_(static_cast<std::uint64_t>(dg.part.np()) *
                       dg.part.block()) {
  const int np = dg.part.np();
  if (np != nodes * ppn)
    throw std::invalid_argument("WaveState: partition/shape mismatch");
  const std::uint64_t g = cfg_.summary_granularity;
  if (shared_) {
    node_frontier_.assign(static_cast<std::size_t>(nodes),
                          std::vector<std::uint64_t>(padded_vertices_, 0));
    node_fsummary_.assign(static_cast<std::size_t>(nodes),
                          graph::Summary(padded_vertices_, g));
  } else {
    rank_frontier_.assign(static_cast<std::size_t>(np),
                          std::vector<std::uint64_t>(padded_vertices_, 0));
    rank_fsummary_.assign(static_cast<std::size_t>(np),
                          graph::Summary(padded_vertices_, g));
  }
  out_summary_.assign(static_cast<std::size_t>(np),
                      graph::Summary(dg.part.block(), g));
  seen_.resize(static_cast<std::size_t>(np));
  out_.resize(static_cast<std::size_t>(np));
  dist_.resize(static_cast<std::size_t>(np));
  parent_.resize(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    const auto& lg = dg.locals[static_cast<std::size_t>(r)];
    seen_[static_cast<std::size_t>(r)].assign(lg.owned(), 0);
    out_[static_cast<std::size_t>(r)].assign(dg.part.block(), 0);
    dist_[static_cast<std::size_t>(r)].assign(lg.owned() * kMaxLanes,
                                              kUnreached);
    if (track_parents_)
      parent_[static_cast<std::size_t>(r)].assign(lg.owned() * kMaxLanes,
                                                  graph::kNoVertex);
  }
}

namespace {

/// Per-partition result of one level kernel.
struct LevelStats {
  std::uint64_t discovered_bits = 0;      ///< (vertex, lane) pairs discovered
  std::uint64_t discovered_vertices = 0;  ///< vertices entering any frontier
  std::uint64_t frontier_edges = 0;  ///< degree sum of discovering vertices
  std::uint64_t or_mask = 0;         ///< union of discovered lane words
};

/// Words streamed by one wave reset of partition `part` (seen + dist +
/// parent + out), for the setup charge.
std::uint64_t reset_words(const graph::LocalGraph& lg, const WaveState& ws,
                          std::uint64_t block) {
  const std::uint64_t owned = lg.owned();
  std::uint64_t words = owned + block;                     // seen + out
  words += owned * kMaxLanes * sizeof(Dist) / 8;           // dist
  if (ws.track_parents())
    words += owned * kMaxLanes * sizeof(graph::Vertex) / 8;  // parent
  return words;
}

/// Dense lane kernel (the MS-BFS analogue of the bottom-up level): stream
/// the owned vertices; every vertex still missing an active lane scans its
/// neighbors' frontier words, claiming lanes until none are missing.
LevelStats dense_level(rt::Proc& p, const graph::LocalGraph& lg,
                       const bfs::UnitCosts& u, WaveState& ws, int part,
                       std::uint64_t active, Dist level, bool use_summary) {
  LevelStats res;
  auto frontier = ws.frontier(p.rank);
  auto in_s = ws.frontier_summary(p.rank);
  auto out_s = ws.out_summary(part);
  auto seen = ws.seen(part);
  auto out = ws.out(part);
  auto dist = ws.dist(part);
  auto parent = ws.parent(part);
  const bool parents = !parent.empty();

  std::uint64_t edges = 0;
  std::uint64_t in_probes = 0;
  std::uint64_t zero_skips = 0;
  std::uint64_t writes = 0;
  std::uint64_t discovering = 0;

  const std::uint64_t owned = lg.owned();
  for (std::uint64_t lv = 0; lv < owned; ++lv) {
    std::uint64_t need = active & ~seen[lv];
    if (need == 0) continue;
    std::uint64_t newbits = 0;
    for (graph::Vertex uu : lg.bu_neighbors(lv)) {
      ++edges;
      if (use_summary) {
        // Summary zero: every lane word of the covered group is provably
        // zero, so the (cache-hostile) lane-word probe is skipped — the
        // paper's Fig. 8 mechanism applied to the lane frontier. The
        // scheduler enables this only when the union frontier is sparse
        // enough for the expected skips to beat the summary probes.
        if (!in_s.covers(uu)) {
          ++zero_skips;
          continue;
        }
      }
      ++in_probes;
      const std::uint64_t fw = frontier[uu] & need;
      if (fw == 0) continue;
      newbits |= fw;
      need &= ~fw;
      if (parents) {
        std::uint64_t claim = fw;
        while (claim) {
          const int b = std::countr_zero(claim);
          claim &= claim - 1;
          parent[lv * kMaxLanes + static_cast<std::uint64_t>(b)] = uu;
        }
      }
      if (need == 0) break;  // every active lane accounted for
    }
    if (newbits == 0) continue;
    seen[lv] |= newbits;
    out[lv] |= newbits;
    out_s.mark(lv);
    res.or_mask |= newbits;
    ++discovering;
    ++res.discovered_vertices;
    writes += 2;
    std::uint64_t bits = newbits;
    while (bits) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      dist[lv * kMaxLanes + static_cast<std::uint64_t>(b)] = level;
      ++res.discovered_bits;
      ++writes;
    }
    if (parents) writes += std::popcount(newbits);
    res.frontier_edges += lg.degree(lv);
  }

  const std::uint64_t dprobes = lg.take_patch_reads();
  auto& cnt = p.prof.counters();
  cnt.edges_scanned += edges;
  if (use_summary) {
    cnt.summary_probes += edges;
    cnt.summary_zero_skips += zero_skips;
  }
  cnt.inqueue_probes += in_probes;
  cnt.frontier_hits += discovering;
  cnt.queue_writes += writes;
  cnt.vertices_visited += res.discovered_bits;
  cnt.delta_probes += dprobes;

  const double summary_ns =
      use_summary ? static_cast<double>(edges) * u.summary_probe_ns : 0.0;
  const double ns =
      u.stream_pass_ns(owned) +
      (static_cast<double>(edges) * u.edge_scan_ns + summary_ns +
       static_cast<double>(in_probes) * u.inqueue_probe_ns +
       static_cast<double>(writes) * u.write_ns +
       static_cast<double>(dprobes) * u.delta_probe_ns) /
          u.omp_div;
  p.charge(sim::Phase::bu_comp, ns);
  return res;
}

/// Sparse lane kernel (top-down analogue): scan the replicated frontier
/// words; every frontier vertex looks up its owned children and hands its
/// lanes to the ones still missing them. Work is proportional to the
/// frontier's edges, which is why early and late levels run sparse.
LevelStats sparse_level(rt::Proc& p, const graph::LocalGraph& lg,
                        const bfs::UnitCosts& u, WaveState& ws, int part,
                        std::uint64_t active, Dist level, std::uint64_t n) {
  LevelStats res;
  auto frontier = ws.frontier(p.rank);
  auto out_s = ws.out_summary(part);
  auto seen = ws.seen(part);
  auto out = ws.out(part);
  auto dist = ws.dist(part);
  auto parent = ws.parent(part);
  const bool parents = !parent.empty();

  std::uint64_t edges = 0;
  std::uint64_t writes = 0;
  std::uint64_t nonzero = 0;

  // A child can gain lanes from several frontier parents within one level
  // (first parent in vertex order claims its lanes, later ones the rest),
  // so discovery is detected per child via out[lw], which is level-clean.
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t fw = frontier[v] & active;
    if (fw == 0) continue;
    ++nonzero;
    const auto key = static_cast<graph::Vertex>(v);
    const auto it = std::lower_bound(lg.td_keys.begin(), lg.td_keys.end(), key);
    if (it == lg.td_keys.end() || *it != key) continue;
    const auto k = static_cast<std::size_t>(it - lg.td_keys.begin());
    for (graph::Vertex w : lg.td_group(k)) {
      ++edges;
      const std::uint64_t lw = w - lg.vbegin;
      const std::uint64_t need = fw & ~seen[lw];
      if (need == 0) continue;
      if (out[lw] == 0) {
        ++writes;  // first discovery of w this level
        ++res.discovered_vertices;
        res.frontier_edges += lg.degree(lw);
        out_s.mark(lw);
      }
      seen[lw] |= need;
      out[lw] |= need;
      res.or_mask |= need;
      writes += 2;
      std::uint64_t bits = need;
      while (bits) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        dist[lw * kMaxLanes + static_cast<std::uint64_t>(b)] = level;
        if (parents)
          parent[lw * kMaxLanes + static_cast<std::uint64_t>(b)] = key;
        ++res.discovered_bits;
        ++writes;
      }
    }
  }

  const std::uint64_t dprobes = lg.take_patch_reads();
  auto& cnt = p.prof.counters();
  cnt.edges_scanned += edges;
  cnt.frontier_hits += nonzero;
  cnt.queue_writes += writes;
  cnt.vertices_visited += res.discovered_bits;
  cnt.delta_probes += dprobes;

  const double ns =
      u.stream_pass_ns(n) +
      (static_cast<double>(nonzero) * u.group_search_ns +
       static_cast<double>(edges) * (u.edge_scan_ns + u.visited_probe_ns) +
       static_cast<double>(writes) * u.write_ns +
       static_cast<double>(dprobes) * u.delta_probe_ns) /
          u.omp_div;
  p.charge(sim::Phase::td_comp, ns);
  return res;
}

/// The per-level lane-word exchange: allgather every partition's block of
/// next-frontier words into the replicated (per-rank or node-shared)
/// frontier arrays, through the same collective plans as the bitmap
/// exchange. The modeled wire format is measured-sparsity: a presence
/// bitmap (1 bit per vertex of the block) plus the nonzero lane words, each
/// carrying only the bytes of the currently active lanes; ring time is
/// bound by the fullest chunk (allreduce_max of the measured counts).
void wave_exchange(rt::Proc& p, const graph::DistGraph& dg, WaveState& ws,
                   const bfs::UnitCosts& u, std::uint64_t active,
                   std::span<const int> parts) {
  rt::Cluster& c = *p.cluster;
  rt::Comm& world = c.world();
  const bfs::Config& cfg = ws.config();
  const int np = c.nranks();
  const std::uint64_t block = dg.part.block();
  const sim::Phase phase = sim::Phase::bu_comm;

  // Measure the sparsity of the owned chunks (a real count on the real
  // words; one streaming pass each). With the exchange codec on, the same
  // pass really builds and dense-encodes the presence bitmap of the wire
  // format, so the presence component rides *measured* encoded bytes.
  const bool coded = cfg.codec != bfs::CodecMode::off && np > 1;
  std::uint64_t my_nnz = 0;
  std::uint64_t my_penc = 0;
  std::vector<std::uint64_t> presence;
  std::vector<std::uint8_t> pbuf;
  if (coded) presence.resize((block + 63) / 64);
  for (int q : parts) {
    auto out = ws.out(q);
    std::uint64_t nnz = 0;
    if (coded) {
      std::fill(presence.begin(), presence.end(), 0);
      for (std::uint64_t v = 0; v < block; ++v) {
        if ((out[v] & active) != 0) {
          ++nnz;
          presence[v >> 6] |= 1ull << (v & 63);
        }
      }
      pbuf.clear();
      const std::size_t nb =
          graph::codec::encode_dense({presence.data(), presence.size()}, pbuf);
      my_penc += static_cast<std::uint64_t>(nb);
      p.charge(phase,
               u.stream_pass_ns(block + presence.size() + (nb + 7) / 8));
    } else {
      for (std::uint64_t w : out) nnz += (w & active) != 0;
      p.charge(phase, u.stream_pass_ns(block));
    }
    my_nnz = std::max(my_nnz, nnz);
  }
  const std::uint64_t max_nnz =
      rt::allreduce_max(p, world, my_nnz, sim::Phase::stall);

  const std::uint64_t lane_bytes =
      (static_cast<std::uint64_t>(std::popcount(active)) + 7) / 8;
  const std::uint64_t g = cfg.summary_granularity;
  const std::uint64_t sum_bytes =
      (graph::SummaryView::summary_bits_for(block, g) + 7) / 8;
  const std::uint64_t presence_raw = block / 8;
  std::uint64_t presence_bytes = presence_raw;
  if (coded) {
    // Mean over the np partition encodings (each chunk transits once per
    // hop, so the honest charge is the summed volume divided out), same as
    // the bitmap exchange. Measured gate: the codec rides only when the
    // real encodings won on average.
    const std::uint64_t enc_mean =
        (rt::allreduce_sum(p, world, my_penc, sim::Phase::stall) +
         static_cast<std::uint64_t>(np) - 1) /
        static_cast<std::uint64_t>(np);
    if (enc_mean < presence_raw) presence_bytes = enc_mean;
  }
  const bool presence_coded = presence_bytes < presence_raw;
  const std::uint64_t chunk_bytes =
      presence_bytes + sum_bytes + max_nnz * lane_bytes;
  const std::uint64_t raw_chunk_bytes =
      presence_raw + sum_bytes + max_nnz * lane_bytes;

  auto frontier = ws.frontier(p.rank);
  auto in_s = ws.frontier_summary(p.rank);
  // Merge of partition `src_part`'s out summary into the replica's frontier
  // summary: a local group maps into at most two destination groups (when
  // the granularity does not divide the block); mark() is atomic, so the
  // parallel-subgroup path can merge disjoint blocks concurrently.
  ExchangeHooks hooks;
  hooks.copy_block = [&](int src_part) {
    auto src = ws.out(src_part);
    std::memcpy(frontier.data() + static_cast<std::uint64_t>(src_part) * block,
                src.data(), block * 8);
    if (src_part == p.rank) return;  // own chunk: no transmission
    if (c.node_of(src_part) == p.node)
      p.prof.counters().bytes_intra_node += chunk_bytes;
    else
      p.prof.counters().bytes_inter_node += chunk_bytes;
    p.prof.counters().bytes_raw_equiv += raw_chunk_bytes;
  };
  hooks.reset_summary = [&] { in_s.bits().reset(); };
  hooks.merge_summary = [&](int src_part) {
    auto src = ws.out_summary(src_part);
    const std::uint64_t base = static_cast<std::uint64_t>(src_part) * block;
    src.bits().for_each_set(0, src.size_bits(), [&](std::uint64_t b) {
      const std::uint64_t lo = base + b * g;
      in_s.mark(lo);
      in_s.mark(std::min(base + block, lo + g) - 1);
    });
  };

  ExchangeShape shape;
  shape.chunk_bytes = chunk_bytes;
  shape.sum_words = (ws.summary_bits() + 63) / 64;
  shape.shared = ws.shared_frontier();
  shape.presence_coded = presence_coded;
  shape.decode_words = (block + 63) / 64;
  run_exchange_plan(p, cfg, u, phase, shape, hooks);
  p.trace_instant(obs::kCatEngine, "wave.exchange",
                  obs::kv("chunk_bytes", chunk_bytes) + "," +
                      obs::kv("raw_bytes", raw_chunk_bytes) + "," +
                      obs::kv("coded", presence_coded ? "yes" : "no"));

  // Wipe the owned out blocks (and their summaries) for the next level.
  for (int q : parts) {
    auto out = ws.out(q);
    std::memset(out.data(), 0, out.size() * 8);
    ws.out_summary(q).bits().reset();
    p.charge(phase, u.stream_pass_ns(block));
  }
  p.barrier(world, sim::Phase::stall);  // wipes land before the next level
}

/// Wave reset: wipe all state, seed the sources, and return the summed
/// degree of the sources (the level-1 direction hint).
void reset_wave(rt::Proc& p, const graph::DistGraph& dg, WaveState& ws,
                std::span<const WaveQuery> queries, const bfs::UnitCosts& u) {
  rt::Cluster& c = *p.cluster;
  const auto& lg = dg.locals[static_cast<std::size_t>(p.rank)];
  const std::uint64_t block = dg.part.block();

  std::memset(ws.seen(p.rank).data(), 0, ws.seen(p.rank).size() * 8);
  std::memset(ws.out(p.rank).data(), 0, ws.out(p.rank).size() * 8);
  auto dist = ws.dist(p.rank);
  std::fill(dist.begin(), dist.end(), kUnreached);
  auto parent = ws.parent(p.rank);
  std::fill(parent.begin(), parent.end(), graph::kNoVertex);

  // One writer per frontier replica (and its summary).
  if (!ws.shared_frontier() || p.is_node_leader()) {
    auto frontier = ws.frontier(p.rank);
    std::memset(frontier.data(), 0, frontier.size() * 8);
    auto fs = ws.frontier_summary(p.rank);
    fs.bits().reset();
    for (std::size_t l = 0; l < queries.size(); ++l) {
      frontier[queries[l].source] |= 1ull << l;
      fs.mark(queries[l].source);
    }
  }
  ws.out_summary(p.rank).bits().reset();

  // Source bookkeeping at the owner.
  for (std::size_t l = 0; l < queries.size(); ++l) {
    const graph::Vertex s = queries[l].source;
    if (s < lg.vbegin || s >= lg.vend) continue;
    const std::uint64_t lv = s - lg.vbegin;
    ws.seen(p.rank)[lv] |= 1ull << l;
    ws.dist(p.rank)[lv * kMaxLanes + l] = 0;
    if (ws.track_parents())
      ws.parent(p.rank)[lv * kMaxLanes + l] = s;
  }

  p.charge(sim::Phase::other,
           u.stream_pass_ns(reset_words(lg, ws, block) +
                            ws.padded_vertices()));
  p.barrier(c.world(), sim::Phase::other);
}

/// Failover import: load a cross-replica checkpoint into this cluster's
/// WaveState instead of seeding the sources. Partition state lands at the
/// owner; each frontier replica gets the checkpointed copy plus a freshly
/// rebuilt summary (scanned against the resumed active mask, so retired
/// lanes' stale bits cannot resurrect summary groups).
void import_wave(rt::Proc& p, WaveState& ws, const WaveCheckpoint& ck,
                 const bfs::UnitCosts& u, std::uint64_t active) {
  rt::Cluster& c = *p.cluster;
  const auto r = static_cast<std::size_t>(p.rank);

  auto seen = ws.seen(p.rank);
  std::memcpy(seen.data(), ck.seen[r].data(), seen.size() * 8);
  auto dist = ws.dist(p.rank);
  std::memcpy(dist.data(), ck.dist[r].data(), dist.size() * sizeof(Dist));
  std::uint64_t words = seen.size() + dist.size() * sizeof(Dist) / 8;
  if (ws.track_parents()) {
    auto parent = ws.parent(p.rank);
    std::memcpy(parent.data(), ck.parent[r].data(),
                parent.size() * sizeof(graph::Vertex));
    words += parent.size() * sizeof(graph::Vertex) / 8;
  }
  std::memset(ws.out(p.rank).data(), 0, ws.out(p.rank).size() * 8);
  ws.out_summary(p.rank).bits().reset();
  words += ws.out(p.rank).size();

  if (!ws.shared_frontier() || p.is_node_leader()) {
    auto frontier = ws.frontier(p.rank);
    std::memcpy(frontier.data(), ck.frontier.data(), frontier.size() * 8);
    auto fs = ws.frontier_summary(p.rank);
    fs.bits().reset();
    for (std::uint64_t v = 0; v < frontier.size(); ++v)
      if ((frontier[v] & active) != 0) fs.mark(v);
    words += 2 * frontier.size();
  }
  p.charge(sim::Phase::other, u.stream_pass_ns(words));
  p.barrier(c.world(), sim::Phase::other);
}

}  // namespace

WaveResult run_wave(rt::Cluster& c, const graph::DistGraph& dg, WaveState& ws,
                    std::span<const WaveQuery> queries) {
  return run_wave(c, dg, ws, queries, WaveOptions{});
}

WaveResult run_wave(rt::Cluster& c, const graph::DistGraph& dg, WaveState& ws,
                    std::span<const WaveQuery> queries,
                    const WaveOptions& opts) {
  const bfs::Config& cfg = ws.config();
  const int nq = static_cast<int>(queries.size());
  if (nq < 1 || nq > kMaxLanes)
    throw std::invalid_argument("run_wave: batch must have 1..64 queries");
  for (const WaveQuery& q : queries) {
    if (is_program_kind(q.kind))
      throw std::invalid_argument(
          "run_wave: program workloads go through run_program, not a wave");
    if (q.source >= dg.n ||
        (q.kind == QueryKind::st_reachability && q.target >= dg.n))
      throw std::invalid_argument("run_wave: query vertex out of range");
    if (q.kind == QueryKind::k_hop && q.k < 0)
      throw std::invalid_argument("run_wave: negative k_hop radius");
  }

  const WaveCheckpoint* rck = opts.resume_from;
  if (rck != nullptr) {
    const auto np = static_cast<std::size_t>(c.nranks());
    if (!rck->valid || rck->seen.size() != np ||
        rck->frontier.size() != ws.padded_vertices() ||
        (ws.track_parents() &&
         (rck->parent.size() != np || rck->parent[0].empty())))
      throw std::invalid_argument(
          "run_wave: resume checkpoint missing or built for another shape");
    if ((opts.resume_active & ~rck->active) != 0)
      throw std::invalid_argument(
          "run_wave: resume_active must be a subset of the checkpoint's "
          "active lanes");
  }
  WaveCheckpoint* xp = opts.export_to;
  if (xp != nullptr) {
    xp->valid = false;
    xp->seen.assign(static_cast<std::size_t>(c.nranks()), {});
    xp->dist.assign(static_cast<std::size_t>(c.nranks()), {});
    xp->parent.assign(static_cast<std::size_t>(c.nranks()), {});
  }

  // Per-partition unit costs (owned sizes differ on the tail rank).
  std::vector<bfs::UnitCosts> costs(static_cast<std::size_t>(c.nranks()));
  for (int r = 0; r < c.nranks(); ++r) {
    const auto& lg = dg.locals[static_cast<std::size_t>(r)];
    bfs::StructSizes sz;
    sz.in_queue_bytes = ws.padded_vertices() * 8;  // lane words, not bits
    sz.in_summary_bytes = (ws.summary_bits() + 7) / 8;
    sz.owned_bytes =
        lg.owned() * (8 + kMaxLanes * sizeof(Dist) +
                      (ws.track_parents() ? kMaxLanes * sizeof(graph::Vertex)
                                          : 0));
    sz.td_group_count = std::max<std::uint64_t>(1, lg.td_keys.size());
    costs[static_cast<std::size_t>(r)] = bfs::unit_costs(c, cfg, sz);
  }

  bfs::LevelLoop loop(c, {.who = "run_wave",
                          .trace_cat = obs::kCatEngine,
                          .level_base = 1,
                          .abort_at_ns = opts.abort_at_ns,
                          .export_every = opts.export_every,
                          .export_instant = "wave.ckpt"});
  // seen-only checkpoints: distances/parents/out are rewritten with
  // identical values by a level re-run (the kernels are deterministic and
  // idempotent given the restored seen words), so only the discovery gate
  // needs saving. Indexed by partition; written by its current owner only.
  std::vector<std::vector<std::uint64_t>> ckpt(
      static_cast<std::size_t>(c.nranks()));
  const bfs::LaneCostModel model{static_cast<double>(dg.n),
                                 static_cast<double>(c.nranks()),
                                 static_cast<double>(cfg.summary_granularity),
                                 costs[0]};

  // Recorder-written: the per-level kernel choices (0 = sparse, 1 = dense)
  // and the lane results.
  std::vector<int> directions;
  WaveResult out;
  out.epoch = opts.epoch;
  out.lanes.assign(static_cast<std::size_t>(nq), LaneResult{});

  c.run([&](rt::Proc& p) {
    const bfs::UnitCosts& u = costs[static_cast<std::size_t>(p.rank)];
    rt::Comm& world = c.world();

    std::uint64_t active = nq == kMaxLanes ? ~0ull : (1ull << nq) - 1;
    bfs::LaneChoice ch;
    int first_level = 1;  // kernel at level L discovers distance-L vertices

    if (rck == nullptr) {
      reset_wave(p, dg, ws, queries, u);

      // Trivial lanes retire before the first kernel: an s-t query whose
      // target is its source, and a 0-hop neighborhood.
      for (int l = 0; l < nq; ++l) {
        const WaveQuery& q = queries[static_cast<std::size_t>(l)];
        const bool trivial =
            (q.kind == QueryKind::st_reachability && q.target == q.source) ||
            (q.kind == QueryKind::k_hop && q.k == 0);
        if (!trivial) continue;
        active &= ~(1ull << l);
        if (p.rank == loop.recorder()) {
          auto& lr = out.lanes[static_cast<std::size_t>(l)];
          lr.finished = true;
          lr.complete_level = 0;
          lr.complete_ns = p.clock.now_ns();
          lr.reached = q.kind == QueryKind::st_reachability;
        }
      }

      // Level-1 direction from the sources' degree sum.
      std::uint64_t my_src_edges = 0;
      {
        const auto& lg = dg.locals[static_cast<std::size_t>(p.rank)];
        for (int l = 0; l < nq; ++l) {
          const graph::Vertex s = queries[static_cast<std::size_t>(l)].source;
          if ((active >> l & 1) && s >= lg.vbegin && s < lg.vend)
            my_src_edges += lg.degree(s - lg.vbegin);
        }
      }
      const std::uint64_t src_edges =
          rt::allreduce_sum(p, world, my_src_edges, sim::Phase::stall);
      ch = model.choose(static_cast<double>(src_edges),
                        static_cast<double>(std::popcount(active)),
                        static_cast<double>(dg.n),
                        static_cast<double>(dg.directed_edges));
    } else {
      // Failover resume: take over the checkpointed epoch — the surviving
      // lanes, wave position and kernel choice all come from the exporter.
      active = opts.resume_active != 0 ? opts.resume_active : rck->active;
      first_level = rck->level;
      ch = bfs::LaneChoice{rck->dir, rck->use_summary};
      import_wave(p, ws, *rck, u, active);
    }

    // Per-attempt level state: the kernel step fills it, finish reads it.
    std::uint64_t mf = 0, nf = 0, needy = 0, mu = 0, nonempty = 0, hits = 0;

    bfs::LevelHooks hooks;
    hooks.save = [&](int q) {
      auto seen = ws.seen(q);
      ckpt[static_cast<std::size_t>(q)].assign(seen.begin(), seen.end());
      p.charge(sim::Phase::other,
               costs[static_cast<std::size_t>(q)].stream_pass_ns(seen.size()));
    };
    hooks.restore = [&](int q) {
      auto seen = ws.seen(q);
      const auto& saved = ckpt[static_cast<std::size_t>(q)];
      std::memcpy(seen.data(), saved.data(), saved.size() * 8);
      std::memset(ws.out(q).data(), 0, ws.out(q).size() * 8);
      ws.out_summary(q).bits().reset();
      p.charge(sim::Phase::other,
               costs[static_cast<std::size_t>(q)].stream_pass_ns(
                   seen.size() + ws.out(q).size()));
    };
    // Cross-replica epoch export: partition owners persist their
    // seen/dist/parent, the recorder one replicated-frontier copy and the
    // wave position.
    if (xp != nullptr) {
      hooks.export_part = [&](int q) {
        const auto qi = static_cast<std::size_t>(q);
        auto seen = ws.seen(q);
        auto dist = ws.dist(q);
        xp->seen[qi].assign(seen.begin(), seen.end());
        xp->dist[qi].assign(dist.begin(), dist.end());
        std::uint64_t words = seen.size() + dist.size() * sizeof(Dist) / 8;
        if (ws.track_parents()) {
          auto parent = ws.parent(q);
          xp->parent[qi].assign(parent.begin(), parent.end());
          words += parent.size() * sizeof(graph::Vertex) / 8;
        }
        p.charge(sim::Phase::other, costs[qi].stream_pass_ns(words));
      };
      hooks.export_shared = [&](int level) {
        auto frontier = ws.frontier(p.rank);
        xp->frontier.assign(frontier.begin(), frontier.end());
        xp->level = level;
        xp->dir = ch.dir;
        xp->use_summary = ch.use_summary;
        xp->active = active;
        xp->epoch = opts.epoch;
        xp->valid = true;
        p.charge(sim::Phase::other, u.stream_pass_ns(frontier.size()));
        return obs::kv("level", level) + "," +
               obs::kv("active", std::popcount(active));
      };
    }
    hooks.kernel = [&](const bfs::Level& lv) {
      LevelStats ls;
      for (int q : lv.parts) {
        const auto& qlg = dg.locals[static_cast<std::size_t>(q)];
        const bfs::UnitCosts& qu = costs[static_cast<std::size_t>(q)];
        const LevelStats qs =
            ch.dir == 1 ? dense_level(p, qlg, qu, ws, q, active,
                                      static_cast<Dist>(lv.number),
                                      ch.use_summary)
                        : sparse_level(p, qlg, qu, ws, q, active,
                                       static_cast<Dist>(lv.number), dg.n);
        ls.discovered_vertices += qs.discovered_vertices;
        ls.frontier_edges += qs.frontier_edges;
        ls.or_mask |= qs.or_mask;
      }

      // Direction inputs for the next level, measured from the real seen
      // words: how many owned vertices still miss an active lane, and how
      // many adjacency entries they would put in play. One streaming pass
      // over seen + degrees per partition, charged as switch overhead.
      std::uint64_t my_needy = 0;
      std::uint64_t my_mu = 0;
      for (int q : lv.parts) {
        const auto& qlg = dg.locals[static_cast<std::size_t>(q)];
        auto seen = ws.seen(q);
        for (std::uint64_t v = 0; v < qlg.owned(); ++v) {
          if ((active & ~seen[v]) != 0) {
            ++my_needy;
            my_mu += qlg.degree(v);
          }
        }
        p.charge(sim::Phase::switch_conv,
                 costs[static_cast<std::size_t>(q)].stream_pass_ns(
                     2 * qlg.owned()));
      }

      // s-t hits are detected at the target's owner.
      std::uint64_t my_hits = 0;
      for (int q : lv.parts) {
        const auto& qlg = dg.locals[static_cast<std::size_t>(q)];
        auto seen = ws.seen(q);
        for (int l = 0; l < nq; ++l) {
          const WaveQuery& wq = queries[static_cast<std::size_t>(l)];
          if (wq.kind != QueryKind::st_reachability || !(active >> l & 1))
            continue;
          if (wq.target >= qlg.vbegin && wq.target < qlg.vend &&
              (seen[wq.target - qlg.vbegin] >> l & 1))
            my_hits |= 1ull << l;
        }
      }

      mf = rt::allreduce_sum(p, world, ls.frontier_edges, sim::Phase::stall);
      nf = rt::allreduce_sum(p, world, ls.discovered_vertices,
                             sim::Phase::stall);
      needy = rt::allreduce_sum(p, world, my_needy, sim::Phase::stall);
      mu = rt::allreduce_sum(p, world, my_mu, sim::Phase::stall);
      nonempty = rt::allreduce_or(p, world, ls.or_mask, sim::Phase::stall);
      hits = rt::allreduce_or(p, world, my_hits, sim::Phase::stall);
    };
    hooks.finish = [&](const bfs::Level& lv) {
      // Retirement: s-t lanes on a hit, k-hop lanes at radius, any lane
      // whose frontier drained. Clocks are aligned here (the allreduces end
      // with a barrier), so the recorder's now is everyone's now.
      std::uint64_t retired = 0;
      for (int l = 0; l < nq; ++l) {
        if (!(active >> l & 1)) continue;
        const WaveQuery& q = queries[static_cast<std::size_t>(l)];
        const bool hit =
            q.kind == QueryKind::st_reachability && (hits >> l & 1);
        const bool drained = !(nonempty >> l & 1);
        const bool radius = q.kind == QueryKind::k_hop && lv.number >= q.k;
        if (!hit && !drained && !radius) continue;
        retired |= 1ull << l;
        if (lv.recorder) {
          auto& lr = out.lanes[static_cast<std::size_t>(l)];
          lr.finished = true;
          lr.complete_level = lv.number;
          lr.complete_ns = p.clock.now_ns();
          lr.reached = hit;
          p.trace_instant(
              obs::kCatEngine, "lane.retire",
              obs::kv("lane", l) + "," + obs::kv("level", lv.number) + "," +
                  obs::kv("reason",
                          hit ? "hit" : (drained ? "drained" : "radius")));
        }
      }
      active &= ~retired;
      if (lv.recorder) directions.push_back(ch.dir);

      const auto trace_level = [&] {
        p.trace_span(obs::kCatEngine, "mslevel " + std::to_string(lv.number),
                     lv.t0, p.clock.now_ns(),
                     obs::kv("dir", ch.dir == 1 ? "dense" : "sparse") + "," +
                         obs::kv("active", std::popcount(active)));
      };
      if (active == 0) {  // retired lanes' stale bits never propagate:
        trace_level();    // every kernel masks frontier reads with the
        return false;     // (new) active mask
      }

      wave_exchange(p, dg, ws, u, active, lv.parts);
      trace_level();

      // Next level's kernel, from the measured state.
      ch = model.choose(static_cast<double>(mf), static_cast<double>(nf),
                        static_cast<double>(needy), static_cast<double>(mu));
      return true;
    };

    loop.run(p, first_level, hooks, active != 0);
    if (p.rank == loop.recorder() && loop.aborted()) out.unfinished = active;
  });

  const bfs::LoopTotals tot = loop.totals(directions);
  tot.copy_to(out);
  out.wave_ns = tot.time_ns;
  out.aborted = loop.aborted();
  out.abort_ns = loop.abort_ns();

  // Per-lane visited counts (host-side reporting; no virtual-time impact).
  for (int r = 0; r < c.nranks(); ++r) {
    auto seen = ws.seen(r);
    for (std::uint64_t w : seen) {
      std::uint64_t bits = w;
      while (bits) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        if (b < nq) ++out.lanes[static_cast<std::size_t>(b)].visited;
      }
    }
  }
  return out;
}

std::vector<Dist> gather_lane_distances(const graph::DistGraph& dg,
                                        WaveState& ws, int lane) {
  std::vector<Dist> d(dg.n, kUnreached);
  for (int r = 0; r < dg.part.np(); ++r) {
    const auto& lg = dg.locals[static_cast<std::size_t>(r)];
    auto dist = ws.dist(r);
    for (std::uint64_t lv = 0; lv < lg.owned(); ++lv)
      d[lg.vbegin + lv] =
          dist[lv * kMaxLanes + static_cast<std::uint64_t>(lane)];
  }
  return d;
}

std::vector<graph::Vertex> gather_lane_parents(const graph::DistGraph& dg,
                                               WaveState& ws, int lane) {
  if (!ws.track_parents())
    throw std::logic_error("gather_lane_parents: parents not tracked");
  std::vector<graph::Vertex> parent(dg.n, graph::kNoVertex);
  for (int r = 0; r < dg.part.np(); ++r) {
    const auto& lg = dg.locals[static_cast<std::size_t>(r)];
    auto pr = ws.parent(r);
    for (std::uint64_t lv = 0; lv < lg.owned(); ++lv)
      parent[lg.vbegin + lv] =
          pr[lv * kMaxLanes + static_cast<std::uint64_t>(lane)];
  }
  return parent;
}

}  // namespace numabfs::engine
