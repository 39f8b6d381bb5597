#include "bfs2d/bfs2d.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "bfs/direction.hpp"
#include "bfs/level_loop.hpp"
#include "bfs2d/exchange2d.hpp"
#include "graph/bitmap.hpp"
#include "graph/key_groups.hpp"
#include "obs/trace.hpp"
#include "runtime/allgather.hpp"
#include "runtime/executor.hpp"

namespace numabfs::bfs2d {

Grid2d::Grid2d(std::uint64_t n, int rows, int cols)
    : n_(n), rows_(rows), cols_(cols) {
  if (rows < 1 || cols < 1)
    throw std::invalid_argument("Grid2d: rows and cols must be positive");
  // Pad so every piece is whole 64-bit words (codec chunks, memcpy slots).
  const std::uint64_t quantum =
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols) * 64;
  padded_ = (std::max<std::uint64_t>(n, 1) + quantum - 1) / quantum * quantum;
}

Grid2d Grid2d::make(std::uint64_t n, int np, int ppn) {
  if (np < 1 || ppn < 1)
    throw std::invalid_argument("Grid2d::make: np and ppn must be positive");
  int best_c = -1;
  for (int cand = ppn; cand <= np; cand += ppn) {
    if (np % cand != 0) continue;
    if (best_c < 0) {
      best_c = cand;
      continue;
    }
    const int d_best = std::abs(np / best_c - best_c);
    const int d_cand = std::abs(np / cand - cand);
    // Most-square grid; ties go to the wider one (more columns keeps the
    // row collectives node-local at higher ppn).
    if (d_cand < d_best || (d_cand == d_best && cand > best_c)) best_c = cand;
  }
  if (best_c < 0) {
    // np is not a multiple of ppn, so no divisor of np can be either.
    const int lo = np / ppn * ppn;
    const int hi = lo + ppn;
    std::string msg = "Grid2d::make: np=" + std::to_string(np) + " with ppn=" +
                      std::to_string(ppn) +
                      " admits no R x C grid whose column count ppn divides; "
                      "nearest valid np: ";
    msg += lo >= ppn ? std::to_string(lo) + " or " + std::to_string(hi)
                     : std::to_string(hi);
    throw std::invalid_argument(msg);
  }
  return Grid2d(n, np / best_c, best_c);
}

namespace {

/// The vertices [first, last) of row band `i` that the CSR has.
std::pair<std::uint64_t, std::uint64_t> band_range(const Grid2d& grid, int i,
                                                   std::uint64_t n) {
  const std::uint64_t vb = std::min(grid.band_begin(i), n);
  return {vb, std::min(vb + grid.band_bits(), n)};
}

/// Build the blocks, piece degrees and piece edge counts of row band `i`;
/// returns the band's largest degree. `entries` and `scratch` are the
/// calling worker's buffers, at least one band long.
std::uint64_t build_band(const graph::Csr& g, DistGraph2d& dg, int i,
                         std::vector<std::uint64_t>& entries,
                         std::vector<std::uint64_t>& scratch) {
  const Grid2d& grid = dg.grid;
  const std::uint64_t n = g.num_vertices();
  const auto [vb, ve] = band_range(grid, i, n);

  // The band's pieces are those of ranks (i, 0..C-1).
  std::uint64_t max_deg = 0;
  for (int j = 0; j < grid.cols(); ++j) {
    const int r = grid.rank_at(i, j);
    auto& deg = dg.piece_deg[static_cast<std::size_t>(r)];
    const std::uint64_t pb = grid.piece_begin(r);
    const std::uint64_t pe = std::min(pb + grid.piece_bits(), n);
    for (std::uint64_t v = pb; v < pe; ++v) {
      deg[v - pb] = g.degree(static_cast<graph::Vertex>(v));
      dg.owned_edges[static_cast<std::size_t>(r)] += deg[v - pb];
      max_deg = std::max(max_deg, deg[v - pb]);
    }
  }

  // Every directed entry (u -> v) with v in the band, keyed by source u and
  // listed in v order. Sorting on u orders them by (u, v); as the column
  // band of u is u / colband_bits, that also cuts them into the band's C
  // blocks, each in top-down order.
  const std::span<std::uint64_t> band(entries.data(),
                                      g.offsets()[ve] - g.offsets()[vb]);
  std::size_t k = 0;
  for (std::uint64_t v = vb; v < ve; ++v)
    for (graph::Vertex u : g.neighbors(static_cast<graph::Vertex>(v)))
      band[k++] = graph::pack_entry(u, static_cast<graph::Vertex>(v));
  graph::sort_by_key(band, scratch, 0, n);

  auto it = band.begin();
  for (int j = 0; j < grid.cols(); ++j) {
    const std::uint64_t cb_end = grid.colband_begin(j + 1);
    const auto end = std::partition_point(
        it, band.end(),
        [&](std::uint64_t e) { return graph::entry_key(e) < cb_end; });
    const std::span<std::uint64_t> block(it, end);
    it = end;
    Block2d& blk = dg.blocks[static_cast<std::size_t>(grid.rank_at(i, j))];
    graph::split_groups(block, blk.keys, blk.offsets, blk.targets);
    // Bottom-up orientation: swap key and value, then a stable sort on the
    // target keeps each target's sources in ascending order.
    for (std::uint64_t& e : block) e = graph::swap_entry(e);
    graph::sort_by_key(block, scratch, grid.band_begin(i), grid.band_bits());
    graph::split_groups(block, blk.bu_keys, blk.bu_offsets, blk.bu_sources);
  }
  return max_deg;
}

}  // namespace

DistGraph2d DistGraph2d::build(const graph::Csr& g, const Grid2d& grid) {
  if (g.num_vertices() != grid.n())
    throw std::invalid_argument(
        "DistGraph2d::build: the grid covers " + std::to_string(grid.n()) +
        " vertices but the CSR has " + std::to_string(g.num_vertices()));
  DistGraph2d dg{grid, g.num_directed_edges(), {}, {}, {}};
  const auto np = static_cast<std::size_t>(grid.np());
  dg.blocks.resize(np);
  dg.piece_deg.assign(np, std::vector<std::uint64_t>(grid.piece_bits(), 0));
  dg.owned_edges.assign(np, 0);

  // Contiguous row-band ranges, one per worker. As in DistGraph::build,
  // the workers' buffers are allocated on the calling thread.
  const int rows = grid.rows();
  std::uint64_t largest = 0;
  for (int i = 0; i < rows; ++i) {
    const auto [vb, ve] = band_range(grid, i, g.num_vertices());
    largest = std::max(largest, g.offsets()[ve] - g.offsets()[vb]);
  }
  const int nw = std::min(rows, rt::exec::max_workers());
  std::vector<std::vector<std::uint64_t>> buffers(
      2 * static_cast<std::size_t>(nw), std::vector<std::uint64_t>(largest));
  std::vector<std::uint64_t> max_deg(static_cast<std::size_t>(nw), 0);
  rt::exec::run(nw, [&](int w) {
    for (int i = rows * w / nw; i < rows * (w + 1) / nw; ++i)
      max_deg[static_cast<std::size_t>(w)] =
          std::max(max_deg[static_cast<std::size_t>(w)],
                   build_band(g, dg, i, buffers[2 * w], buffers[2 * w + 1]));
  });
  dg.max_degree = *std::max_element(max_deg.begin(), max_deg.end());
  return dg;
}

namespace {

/// Top-down scan of partition q's block: walk the assembled col-band
/// frontier, binary-search each vertex among the block's source groups and
/// emit (child, parent) claims into the row outboxes.
void scan_td(rt::Proc& p, const DistGraph2d& dg, State2d& st,
             const bfs::UnitCosts& u, int q) {
  const Grid2d& g = dg.grid;
  const Block2d& blk = dg.blocks[static_cast<std::size_t>(q)];
  const std::uint64_t cb0 = g.colband_begin(g.col_of(q));
  const auto cb = st.colband[static_cast<std::size_t>(q)].view();
  auto& oc = st.out_children[static_cast<std::size_t>(q)];
  auto& op = st.out_parents[static_cast<std::size_t>(q)];
  std::uint64_t searches = 0, scans = 0, writes = 0;
  cb.for_each_set([&](std::uint64_t bit) {
    const auto uvtx = static_cast<graph::Vertex>(cb0 + bit);
    ++searches;
    const auto it = std::lower_bound(blk.keys.begin(), blk.keys.end(), uvtx);
    if (it == blk.keys.end() || *it != uvtx) return;
    const auto idx = static_cast<std::size_t>(it - blk.keys.begin());
    for (std::uint64_t e = blk.offsets[idx]; e < blk.offsets[idx + 1]; ++e) {
      const graph::Vertex v = blk.targets[e];
      ++scans;
      const auto dk = static_cast<std::size_t>(g.col_of(g.owner(v)));
      oc[dk].push_back(v);
      op[dk].push_back(uvtx);
      ++writes;
    }
  });
  p.prof.counters().edges_scanned += scans;
  p.prof.counters().queue_writes += writes;
  p.charge(sim::Phase::td_comp,
           u.stream_pass_ns(g.colband_bits() / 64) +
               (static_cast<double>(searches) * u.group_search_ns +
                static_cast<double>(scans) * u.edge_scan_ns +
                static_cast<double>(writes) * u.write_ns) /
                   u.omp_div);
}

/// Bottom-up scan: walk the block's targets skipping settled ones via the
/// row-band visited replica, probe the col-band frontier through its
/// summary, claim the first live parent.
void scan_bu(rt::Proc& p, const DistGraph2d& dg, State2d& st,
             const bfs::UnitCosts& u, int q) {
  const Grid2d& g = dg.grid;
  const Block2d& blk = dg.blocks[static_cast<std::size_t>(q)];
  const std::uint64_t band0 = g.band_begin(g.row_of(q));
  const std::uint64_t cb0 = g.colband_begin(g.col_of(q));
  const auto rv = st.row_visited[static_cast<std::size_t>(q)].view();
  const auto cb = st.colband[static_cast<std::size_t>(q)].view();
  const auto sum = st.colband_summary[static_cast<std::size_t>(q)].view();
  auto& oc = st.out_children[static_cast<std::size_t>(q)];
  auto& op = st.out_parents[static_cast<std::size_t>(q)];
  std::uint64_t vprobes = 0, sprobes = 0, qprobes = 0, zskips = 0;
  std::uint64_t scans = 0, hits = 0, writes = 0;
  for (std::size_t idx = 0; idx < blk.bu_keys.size(); ++idx) {
    const graph::Vertex v = blk.bu_keys[idx];
    ++vprobes;
    if (rv.get(v - band0)) continue;  // settled (row-band replica current)
    for (std::uint64_t e = blk.bu_offsets[idx]; e < blk.bu_offsets[idx + 1];
         ++e) {
      const graph::Vertex uvtx = blk.bu_sources[e];
      const std::uint64_t off = uvtx - cb0;
      ++scans;
      ++sprobes;
      if (!sum.covers(off)) {
        ++zskips;
        continue;
      }
      ++qprobes;
      if (cb.get(off)) {
        ++hits;
        const auto dk = static_cast<std::size_t>(g.col_of(g.owner(v)));
        oc[dk].push_back(v);
        op[dk].push_back(uvtx);
        ++writes;
        break;  // first live parent wins; stop scanning v's sources
      }
    }
  }
  auto& cnt = p.prof.counters();
  cnt.summary_probes += sprobes;
  cnt.summary_zero_skips += zskips;
  cnt.inqueue_probes += qprobes;
  cnt.frontier_hits += hits;
  cnt.edges_scanned += scans;
  cnt.queue_writes += writes;
  p.charge(sim::Phase::bu_comp,
           (static_cast<double>(vprobes) * u.visited_probe_ns +
            static_cast<double>(sprobes) * u.summary_probe_ns +
            static_cast<double>(qprobes) * u.inqueue_probe_ns +
            static_cast<double>(scans) * u.edge_scan_ns +
            static_cast<double>(writes) * u.write_ns) /
               u.omp_div);
}

/// Level-boundary checkpoint of one partition: everything the level loop
/// mutates, *including* the frontier piece — unlike the 1-D, the col-band
/// inputs are rebuilt from the frontier pieces on recovery, so the pieces
/// must roll back too (the 1-D's exchange had already replicated them
/// everywhere, so only the adopted rank's view mattered).
struct Ckpt2d {
  std::vector<std::uint64_t> visited;
  std::vector<std::uint64_t> frontier;
  std::vector<std::uint64_t> row_visited;
  std::vector<graph::Vertex> pred;
  std::uint64_t unvisited_edges = 0;
};

std::uint64_t ckpt_words(const Grid2d& g) {
  return 2 * (g.piece_bits() / 64) + g.band_bits() / 64 +
         g.piece_bits() * sizeof(graph::Vertex) / 8;
}

}  // namespace

std::string Bfs2dOptions::validate() const {
  if (summary_granularity < 1) return "summary_granularity must be >= 1";
  if (alpha <= 0.0 || beta <= 0.0) return "alpha/beta must be positive";
  if (exchange_chunks < 1 || exchange_chunks > 4096)
    return "exchange_chunks must be in [1, 4096]";
  if (exchange_chunks > 1 && codec == bfs::CodecMode::off)
    return "exchange_chunks > 1 requires an active codec: the raw exchange "
           "has no decode stage to overlap (set codec=gate or "
           "exchange_chunks=1)";
  return {};
}

Bfs2dResult run_bfs_2d(rt::Cluster& c, const DistGraph2d& dg,
                       graph::Vertex root,
                       std::vector<graph::Vertex>* parent_out,
                       const Bfs2dOptions& opt) {
  const Grid2d& g = dg.grid;
  if (c.nranks() != g.np())
    throw std::invalid_argument(
        "run_bfs_2d: cluster has " + std::to_string(c.nranks()) +
        " ranks but the grid is " + std::to_string(g.rows()) + "x" +
        std::to_string(g.cols()));
  if (g.cols() % c.ppn() != 0)
    throw std::invalid_argument(
        "run_bfs_2d: ppn=" + std::to_string(c.ppn()) +
        " must divide the grid's column count C=" + std::to_string(g.cols()) +
        " so processor rows span whole nodes");
  if (root >= g.n())
    throw std::invalid_argument("run_bfs_2d: root out of range");
  if (const std::string err = opt.validate(); !err.empty())
    throw std::invalid_argument("run_bfs_2d: " + err);

  const int np = g.np();
  std::vector<bfs::UnitCosts> costs(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    bfs::StructSizes sz;
    sz.in_queue_bytes = g.colband_bits() / 8;
    sz.in_summary_bytes = (g.colband_bits() / opt.summary_granularity + 7) / 8;
    sz.owned_bytes = g.piece_bits() / 8 +
                     g.piece_bits() * sizeof(graph::Vertex) +
                     g.band_bits() / 8;
    sz.td_group_count = std::max<std::uint64_t>(
        1, dg.blocks[static_cast<std::size_t>(r)].keys.size());
    bfs::Config ccfg;
    ccfg.summary_granularity = opt.summary_granularity;
    costs[static_cast<std::size_t>(r)] = bfs::unit_costs(c, ccfg, sz);
  }

  State2d st(dg, opt.summary_granularity);

  // Recorder-written: `out`'s per-run fields and these per-level records.
  Bfs2dResult out;
  out.visited = 1;  // root
  struct Shared {
    std::vector<std::uint64_t> frontier_sizes;
    std::vector<std::uint64_t> discovered;
    std::vector<int> expand_codec;
    std::vector<int> plan;
    double fold_ns_sum = 0;
  } shared;
  std::vector<std::vector<LegBytes>> rank_levels(static_cast<std::size_t>(np));
  // Each rank's col-band delivery legs: (sum of their times, count).
  std::vector<std::pair<double, int>> rank_expands(
      static_cast<std::size_t>(np));

  bfs::LevelLoop loop(c, {.who = "run_bfs_2d", .trace_cat = obs::kCatBfs});
  std::vector<Ckpt2d> ckpt(static_cast<std::size_t>(np));
  const bfs::Beamer beamer{opt.alpha, opt.beta};
  // The set-up reduction's only use is level 0's direction. Beamer's first
  // test grows with the root's degree, so if even the largest degree would
  // start top-down, every root does and the reduction is skipped.
  const bool setup_reduce =
      opt.direction == bfs::Direction::hybrid &&
      beamer.first(dg.max_degree, dg.directed_edges - dg.max_degree) == 1;

  c.run([&](rt::Proc& p) {
    const bfs::UnitCosts& u = costs[static_cast<std::size_t>(p.rank)];
    rt::Comm& world = c.world();
    TwoDExchange ex(dg, st, costs, opt);

    // --- per-root reset (Phase::other, like the 1-D) --------------------
    {
      const auto s = static_cast<std::size_t>(p.rank);
      st.frontier[s].view().reset();
      st.next[s].view().reset();
      st.visited[s].view().reset();
      st.colband[s].view().reset();
      st.row_visited[s].view().reset();
      std::fill(st.pred[s].begin(), st.pred[s].end(), graph::kNoVertex);
      st.unvisited_edges[s] = dg.owned_edges[s];
      for (auto& box : st.out_children[s]) box.clear();
      for (auto& box : st.out_parents[s]) box.clear();
      const int owner = g.owner(root);
      if (owner == p.rank) {
        const std::uint64_t lv = root - g.piece_begin(p.rank);
        st.visited[s].view().set(lv);
        st.frontier[s].view().set(lv);
        st.pred[s][lv] = root;
        st.unvisited_edges[s] -= dg.piece_deg[s][lv];
      }
      if (g.row_of(p.rank) == g.row_of(owner))
        st.row_visited[s].view().set(root - g.band_begin(g.row_of(p.rank)));
      p.charge(sim::Phase::other,
               u.stream_pass_ns(3 * (g.piece_bits() / 64) +
                                g.band_bits() / 64 + g.colband_bits() / 64));
      p.barrier(world, sim::Phase::other);
    }

    int dir = opt.direction == bfs::Direction::bottom_up_only ? 1 : 0;
    if (setup_reduce) {
      // The root's degree and the edges left to traverse, for the first
      // level's direction.
      std::array<std::uint64_t, 2> root_stats{
          g.owner(root) == p.rank
              ? dg.piece_deg[static_cast<std::size_t>(p.rank)]
                            [root - g.piece_begin(p.rank)]
              : 0,
          st.unvisited_edges[static_cast<std::size_t>(p.rank)]};
      rt::allreduce(p, world, root_stats,
                    std::array{rt::ReduceOp::sum, rt::ReduceOp::sum},
                    sim::Phase::stall);
      dir = beamer.first(root_stats[0], root_stats[1]);
    }

    // Level 0's col-band inputs hold the root alone, which every rank
    // knows: the members of its column band set its bit locally, with no
    // wire, gate or charge.
    {
      const auto s = static_cast<std::size_t>(p.rank);
      const auto root_col = static_cast<int>(root / g.colband_bits());
      if (g.col_of(p.rank) == root_col)
        st.colband[s].view().set(root - g.colband_begin(root_col));
      if (dir == 1)
        st.colband_summary[s].view().rebuild_range(st.colband[s].view(), 0,
                                                   g.colband_bits());
    }

    std::uint64_t prev_nf = 1;  // the root seeds level 0's frontier
    double my_fold_sum = 0;
    // The legs that built the current level's inputs: none for level 0.
    LegBytes in_legs;
    // A rollback restores the level's frontier pieces, which hold prev_nf
    // bits; rebuild the col-band inputs from them.
    const auto build_inputs = [&](std::span<const int> parts) {
      ex.reset_legs();
      ex.build_inputs(p, dir, prev_nf, parts);
      in_legs = ex.legs();
    };

    // Per-attempt level state: the kernel step fills it, finish reads it.
    LegBytes cur_legs;

    // The level's stats words: accepted claims, their edges, and the edges
    // left unvisited.
    enum : std::size_t { kNf, kMf, kRem };
    bfs::LevelHooks hooks;
    hooks.stats.assign(3, rt::ReduceOp::sum);
    hooks.save = [&](int q) {
      const auto s = static_cast<std::size_t>(q);
      Ckpt2d& ck = ckpt[s];
      auto vw = st.visited[s].view().words();
      ck.visited.assign(vw.begin(), vw.end());
      auto fw = st.frontier[s].view().words();
      ck.frontier.assign(fw.begin(), fw.end());
      auto rw = st.row_visited[s].view().words();
      ck.row_visited.assign(rw.begin(), rw.end());
      ck.pred = st.pred[s];
      ck.unvisited_edges = st.unvisited_edges[s];
      p.charge(sim::Phase::other, costs[s].stream_pass_ns(ckpt_words(g)));
    };
    hooks.restore = [&](int q) {
      const auto s = static_cast<std::size_t>(q);
      const Ckpt2d& ck = ckpt[s];
      std::memcpy(st.visited[s].view().words().data(), ck.visited.data(),
                  ck.visited.size() * 8);
      std::memcpy(st.frontier[s].view().words().data(), ck.frontier.data(),
                  ck.frontier.size() * 8);
      std::memcpy(st.row_visited[s].view().words().data(),
                  ck.row_visited.data(), ck.row_visited.size() * 8);
      st.pred[s] = ck.pred;
      st.unvisited_edges[s] = ck.unvisited_edges;
      st.next[s].view().reset();
      for (auto& box : st.out_children[s]) box.clear();
      for (auto& box : st.out_parents[s]) box.clear();
      p.charge(sim::Phase::other, costs[s].stream_pass_ns(ckpt_words(g)));
    };
    hooks.after_rollback = build_inputs;
    hooks.kernel = [&](const bfs::Level& lv) {
      cur_legs = in_legs;

      // --- local scan -------------------------------------------------
      const double kernel_t0 = p.clock.now_ns();
      for (int q : lv.parts) {
        const bfs::UnitCosts& qu = costs[static_cast<std::size_t>(q)];
        if (dir == 0)
          scan_td(p, dg, st, qu, q);
        else
          scan_bu(p, dg, st, qu, q);
      }
      p.trace_span(obs::kCatBfs, dir == 0 ? "2d.td_kernel" : "2d.bu_kernel",
                   kernel_t0, p.clock.now_ns(), obs::kv("level", lv.number));

      // --- fold: claims travel the rows to their owners ---------------
      ex.reset_legs();
      const FoldStats fr = ex.fold(p, dir, lv.parts);
      my_fold_sum += ex.last_fold_ns();
      cur_legs.fold_wire += ex.legs().fold_wire;
      cur_legs.fold_raw += ex.legs().fold_raw;

      lv.stats[kNf] = fr.discovered;
      lv.stats[kMf] = fr.discovered_edges;
      for (int q : lv.parts)
        lv.stats[kRem] += st.unvisited_edges[static_cast<std::size_t>(q)];
    };
    hooks.finish = [&](const bfs::Level& lv) {
      const std::uint64_t nf = lv.stats[kNf], mf = lv.stats[kMf],
                          rem = lv.stats[kRem];
      if (lv.recorder) {
        out.directions.push_back(dir);
        out.visited += nf;
        shared.frontier_sizes.push_back(prev_nf);
        shared.discovered.push_back(nf);
        shared.expand_codec.push_back(cur_legs.expand_codec);
        shared.plan.push_back(cur_legs.plan);
      }
      const bool growing = nf > prev_nf;
      prev_nf = nf;

      const auto record_level = [&] {
        rank_levels[static_cast<std::size_t>(p.rank)].push_back(cur_legs);
        p.trace_span(obs::kCatBfs, "level " + std::to_string(lv.number),
                     lv.t0, p.clock.now_ns(),
                     obs::kv("dir", dir == 0 ? "td" : "bu") + "," +
                         obs::kv("discovered", nf));
      };
      if (nf == 0) {
        record_level();
        return false;
      }

      const int next = opt.direction == bfs::Direction::hybrid
                           ? beamer.next(dir, growing, nf, mf, rem, g.n())
                           : dir;

      ex.reset_legs();
      const bfs::ExchangeLevelStats exs =
          ex.exchange(p, dir, next, nf, lv.parts, lv.reduce_ns);
      p.trace_instant(obs::kCatBfs, "codec.gate",
                      bfs::gate_trace_args(lv.number, exs));
      // Every leg of the exchange built the next level's inputs.
      in_legs = ex.legs();
      record_level();
      dir = next;
      return true;
    };

    loop.run(p, 0, hooks);
    rank_expands[static_cast<std::size_t>(p.rank)] = {ex.expand_ns_sum(),
                                                      ex.expands()};
    if (p.rank == loop.recorder()) shared.fold_ns_sum = my_fold_sum;
  });

  // --- aggregate (host side) -------------------------------------------
  const bfs::LoopTotals tot = loop.totals(out.directions);
  tot.copy_to(out);
  out.time_ns = tot.time_ns;
  out.profile_max = tot.profile_max;

  std::uint64_t traversed = 0;
  for (int r = 0; r < np; ++r)
    traversed += dg.owned_edges[static_cast<std::size_t>(r)] -
                 st.unvisited_edges[static_cast<std::size_t>(r)];
  out.traversed_directed_edges = traversed;
  double expand_ns_sum = 0;
  int expands = 0;
  for (const auto& [sum, n] : rank_expands) {
    expand_ns_sum += sum;
    expands += n;
  }
  if (expands > 0)
    out.expand_ns_per_level = expand_ns_sum / static_cast<double>(expands);
  if (out.levels > 0)
    out.fold_ns_per_level =
        shared.fold_ns_sum / static_cast<double>(out.levels);

  out.trace.reserve(out.directions.size());
  for (std::size_t lvl = 0; lvl < out.directions.size(); ++lvl) {
    Level2dTrace t;
    t.level = static_cast<int>(lvl);
    t.direction = out.directions[lvl];
    t.frontier_vertices = shared.frontier_sizes[lvl];
    t.discovered = shared.discovered[lvl];
    t.expand_codec = shared.expand_codec[lvl];
    t.plan = shared.plan[lvl];
    for (const auto& rl : rank_levels) {
      if (lvl >= rl.size()) continue;
      t.transpose_wire_bytes += rl[lvl].transpose_wire;
      t.transpose_raw_bytes += rl[lvl].transpose_raw;
      t.expand_wire_bytes += rl[lvl].expand_wire;
      t.expand_raw_bytes += rl[lvl].expand_raw;
      t.fold_wire_bytes += rl[lvl].fold_wire;
      t.fold_raw_bytes += rl[lvl].fold_raw;
      t.return_wire_bytes += rl[lvl].ret_wire;
      t.return_raw_bytes += rl[lvl].ret_raw;
    }
    out.trace.push_back(t);
  }

  if (parent_out != nullptr) {
    parent_out->assign(g.n(), graph::kNoVertex);
    for (int r = 0; r < np; ++r) {
      const auto& pr = st.pred[static_cast<std::size_t>(r)];
      const std::uint64_t vb = g.piece_begin(r);
      for (std::size_t i = 0; i < pr.size() && vb + i < g.n(); ++i)
        (*parent_out)[vb + i] = pr[i];
    }
  }
  return out;
}

}  // namespace numabfs::bfs2d
