#include "bfs/hybrid.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <optional>

#include "bfs/direction.hpp"
#include "bfs/exchange.hpp"
#include "bfs/kernels.hpp"
#include "bfs/level_loop.hpp"
#include "runtime/allgather.hpp"
#include "tune/controller.hpp"

namespace numabfs::bfs {

namespace {

/// Per-root reset: wipe visited/pred/queues and seed the root.
/// Charged to Phase::other (root setup is excluded from the paper's
/// breakdown but must not be free).
void reset_state(rt::Proc& p, const graph::DistGraph& dg, DistState& st,
                 graph::Vertex root, const UnitCosts& u) {
  rt::Cluster& c = *p.cluster;
  const auto& lg = dg.locals[static_cast<size_t>(p.rank)];
  const std::uint64_t block_words = dg.part.block() / 64;
  const std::uint64_t padded_words = st.padded_bits() / 64;

  st.visited(p.rank).reset();
  auto pred = st.pred(p.rank);
  std::fill(pred.begin(), pred.end(), graph::kNoVertex);
  st.unvisited_edges(p.rank) = lg.owned_edges();

  // out structures: only our own chunk can carry stale bits.
  {
    auto out_q = st.out_queue(p.rank);
    std::memset(out_q.words().data() +
                    static_cast<std::uint64_t>(p.rank) * block_words,
                0, block_words * 8);
    auto sw = st.out_summary(p.rank).bits().words();
    if (!st.shared_out()) {
      std::memset(sw.data(), 0, sw.size() * 8);
    } else {
      const std::size_t lo = sw.size() * static_cast<std::size_t>(p.local) /
                             static_cast<std::size_t>(p.ppn);
      const std::size_t hi =
          sw.size() * static_cast<std::size_t>(p.local + 1) /
          static_cast<std::size_t>(p.ppn);
      std::memset(sw.data() + lo, 0, (hi - lo) * 8);
    }
  }

  // in structures: one writer per copy.
  auto in_q = st.in_queue(p.rank);
  auto in_s = st.in_summary(p.rank);
  if (!st.shared_in() || p.is_node_leader()) {
    in_q.reset();
    auto sw = in_s.bits().words();
    std::memset(sw.data(), 0, sw.size() * 8);
    in_q.set(root);
    in_s.mark(root);
  }

  // Root bookkeeping at the owner; every rank seeds its frontier list.
  auto& frontier = st.frontier(p.rank);
  frontier.clear();
  frontier.push_back(root);
  st.discovered(p.rank).clear();
  if (root >= lg.vbegin && root < lg.vend) {
    const std::uint64_t lv = root - lg.vbegin;
    st.visited(p.rank).set(lv);
    pred[lv] = root;
    st.unvisited_edges(p.rank) -= lg.degree(lv);
  }

  p.charge(sim::Phase::other, u.stream_pass_ns(2 * padded_words + block_words));
  p.barrier(c.world(), sim::Phase::other);
}

/// Level-boundary checkpoint of one partition's mutable traversal state.
/// (The frontier inputs need no checkpoint: a crash happens at a level
/// start, after the exchange rebuilt them on every survivor.)
struct PartCheckpoint {
  std::vector<std::uint64_t> visited;
  std::vector<graph::Vertex> pred;
  std::uint64_t unvisited_edges = 0;
};

/// Words streamed by one checkpoint save/restore of partition `part`.
std::uint64_t ckpt_words(DistState& st, int part) {
  return st.visited(part).words().size() +
         st.pred(part).size() * sizeof(graph::Vertex) / 8;
}

}  // namespace

BfsRunResult run_bfs(rt::Cluster& c, const graph::DistGraph& dg, DistState& st,
                     graph::Vertex root) {
  const Config& cfg = st.config();
  BfsRunResult out;

  // Shape-derived unit costs (identical on every rank up to owned sizes;
  // we use rank-0 shapes for the shared structures, per-rank for owned).
  std::vector<UnitCosts> costs(static_cast<size_t>(c.nranks()));
  for (int r = 0; r < c.nranks(); ++r) {
    const auto& lg = dg.locals[static_cast<size_t>(r)];
    StructSizes sz;
    sz.in_queue_bytes = st.padded_bits() / 8;
    sz.in_summary_bytes = (st.summary_bits() + 7) / 8;
    sz.owned_bytes = lg.owned() / 8 + lg.owned() * sizeof(graph::Vertex);
    sz.td_group_count = std::max<std::uint64_t>(1, lg.td_keys.size());
    costs[static_cast<size_t>(r)] = unit_costs(c, cfg, sz);
  }

  // Recorder-written: `out`'s per-run fields and these per-level records.
  out.visited = 1;  // root
  struct Shared {
    std::vector<std::uint64_t> frontier_sizes;  // per level (input frontier)
    std::vector<std::uint64_t> discovered;      // per level
    std::vector<int> ex_codec;   // codec of the exchange after each level
  } shared;

  // Host-side per-rank, per-level measurements (no virtual-time impact).
  struct RankLevel {
    std::uint64_t edges = 0, skips = 0, probes = 0;
    std::uint64_t wire = 0, wire_raw = 0;
    double comp_ns = 0, comm_ns = 0;
  };
  std::vector<std::vector<RankLevel>> rank_levels(
      static_cast<size_t>(c.nranks()));

  LevelLoop loop(c, {.who = "run_bfs", .trace_cat = obs::kCatBfs});
  // Indexed by partition; ckpt[q] is written by q's current owner only, and
  // crash detection is barrier-ordered, so adoption hand-off is race-free.
  std::vector<PartCheckpoint> ckpt(static_cast<size_t>(c.nranks()));
  const Beamer beamer{cfg.alpha, cfg.beta};

  c.run([&](rt::Proc& p) {
    const UnitCosts& u = costs[static_cast<size_t>(p.rank)];
    rt::Comm& world = c.world();
    const auto& lg = dg.locals[static_cast<size_t>(p.rank)];

    // Online direction controller (DESIGN.md §15): a per-rank object, but
    // every input it consumes is allreduced or rank-uniform, so all ranks
    // step identical state and reach identical decisions. Off, nothing is
    // constructed and its words stay out of the level's reduction.
    std::optional<tune::DirectionController> dctl;
    if (cfg.tune.adapt_direction && cfg.direction == Direction::hybrid)
      dctl.emplace(cfg.tune.window,
                   tune::KnobPolicy{cfg.tune.hysteresis, cfg.tune.dwell});
    OneDExchange exchanger(dg, st, u);

    reset_state(p, dg, st, root, u);

    const std::uint64_t n = dg.n;
    const bool root_owned = root >= lg.vbegin && root < lg.vend;
    // Frontier stats of "level -1" (the root alone) and the edges left to
    // traverse: the very first level profits from knowing the root's degree.
    std::array<std::uint64_t, 2> root_stats{
        root_owned ? lg.degree(root - lg.vbegin) : 0,
        st.unvisited_edges(p.rank)};
    rt::allreduce(p, world, root_stats,
                  std::array{rt::ReduceOp::sum, rt::ReduceOp::sum},
                  sim::Phase::stall);
    int dir = cfg.direction == Direction::bottom_up_only ? 1 : 0;
    if (cfg.direction == Direction::hybrid)
      dir = beamer.first(root_stats[0], root_stats[1]);

    std::uint64_t prev_nf = 1;  // the root seeds level 0's frontier
    std::uint64_t visited_total = 1;  // rank-uniform (allreduced nf sums)

    // Per-attempt level state: the kernel step fills it, finish reads it.
    sim::Counters cnt0;  // counters at level start
    double comp0 = 0, comm0 = 0;

    // The level's stats words: discovered vertices and their edges, edges
    // left unvisited, and the controller's kernel time and edge count.
    enum : std::size_t { kNf, kMf, kRem, kKernelNs, kKernelEdges };
    LevelHooks hooks;
    hooks.stats.assign(dctl ? 5 : 3, rt::ReduceOp::sum);
    hooks.save = [&](int q) {
      PartCheckpoint& ck = ckpt[static_cast<size_t>(q)];
      auto vw = st.visited(q).words();
      ck.visited.assign(vw.begin(), vw.end());
      auto pr = st.pred(q);
      ck.pred.assign(pr.begin(), pr.end());
      ck.unvisited_edges = st.unvisited_edges(q);
      p.charge(sim::Phase::other, costs[static_cast<size_t>(q)].stream_pass_ns(
                                      ckpt_words(st, q)));
    };
    hooks.restore = [&](int q) {
      const PartCheckpoint& ck = ckpt[static_cast<size_t>(q)];
      auto vw = st.visited(q).words();
      std::memcpy(vw.data(), ck.visited.data(), ck.visited.size() * 8);
      auto pr = st.pred(q);
      std::memcpy(pr.data(), ck.pred.data(),
                  ck.pred.size() * sizeof(graph::Vertex));
      st.unvisited_edges(q) = ck.unvisited_edges;
      st.discovered(q).clear();
      p.charge(sim::Phase::other, costs[static_cast<size_t>(q)].stream_pass_ns(
                                      ckpt_words(st, q)));
    };
    hooks.kernel = [&](const Level& lv) {
      cnt0 = p.prof.counters();
      comp0 = p.prof.get(sim::Phase::td_comp) + p.prof.get(sim::Phase::bu_comp);
      comm0 = p.prof.comm_ns();

      const std::span<std::uint64_t> s = lv.stats;
      const double kernel_t0 = p.clock.now_ns();
      for (int q : lv.parts) {
        const auto& qlg = dg.locals[static_cast<size_t>(q)];
        const UnitCosts& qu = costs[static_cast<size_t>(q)];
        const LevelResult qr = dir == 0 ? top_down_level(p, qlg, qu, st, q)
                                        : bottom_up_level(p, qlg, qu, st, q);
        s[kNf] += qr.discovered;
        s[kMf] += qr.discovered_edges;
        s[kRem] += st.unvisited_edges(q);
      }
      if (dctl) {
        s[kKernelNs] = static_cast<std::uint64_t>(
            std::llround(p.clock.now_ns() - kernel_t0));
        s[kKernelEdges] = p.prof.counters().edges_scanned - cnt0.edges_scanned;
      }
      p.trace_span(obs::kCatBfs, dir == 0 ? "td_kernel" : "bu_kernel",
                   kernel_t0, p.clock.now_ns(),
                   obs::kv("level", lv.number) + "," +
                       obs::kv("discovered", s[kNf]));
    };
    hooks.finish = [&](const Level& lv) {
      const std::uint64_t nf = lv.stats[kNf], mf = lv.stats[kMf],
                          rem = lv.stats[kRem];
      // Completed-level accounting for the direction controller: the level
      // survived crash detection, so its measurements are final.
      const std::uint64_t unvisited_before = n - visited_total;
      visited_total += nf;
      if (dctl)
        dctl->observe(dir, static_cast<double>(lv.stats[kKernelNs]),
                      lv.stats[kKernelEdges], unvisited_before);

      if (lv.recorder) {
        out.directions.push_back(dir);
        out.visited += nf;
        shared.frontier_sizes.push_back(prev_nf);
        shared.discovered.push_back(nf);
      }
      const bool growing = nf > prev_nf;
      prev_nf = nf;

      const auto record_level = [&] {
        const auto& cnt1 = p.prof.counters();
        RankLevel rl;
        rl.edges = cnt1.edges_scanned - cnt0.edges_scanned;
        rl.skips = cnt1.summary_zero_skips - cnt0.summary_zero_skips;
        rl.probes = cnt1.summary_probes - cnt0.summary_probes;
        rl.wire = cnt1.bytes_intra_node + cnt1.bytes_inter_node -
                  (cnt0.bytes_intra_node + cnt0.bytes_inter_node);
        rl.wire_raw = cnt1.bytes_raw_equiv - cnt0.bytes_raw_equiv;
        rl.comp_ns = p.prof.get(sim::Phase::td_comp) +
                     p.prof.get(sim::Phase::bu_comp) - comp0;
        rl.comm_ns = p.prof.comm_ns() - comm0;
        rank_levels[static_cast<size_t>(p.rank)].push_back(rl);
        p.trace_span(obs::kCatBfs, "level " + std::to_string(lv.number),
                     lv.t0, p.clock.now_ns(),
                     obs::kv("dir", dir == 0 ? "td" : "bu") + "," +
                         obs::kv("discovered", nf));
      };
      if (nf == 0) {
        if (lv.recorder) shared.ex_codec.push_back(-1);  // no exchange
        record_level();
        return false;
      }

      // Decide the next level's direction first: it selects the exchange.
      int next = dir;
      if (cfg.direction == Direction::hybrid) {
        // With the controller: measured-rate choice once both directions
        // have history, Beamer's rule until then (controller.hpp).
        next = dctl ? dctl->decide(dir, growing, nf, mf, rem,
                                   n - visited_total, n, cfg.alpha, cfg.beta)
                    : beamer.next(dir, growing, nf, mf, rem, n);
      }

      // The bitmap allgathers belong to the bottom-up procedure (Fig. 1);
      // the sparse list exchange is the top-down queue handoff. Both sit
      // behind OneDExchange (DESIGN.md §13).
      const ExchangeLevelStats ex =
          exchanger.exchange(p, dir, next, nf, lv.parts);
      p.trace_instant(obs::kCatBfs, "codec.gate",
                      gate_trace_args(lv.number, ex));
      if (lv.recorder) {
        (ex.bitmap ? out.bu_exchanges : out.td_exchanges)++;
        shared.ex_codec.push_back(static_cast<int>(ex.codec));
      }
      record_level();
      dir = next;
      return true;
    };

    loop.run(p, 0, hooks);
    if (p.rank == loop.recorder() && dctl)
      out.tune_direction_switches = dctl->switches();
  });

  // Aggregate.
  const LoopTotals tot = loop.totals(out.directions);
  tot.copy_to(out);
  out.time_ns = tot.time_ns;
  out.profile_max = tot.profile_max;

  std::uint64_t traversed = 0;
  for (int r = 0; r < c.nranks(); ++r)
    traversed += dg.locals[static_cast<size_t>(r)].owned_edges() -
                 st.unvisited_edges(r);
  out.traversed_directed_edges = traversed;

  // Assemble the per-level trace from the host-side rank records.
  out.trace.reserve(out.directions.size());
  for (size_t lvl = 0; lvl < out.directions.size(); ++lvl) {
    LevelTrace t;
    t.level = static_cast<int>(lvl);
    t.direction = out.directions[lvl];
    t.frontier_vertices = shared.frontier_sizes[lvl];
    t.discovered = shared.discovered[lvl];
    if (lvl < shared.ex_codec.size()) t.exchange_codec = shared.ex_codec[lvl];
    for (const auto& rl : rank_levels) {
      if (lvl >= rl.size()) continue;
      t.edges_scanned += rl[lvl].edges;
      t.summary_zero_skips += rl[lvl].skips;
      t.summary_probes += rl[lvl].probes;
      t.wire_bytes += rl[lvl].wire;
      t.wire_raw_bytes += rl[lvl].wire_raw;
      t.comp_ns += rl[lvl].comp_ns;
      t.comm_ns += rl[lvl].comm_ns;
    }
    t.comp_ns /= static_cast<double>(c.nranks());
    t.comm_ns /= static_cast<double>(c.nranks());
    out.trace.push_back(t);
  }
  return out;
}

std::vector<graph::Vertex> gather_parents(const graph::DistGraph& dg,
                                          DistState& st) {
  std::vector<graph::Vertex> parent(dg.n, graph::kNoVertex);
  for (int r = 0; r < dg.part.np(); ++r) {
    const auto pred = st.pred(r);
    const std::uint64_t vb = dg.part.begin(r);
    for (std::size_t i = 0; i < pred.size(); ++i) parent[vb + i] = pred[i];
  }
  return parent;
}

}  // namespace numabfs::bfs
