#include "engine/fprog.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "bfs/direction.hpp"
#include "bfs/level_loop.hpp"
#include "engine/presence_exchange.hpp"
#include "runtime/allgather.hpp"

namespace numabfs::engine {

ProgramState::ProgramState(const graph::DistGraph& dg, const bfs::Config& cfg,
                           int nodes, int ppn, bool with_values)
    : cfg_(cfg),
      np_(dg.part.np()),
      ppn_(ppn),
      shared_(cfg.sharing != bfs::Sharing::none && ppn > 1),
      with_values_(with_values),
      block_(dg.part.block()),
      wpb_((dg.part.block() + 63) / 64) {
  if (np_ != nodes * ppn)
    throw std::invalid_argument("ProgramState: partition/shape mismatch");
  const std::uint64_t g = cfg_.summary_granularity;
  const int nrep = shared_ ? nodes : np_;
  frontier_.assign(static_cast<std::size_t>(nrep),
                   std::vector<std::uint64_t>(padded_words(), 0));
  fsummary_.assign(static_cast<std::size_t>(nrep),
                   graph::Summary(padded_words() * 64, g));
  if (with_values_)
    values_.assign(static_cast<std::size_t>(nrep),
                   std::vector<Value>(padded_values(), 0));
  out_bits_.assign(static_cast<std::size_t>(np_),
                   std::vector<std::uint64_t>(wpb_, 0));
  out_summary_.assign(static_cast<std::size_t>(np_),
                      graph::Summary(block_, g));
  if (with_values_)
    val_out_.assign(static_cast<std::size_t>(np_),
                    std::vector<Value>(block_, 0));
}

namespace {
inline std::size_t replica_of(bool shared, int ppn, int rank) {
  return static_cast<std::size_t>(shared ? rank / ppn : rank);
}
}  // namespace

std::span<std::uint64_t> ProgramState::frontier(int rank) {
  return frontier_[replica_of(shared_, ppn_, rank)];
}
graph::SummaryView ProgramState::frontier_summary(int rank) {
  return fsummary_[replica_of(shared_, ppn_, rank)].view();
}
std::span<Value> ProgramState::values(int rank) {
  if (!with_values_) return {};
  return values_[replica_of(shared_, ppn_, rank)];
}
std::span<std::uint64_t> ProgramState::out_bits(int part) {
  return out_bits_[static_cast<std::size_t>(part)];
}
graph::SummaryView ProgramState::out_summary(int part) {
  return out_summary_[static_cast<std::size_t>(part)].view();
}
std::span<Value> ProgramState::val_out(int part) {
  if (!with_values_) return {};
  return val_out_[static_cast<std::size_t>(part)];
}

namespace {

/// A level's statistics as the words of its one reduction: five sums, the
/// min-reduced program word and the or-reduced flags. Every rank leaves the
/// reduction with the identical view, which post_level() and the direction
/// choice key off. `sources` and `scanned` are local charging inputs, not
/// control, and stay out.
constexpr std::array kStatFields{
    &ProgStats::changed, &ProgStats::frontier_edges, &ProgStats::needy,
    &ProgStats::mu,      &ProgStats::acc,            &ProgStats::min_word,
    &ProgStats::flags};
constexpr std::array kStatOps{rt::ReduceOp::sum, rt::ReduceOp::sum,
                              rt::ReduceOp::sum, rt::ReduceOp::sum,
                              rt::ReduceOp::sum, rt::ReduceOp::min,
                              rt::ReduceOp::bit_or};

void put_stats(const ProgStats& st, std::span<std::uint64_t> w) {
  for (std::size_t i = 0; i < kStatFields.size(); ++i)
    w[i] = st.*kStatFields[i];
}

ProgStats reduced_stats(std::span<const std::uint64_t> w) {
  ProgStats r;
  for (std::size_t i = 0; i < kStatFields.size(); ++i)
    r.*kStatFields[i] = w[i];
  return r;
}

/// Per-level exchange of the program state through the presence exchange.
/// A partition's chunk is its presence bits, its out summary and the
/// changed values (with_values); the simulation lands the full value block
/// per slab — unchanged entries already match what every replica holds, so
/// only the changed ones are modeled on the wire.
void prog_exchange(rt::Proc& p, ProgramState& ps, const bfs::UnitCosts& u,
                   std::span<const int> parts) {
  const std::uint64_t block = ps.block();
  const std::uint64_t wpb = ps.words_per_block();
  auto frontier = ps.frontier(p.rank);
  auto vals = ps.values(p.rank);
  PresenceBlocks b;
  b.trace_name = "prog.exchange";
  b.block = block;
  b.payload_bytes = ps.with_values() ? sizeof(Value) : 0;
  b.replica_summary = ps.frontier_summary(p.rank);
  b.scan = [&](int q, bool) {
    Presence pr;
    pr.bits = ps.out_bits(q);  // the out bits are the presence bitmap
    for (std::uint64_t w : pr.bits)
      pr.nnz += static_cast<std::uint64_t>(std::popcount(w));
    pr.scan_words = wpb;
    return pr;
  };
  b.copy = [&](int q) {
    std::memcpy(frontier.data() + static_cast<std::uint64_t>(q) * wpb,
                ps.out_bits(q).data(), wpb * 8);
    if (ps.with_values())
      std::memcpy(vals.data() + static_cast<std::uint64_t>(q) * block,
                  ps.val_out(q).data(), block * sizeof(Value));
  };
  b.out = [&](int q) { return ps.out_bits(q); };
  b.out_summary = [&](int q) { return ps.out_summary(q); };
  presence_exchange(p, ps.config(), u, parts, b);
}

/// Engine-owned time charging for one partition's advance. Programs return
/// work counts; this converts them with the partition's unit costs —
/// push levels stream the replicated frontier words and pay group search +
/// edge scans, pull levels stream the owned side and pay per-edge frontier
/// probes. Merged-view read amplification (dynamic graphs) is charged from
/// the slice's own patch-read counter, as in the BFS kernels.
void charge_advance(rt::Proc& p, const bfs::UnitCosts& u,
                    const graph::LocalGraph& lg, const ProgramState& ps,
                    const ProgStats& st, int dir, bool use_summary) {
  const auto patch = static_cast<double>(lg.take_patch_reads());
  const auto scanned = static_cast<double>(st.scanned);
  const auto changed = static_cast<double>(st.changed);
  if (dir == 0) {
    const double inner = static_cast<double>(st.sources) * u.group_search_ns +
                         scanned * u.edge_scan_ns + changed * u.write_ns +
                         patch * u.delta_probe_ns;
    p.charge(sim::Phase::td_comp,
             u.stream_pass_ns(ps.padded_words()) + inner / u.omp_div);
  } else {
    const double probe =
        u.inqueue_probe_ns + (use_summary ? u.summary_probe_ns : 0.0);
    const double inner = scanned * (u.edge_scan_ns + probe) +
                         changed * u.write_ns + patch * u.delta_probe_ns;
    p.charge(sim::Phase::bu_comp,
             u.stream_pass_ns(ps.words_per_block() +
                              (ps.with_values() ? ps.block() : 0)) +
                 inner / u.omp_div);
  }
}

}  // namespace

ProgramResult run_program(rt::Cluster& c, const graph::DistGraph& dg,
                          ProgramState& ps, const FrontierProgram& prog,
                          const ProgramQuery& query,
                          const ProgramOptions& opts) {
  const bfs::Config& cfg = ps.config();
  if (query.source >= dg.n || query.target >= dg.n)
    throw std::invalid_argument("run_program: query vertex out of range");
  if (prog.with_values() != ps.with_values())
    throw std::invalid_argument(
        "run_program: state was built for a different value mode");

  const ProgramCheckpoint* rck = opts.resume_from;
  if (rck != nullptr) {
    const auto np = static_cast<std::size_t>(c.nranks());
    if (!rck->valid || rck->frontier.size() != ps.padded_words() ||
        (ps.with_values() &&
         (rck->val_out.size() != np || rck->values.size() != ps.padded_values())) ||
        rck->scalars.size() != static_cast<std::size_t>(prog.scalar_count()))
      throw std::invalid_argument(
          "run_program: resume checkpoint missing or built for another shape");
  }
  ProgramCheckpoint* xp = opts.export_to;
  if (xp != nullptr) {
    xp->valid = false;
    xp->val_out.assign(static_cast<std::size_t>(c.nranks()), {});
  }

  std::vector<bfs::UnitCosts> costs(static_cast<std::size_t>(c.nranks()));
  for (int r = 0; r < c.nranks(); ++r) {
    const auto& lg = dg.locals[static_cast<std::size_t>(r)];
    bfs::StructSizes sz;
    sz.in_queue_bytes =
        ps.padded_words() * 8 +
        (ps.with_values() ? ps.padded_values() * sizeof(Value) : 0);
    sz.in_summary_bytes = (ps.summary_bits() + 7) / 8;
    sz.owned_bytes = (lg.owned() + 7) / 8 +
                     (ps.with_values() ? lg.owned() * sizeof(Value) : 0);
    sz.td_group_count = std::max<std::uint64_t>(1, lg.td_keys.size());
    costs[static_cast<std::size_t>(r)] = bfs::unit_costs(c, cfg, sz);
  }

  bfs::LevelLoop loop(c, {.who = "run_program",
                          .trace_cat = obs::kCatEngine,
                          .level_base = 1,
                          .max_level = opts.max_levels,
                          .abort_at_ns = opts.abort_at_ns,
                          .export_every = opts.export_every,
                          .export_instant = "prog.ckpt"});
  // Boundary checkpoints hold each partition's val_out — unlike the wave's
  // seen-only checkpoints, program values are not generally idempotent
  // (PageRank accumulates residuals), so a level re-run needs the values
  // exactly as the boundary left them. Out bits are always zero at a
  // boundary (the exchange wipes them) and need no saving.
  std::vector<std::vector<Value>> ckpt(static_cast<std::size_t>(c.nranks()));
  // The wave's lane cost model, fed by the program's reduced statistics:
  // push ~ frontier-word stream + the frontier's real edges, pull ~ the
  // in-play vertices' adjacency with per-edge frontier probes.
  const bfs::LaneCostModel model{static_cast<double>(dg.n),
                                 static_cast<double>(c.nranks()),
                                 static_cast<double>(cfg.summary_granularity),
                                 costs[0]};

  // Recorder-written: the per-level directions and the level records.
  std::vector<int> directions;
  ProgramResult res;
  res.epoch = opts.epoch;

  c.run([&](rt::Proc& p) {
    const bfs::UnitCosts& u = costs[static_cast<std::size_t>(p.rank)];
    rt::Comm& world = c.world();
    const std::vector<int> own{p.rank};
    const std::uint64_t block = ps.block();

    std::vector<std::uint64_t> scalars(
        static_cast<std::size_t>(prog.scalar_count()));
    const auto choose = [&](const ProgStats& rs) {
      return model.choose(static_cast<double>(rs.frontier_edges),
                          static_cast<double>(rs.changed),
                          static_cast<double>(rs.needy),
                          static_cast<double>(rs.mu));
    };

    const auto make_ctx = [&](int q) {
      return PartCtx{dg.locals[static_cast<std::size_t>(q)],
                     q,
                     dg.locals[static_cast<std::size_t>(q)].vbegin,
                     block,
                     ps.frontier(p.rank),
                     ps.frontier_summary(p.rank),
                     ps.values(p.rank),
                     ps.out_bits(q),
                     ps.out_summary(q),
                     ps.val_out(q),
                     &ps};
    };

    bfs::LaneChoice ch;
    int first_level = 1;

    if (rck == nullptr) {
      // Seed: wipe the replicas (one writer each), initialize the owned
      // partition through the program, then exchange the seed frontier.
      if (!ps.shared_frontier() || p.is_node_leader()) {
        auto f = ps.frontier(p.rank);
        std::memset(f.data(), 0, f.size() * 8);
        ps.frontier_summary(p.rank).bits().reset();
        if (ps.with_values()) {
          auto v = ps.values(p.rank);
          std::memset(v.data(), 0, v.size() * sizeof(Value));
        }
      }
      {
        auto out = ps.out_bits(p.rank);
        std::memset(out.data(), 0, out.size() * 8);
        ps.out_summary(p.rank).bits().reset();
      }
      prog.init_scalars(scalars);
      PartCtx ctx = make_ctx(p.rank);
      ProgStats st = prog.seed(query, ctx);
      p.charge(sim::Phase::other,
               u.stream_pass_ns(ps.padded_words() +
                                (ps.with_values() ? 2 * block : block)));
      p.barrier(world, sim::Phase::other);
      std::array<std::uint64_t, kStatOps.size()> w{};
      put_stats(st, w);
      rt::allreduce(p, world, w, kStatOps, sim::Phase::stall);
      prog_exchange(p, ps, u, own);
      if (prog.direction_optimizing()) ch = choose(reduced_stats(w));
    } else {
      // Failover resume: owners reload val_out, each replica writer reloads
      // the checkpointed frontier (bits + values) and rebuilds its summary;
      // the control position and scalars come from the exporter.
      std::copy(rck->scalars.begin(), rck->scalars.end(), scalars.begin());
      first_level = rck->level;
      ch = bfs::LaneChoice{rck->dir, rck->use_summary};
      std::uint64_t words = 0;
      if (ps.with_values()) {
        auto vo = ps.val_out(p.rank);
        const auto& saved = rck->val_out[static_cast<std::size_t>(p.rank)];
        std::memcpy(vo.data(), saved.data(), saved.size() * sizeof(Value));
        words += vo.size();
      }
      {
        auto out = ps.out_bits(p.rank);
        std::memset(out.data(), 0, out.size() * 8);
        ps.out_summary(p.rank).bits().reset();
        words += out.size();
      }
      if (!ps.shared_frontier() || p.is_node_leader()) {
        auto f = ps.frontier(p.rank);
        std::memcpy(f.data(), rck->frontier.data(), f.size() * 8);
        auto fs = ps.frontier_summary(p.rank);
        fs.bits().reset();
        for (std::uint64_t w = 0; w < f.size(); ++w) {
          std::uint64_t bits = f[w];
          while (bits) {
            fs.mark(w * 64 +
                    static_cast<std::uint64_t>(std::countr_zero(bits)));
            bits &= bits - 1;
          }
        }
        if (ps.with_values()) {
          auto v = ps.values(p.rank);
          std::memcpy(v.data(), rck->values.data(), v.size() * sizeof(Value));
          words += v.size();
        }
        words += 2 * f.size();
      }
      p.charge(sim::Phase::other, u.stream_pass_ns(words));
      p.barrier(world, sim::Phase::other);
    }

    bfs::LevelHooks hooks;
    hooks.stats.assign(kStatOps.begin(), kStatOps.end());
    hooks.save = [&](int q) {
      if (!ps.with_values()) return;
      auto vo = ps.val_out(q);
      ckpt[static_cast<std::size_t>(q)].assign(vo.begin(), vo.end());
      p.charge(sim::Phase::other,
               costs[static_cast<std::size_t>(q)].stream_pass_ns(vo.size()));
    };
    hooks.restore = [&](int q) {
      std::uint64_t words = 0;
      if (ps.with_values()) {
        auto vo = ps.val_out(q);
        const auto& saved = ckpt[static_cast<std::size_t>(q)];
        std::memcpy(vo.data(), saved.data(), saved.size() * sizeof(Value));
        words += vo.size();
      }
      auto out = ps.out_bits(q);
      std::memset(out.data(), 0, out.size() * 8);
      ps.out_summary(q).bits().reset();
      words += out.size();
      p.charge(sim::Phase::other,
               costs[static_cast<std::size_t>(q)].stream_pass_ns(words));
    };
    // Cross-replica epoch export (the failover unit): owners persist
    // val_out, the recorder one frontier replica and the control position.
    if (xp != nullptr) {
      hooks.export_part = [&](int q) {
        if (!ps.with_values()) return;
        const auto qi = static_cast<std::size_t>(q);
        auto vo = ps.val_out(q);
        xp->val_out[qi].assign(vo.begin(), vo.end());
        p.charge(sim::Phase::other, costs[qi].stream_pass_ns(vo.size()));
      };
      hooks.export_shared = [&](int level) {
        auto f = ps.frontier(p.rank);
        xp->frontier.assign(f.begin(), f.end());
        if (ps.with_values()) {
          auto v = ps.values(p.rank);
          xp->values.assign(v.begin(), v.end());
        }
        xp->scalars.assign(scalars.begin(), scalars.end());
        xp->level = level;
        xp->dir = ch.dir;
        xp->use_summary = ch.use_summary;
        xp->epoch = opts.epoch;
        xp->valid = true;
        p.charge(sim::Phase::other, u.stream_pass_ns(f.size()));
        return obs::kv("level", level);
      };
    }
    hooks.kernel = [&](const bfs::Level& lv) {
      ProgStats st;
      st.min_word = kProgInf;
      for (int q : lv.parts) {
        PartCtx ctx = make_ctx(q);
        const ProgStats qs = prog.advance(query, ctx, scalars, lv.number,
                                          ch.dir, ch.use_summary);
        charge_advance(p, costs[static_cast<std::size_t>(q)],
                       dg.locals[static_cast<std::size_t>(q)], ps, qs, ch.dir,
                       ch.use_summary);
        st.add(qs);
        // The owned post-scan (min/needy/mu measurement), charged like the
        // wave's direction-input pass.
        p.charge(sim::Phase::switch_conv,
                 costs[static_cast<std::size_t>(q)].stream_pass_ns(
                     2 * dg.locals[static_cast<std::size_t>(q)].owned()));
      }
      put_stats(st, lv.stats);
    };
    hooks.finish = [&](const bfs::Level& lv) {
      const ProgStats rs = reduced_stats(lv.stats);
      // Every rank evolves its scalar copy from the identical reduced view.
      const bool conv = prog.post_level(scalars, rs, lv.number);
      if (lv.recorder) {
        directions.push_back(ch.dir);
        res.last = rs;
      }
      p.trace_span(obs::kCatEngine,
                   std::string(prog.name()) + " level " +
                       std::to_string(lv.number),
                   lv.t0, p.clock.now_ns(),
                   obs::kv("dir", ch.dir == 1 ? "pull" : "push") + "," +
                       obs::kv("changed", rs.changed));
      if (conv) {
        if (lv.recorder) res.converged = true;
        return false;
      }

      prog_exchange(p, ps, u, lv.parts);
      if (prog.direction_optimizing()) ch = choose(rs);
      return true;
    };

    loop.run(p, first_level, hooks);
  });

  const bfs::LoopTotals tot = loop.totals(directions);
  tot.copy_to(res);
  res.total_ns = tot.time_ns;
  res.aborted = loop.aborted();
  res.abort_ns = loop.abort_ns();
  res.value = prog.final_value(query, dg, ps, res.last);
  return res;
}

std::vector<Value> gather_values(const graph::DistGraph& dg,
                                 ProgramState& ps) {
  if (!ps.with_values()) return {};
  std::vector<Value> v(dg.n, 0);
  for (int r = 0; r < dg.part.np(); ++r) {
    const auto& lg = dg.locals[static_cast<std::size_t>(r)];
    auto vo = ps.val_out(r);
    for (std::uint64_t lv = 0; lv < lg.owned(); ++lv)
      v[lg.vbegin + lv] = vo[lv];
  }
  return v;
}

}  // namespace numabfs::engine
