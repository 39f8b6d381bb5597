/// Self-tuning configuration bench (DESIGN.md §15). Two pinned objectives:
///
///  1. Weak-scaling TEPS: coordinate-descent search over the full knob grid
///     (sharing ladder x granularity x codec x pipeline depth x allgather
///     algorithm x alpha/beta) against the Graph500 harmonic-TEPS
///     objective, seeded with the paper's hand-picked Fig. 9 ladder — so
///     the tuned point is >= the best hand configuration by construction.
///
///  2. Query-engine qps: the same search over (batch, granularity, codec,
///     pipeline depth) for the serving loop.
///
/// The tuned points are emitted as a versioned TunedProfile
/// (--emit-profile=PATH, schema numabfs.tuned_profile.v1) and can be
/// loaded back (--profile=PATH) to skip the search: lookup is exact shape
/// first, nearest-shape otherwise. A final row runs the tuned config with
/// the online direction controller on (tune.adapt_direction) and records
/// its decisions under numabfs.metrics.v1 keys.
///
/// The binary exits 1 if the tuned configuration loses to the best
/// hand-picked one on either objective — that inequality is the contract
/// the perf gate pins (autotune.weak.gain / autotune.engine.gain >= 1).

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "tune/profile.hpp"
#include "tune/search.hpp"

namespace {

using namespace numabfs;

/// Weak-scaling knob grid. Index order matches the Dim list below.
struct WeakGrid {
  std::vector<bench::NamedConfig> ladder;  ///< sharing/allgather rungs
  std::vector<std::uint64_t> grans = {64, 128, 256, 512};
  std::vector<bfs::CodecMode> codecs = {bfs::CodecMode::off,
                                        bfs::CodecMode::gate};
  std::vector<int> chunks = {1, 2, 4, 8};
  std::vector<rt::AllgatherAlgo> algos = {rt::AllgatherAlgo::flat_ring,
                                          rt::AllgatherAlgo::leader_ring,
                                          rt::AllgatherAlgo::leader_rd};
  std::vector<double> alphas = {7.0, 14.0, 28.0};
  std::vector<double> betas = {12.0, 24.0, 48.0};

  WeakGrid() {
    ladder = {{"Original", bfs::original()},
              {"+ Share in_queue", bfs::share_in_queue()},
              {"+ Share all", bfs::share_all()},
              {"+ Par allgather", bfs::par_allgather()}};
  }

  std::vector<tune::Dim> dims() const {
    return {{"ladder", static_cast<int>(ladder.size())},
            {"granularity", static_cast<int>(grans.size())},
            {"codec", static_cast<int>(codecs.size())},
            {"chunks", static_cast<int>(chunks.size())},
            {"allgather", static_cast<int>(algos.size())},
            {"alpha", static_cast<int>(alphas.size())},
            {"beta", static_cast<int>(betas.size())}};
  }

  bfs::Config decode(const std::vector<int>& ix) const {
    bfs::Config c = ladder[static_cast<size_t>(ix[0])].cfg;
    c.summary_granularity = grans[static_cast<size_t>(ix[1])];
    c.codec = codecs[static_cast<size_t>(ix[2])];
    c.exchange_chunks = chunks[static_cast<size_t>(ix[3])];
    c.base_algo = algos[static_cast<size_t>(ix[4])];
    c.alpha = alphas[static_cast<size_t>(ix[5])];
    c.beta = betas[static_cast<size_t>(ix[6])];
    return c;
  }
};

/// Engine knob grid: batch size plus the BFS knobs the MS-BFS wave
/// consults, on top of the "+ Par allgather" rung.
struct EngineGrid {
  std::vector<int> batches = {4, 8, 16, 32, 64};
  std::vector<std::uint64_t> grans = {64, 256};
  std::vector<bfs::CodecMode> codecs = {bfs::CodecMode::off,
                                        bfs::CodecMode::gate};
  std::vector<int> chunks = {1, 2, 4};

  std::vector<tune::Dim> dims() const {
    return {{"batch", static_cast<int>(batches.size())},
            {"granularity", static_cast<int>(grans.size())},
            {"codec", static_cast<int>(codecs.size())},
            {"chunks", static_cast<int>(chunks.size())}};
  }

  bfs::Config decode(const std::vector<int>& ix) const {
    bfs::Config c = bfs::par_allgather();
    c.summary_granularity = grans[static_cast<size_t>(ix[1])];
    c.codec = codecs[static_cast<size_t>(ix[2])];
    c.exchange_chunks = chunks[static_cast<size_t>(ix[3])];
    return c;
  }
  int batch(const std::vector<int>& ix) const {
    return batches[static_cast<size_t>(ix[0])];
  }
};

/// Turn the tuned static config into its online-adaptive variant: enable
/// the direction controller when the config's direction policy allows it.
bfs::Config with_online(bfs::Config c) {
  c.tune.adapt_direction = c.direction == bfs::Direction::hybrid;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace numabfs;
  harness::Options opt(argc, argv);
  const int scale = opt.get_int_min("scale", 13, 1);
  const int nodes = opt.get_int_min("nodes", 2, 1);
  const int ppn = opt.get_int_min("ppn", 2, 1);
  const int roots = opt.get_int_min("roots", 2, 1);
  const int escale = opt.get_int_min("engine-scale", 12, 1);
  const int queries = opt.get_int_min("queries", 8, 1);
  const std::uint64_t seed = opt.get_u64("seed", 20120924);
  const std::string emit_path = opt.get_str("emit-profile", "");
  const std::string load_path = opt.get_str("profile", "");

  tune::SearchOptions so;
  so.max_rounds = opt.get_int_min("rounds", 3, 1);
  so.prune_after = opt.get_int_min("prune-after", 2, 1);

  bench::print_header(
      "autotune", "Offline profile search vs the hand-picked ladder",
      "weak: scale " + std::to_string(scale) + ", " + std::to_string(nodes) +
          " nodes x ppn " + std::to_string(ppn) + ", " +
          std::to_string(roots) + " roots; engine: scale " +
          std::to_string(escale) + ", " + std::to_string(queries) +
          " queries");

  obs::Registry reg;
  tune::TunedProfile loaded;
  if (!load_path.empty()) {
    loaded = tune::TunedProfile::load(load_path);
    std::cout << "loaded profile " << load_path << " ("
              << loaded.entries.size() << " entries)\n\n";
  }

  // --- Part 1: weak-scaling TEPS objective ------------------------------
  const harness::GraphBundle bundle = harness::GraphBundle::make(
      scale, 16, seed, std::max(roots, 8));
  harness::ExperimentOptions eo;
  eo.nodes = nodes;
  eo.ppn = ppn;
  harness::Experiment e(bundle, eo);
  const WeakGrid wg;

  const auto weak_score = [&](const bfs::Config& c) {
    return e.run(c, roots).harmonic_teps;
  };

  // Hand-picked candidates: the paper's Fig. 9 ladder plus the codec rung.
  std::vector<bench::NamedConfig> hand = bench::fig9_ladder();
  hand.push_back({"+ Codec", bfs::compressed()});
  // The same points in grid-index space, fed to the search as seeds — which
  // guarantees tuned >= best-hand by construction.
  const std::vector<std::vector<int>> hand_ix = {
      {0, 0, 0, 0, 0, 1, 1},  // Original
      {1, 0, 0, 0, 0, 1, 1},  // + Share in_queue
      {2, 0, 0, 0, 0, 1, 1},  // + Share all
      {3, 0, 0, 0, 0, 1, 1},  // + Par allgather
      {3, 2, 0, 0, 0, 1, 1},  // + Granularity (256)
      {3, 2, 1, 2, 0, 1, 1},  // + Codec (gate, K=4)
  };

  harness::Table t1({"weak-scaling variant", "config", "TEPS"});
  double hand_best = 0.0;
  std::string hand_best_name;
  for (const auto& nc : hand) {
    const harness::EvalResult hr = e.run(nc.cfg, roots);
    if (hr.harmonic_teps > hand_best) {
      hand_best = hr.harmonic_teps;
      hand_best_name = nc.name;
    }
    t1.row({nc.name, nc.cfg.name(), harness::Table::gteps(hr.harmonic_teps)});
    bench::record_eval(reg, "autotune.weak.hand." + bench::slug(nc.name), hr);
  }

  bfs::Config tuned_cfg;
  double tuned_teps = 0.0;
  const tune::ShapeKey weak_shape{scale, 16, nodes, ppn};
  if (const tune::ProfileEntry* pe = loaded.nearest(weak_shape);
      pe != nullptr && pe->objective == "harmonic_teps") {
    tuned_cfg = tune::to_bfs_config(*pe);
    tuned_teps = weak_score(tuned_cfg);
    std::cout << "profile entry (scale " << pe->shape.scale << ", "
              << pe->shape.nodes << "x" << pe->shape.ppn
              << ") applied; search skipped\n";
  } else {
    const tune::Objective obj =
        [&](const std::vector<int>& ix) -> std::optional<double> {
      const bfs::Config c = wg.decode(ix);
      if (!c.validate().empty()) return std::nullopt;
      return weak_score(c);
    };
    const tune::SearchResult sr = tune::coordinate_descent(
        wg.dims(), obj, hand_ix[4], hand_ix, so);
    tuned_cfg = wg.decode(sr.best);
    tuned_teps = sr.best_score;
    std::cout << "search: " << sr.evaluations << " evaluations ("
              << sr.cache_hits << " memo hits, " << sr.invalid
              << " invalid points), " << sr.rounds << " rounds\n";
    reg.counter("autotune.weak.search.evaluations").add(
        static_cast<std::uint64_t>(sr.evaluations));
    reg.counter("autotune.weak.search.invalid").add(
        static_cast<std::uint64_t>(sr.invalid));
  }
  t1.row({"tuned (offline search)", tuned_cfg.name(),
          harness::Table::gteps(tuned_teps)});

  // Online direction control on top of the tuned static point.
  const bfs::Config online_cfg = with_online(tuned_cfg);
  const harness::EvalResult online = e.run(online_cfg, roots);
  t1.row({"tuned + online control", online_cfg.name(),
          harness::Table::gteps(online.harmonic_teps)});
  t1.print(std::cout);
  for (const bfs::BfsRunResult& r : online.per_root)
    bench::record_decisions(reg, "autotune.online.decisions", r);
  reg.gauge("autotune.weak.online.harmonic_teps").set(online.harmonic_teps);

  const double weak_gain = hand_best > 0 ? tuned_teps / hand_best : 0.0;
  reg.gauge("autotune.weak.hand_best.harmonic_teps").set(hand_best);
  reg.gauge("autotune.weak.tuned.harmonic_teps").set(tuned_teps);
  reg.gauge("autotune.weak.gain").set(weak_gain);
  std::cout << "\nhand best: " << hand_best_name << "; tuned/hand = "
            << harness::Table::fmt(weak_gain) << "x\n\n";

  // --- Part 2: query-engine qps objective -------------------------------
  const harness::GraphBundle eb = harness::GraphBundle::make(escale, 16, seed);
  harness::ExperimentOptions eeo;
  eeo.nodes = nodes;
  eeo.ppn = ppn;
  harness::Experiment ee(eb, eeo);
  const EngineGrid eg;

  engine::WorkloadSpec ws;
  ws.num_queries = queries;
  ws.seed = seed + 1;
  ws.mean_interarrival_ns = 5e5;
  ws.st_fraction = 0.25;
  ws.khop_fraction = 0.25;
  const auto qs = engine::QueryEngine::generate(ee.dist(), ws);

  const auto engine_score = [&](const bfs::Config& c, int batch) {
    engine::EngineConfig ec;
    ec.max_batch = std::min(batch, engine::kMaxLanes);
    ec.queue_depth = 2 * queries;
    ec.track_parents = false;
    engine::QueryEngine qe(ee.cluster(), ee.dist(), c, ec);
    return qe.serve(qs).qps;
  };

  // Hand-picked serving point: the paper's best BFS rung at batch 16.
  const std::vector<int> hand_engine_ix = {2, 0, 0, 0};
  const double hand_qps =
      engine_score(eg.decode(hand_engine_ix), eg.batch(hand_engine_ix));

  bfs::Config etuned_cfg;
  int etuned_batch = 0;
  double tuned_qps = 0.0;
  const tune::ShapeKey engine_shape{escale, 16, nodes, ppn};
  const tune::ProfileEntry* epe = loaded.nearest(engine_shape);
  if (epe != nullptr && epe->objective == "qps" && epe->batch > 0) {
    etuned_cfg = tune::to_bfs_config(*epe);
    engine::EngineConfig ec;
    tune::apply(*epe, ec);
    etuned_batch = ec.max_batch;
    tuned_qps = engine_score(etuned_cfg, etuned_batch);
    std::cout << "engine profile entry applied; search skipped\n";
  } else {
    const tune::Objective eobj =
        [&](const std::vector<int>& ix) -> std::optional<double> {
      const bfs::Config c = eg.decode(ix);
      if (!c.validate().empty()) return std::nullopt;
      return engine_score(c, eg.batch(ix));
    };
    const tune::SearchResult esr = tune::coordinate_descent(
        eg.dims(), eobj, hand_engine_ix, {hand_engine_ix}, so);
    etuned_cfg = eg.decode(esr.best);
    etuned_batch = eg.batch(esr.best);
    tuned_qps = esr.best_score;
    std::cout << "engine search: " << esr.evaluations << " evaluations ("
              << esr.cache_hits << " memo hits, " << esr.invalid
              << " invalid points), " << esr.rounds << " rounds\n";
  }

  const double engine_gain = hand_qps > 0 ? tuned_qps / hand_qps : 0.0;
  harness::Table t2({"serving variant", "config", "batch", "qps"});
  t2.row({"hand (par_allgather)", eg.decode(hand_engine_ix).name(),
          std::to_string(eg.batch(hand_engine_ix)),
          harness::Table::fmt(hand_qps)});
  t2.row({"tuned (offline search)", etuned_cfg.name(),
          std::to_string(etuned_batch), harness::Table::fmt(tuned_qps)});
  t2.print(std::cout);
  reg.gauge("autotune.engine.hand.qps").set(hand_qps);
  reg.gauge("autotune.engine.tuned.qps").set(tuned_qps);
  reg.gauge("autotune.engine.gain").set(engine_gain);
  std::cout << "\ntuned/hand qps = " << harness::Table::fmt(engine_gain)
            << "x\n";

  // --- Profile emission -------------------------------------------------
  if (!emit_path.empty()) {
    tune::TunedProfile prof;
    tune::ProfileEntry w;
    w.shape = weak_shape;
    w.objective = "harmonic_teps";
    w.score = tuned_teps;
    w.config = tuned_cfg;
    prof.entries.push_back(w);
    tune::ProfileEntry q;
    q.shape = engine_shape;
    q.objective = "qps";
    q.score = tuned_qps;
    q.config = etuned_cfg;
    q.batch = etuned_batch;
    prof.entries.push_back(q);
    prof.write(emit_path);
    std::cout << "\nwrote " << emit_path << " (" << prof.entries.size()
              << " entries, schema " << tune::kProfileSchema << ")\n";
  }
  bench::write_metrics(opt, reg);

  // The contract the perf gate pins: tuned never loses to hand-picked.
  const double eps = 1.0 - 1e-9;
  if (tuned_teps < hand_best * eps || tuned_qps < hand_qps * eps) {
    std::cout << "\nFAIL: tuned configuration lost to the hand-picked one\n";
    return 1;
  }
  std::cout << "\nok: tuned >= best hand-picked on both objectives\n";
  return 0;
}
