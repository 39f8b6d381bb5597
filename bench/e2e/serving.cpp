/// \file serving.cpp
/// The two open-loop serving workloads. Arrivals are virtual Poisson draws
/// from QueryEngine::generate, so the generator can never run late; every
/// latency is timed from the query's scheduled arrival.
///
///  serve_mixed   FrontDoor over 2 replicas (2 nodes x ppn 4 each) with a
///                fault plan on replica 1: a stream of wave queries
///                (full-distance, k-hop, s-t), then a stream of analytics
///                programs. Batching, admission, degradation, fprog and the
///                fault protocol do the work. Also searches the highest
///                wave-stream rate that meets the SLO.
///  serve_ingest  QueryEngine over dyn::SnapshotManager: full-distance
///                waves on pinned epochs while edge ingest seals epochs
///                and compaction fires. Delta stores, pins, compaction and
///                merged-view reads do the work.
///
/// Each run serves kInstances independent instances of its workload (own
/// graph, replicas and streams, seeded from --seed) one after another and
/// pools their answers: 4000+ latency samples, 40 beyond p99. With one
/// graph and 1000 queries, p99 rests on ten rare deep-traversal waves and
/// moved by 20-25% from seed to seed; pooled, by about 10%.
///
/// The per-wave sink is the only hook inside a serve, so the host-clock
/// wave spans are the intervals between sink calls
/// ("engine.between_sinks").

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bfs/config.hpp"
#include "e2e.hpp"
#include "engine/engine.hpp"
#include "engine/frontdoor.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/dynamic/compactor.hpp"
#include "graph/dynamic/ingest.hpp"
#include "graph/dynamic/snapshot.hpp"
#include "graph/reference_algos.hpp"
#include "graph/reference_bfs.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "harness/graph500.hpp"

namespace e2e {
namespace {

using namespace numabfs;

constexpr int kInstances = 4;

/// Instance k's seed. Instance 0 uses --seed itself; the others are hashed
/// far apart (the generator draws edge i from seed + i, so nearby seeds
/// would give nearly the same graph).
std::uint64_t instance_seed(std::uint64_t seed, int k) {
  return k == 0 ? seed : graph::splitmix64(seed + static_cast<std::uint64_t>(k));
}

/// What the sinks see of the waves of one pass, plus the host intervals
/// between sink calls as spans.
class WaveLedger {
 public:
  void start(Ctx& ctx, int pass) {
    *this = WaveLedger{};
    ctx_ = &ctx;
    pass_ = pass;
  }
  /// Call when a serve begins: the first interval starts here.
  void resume() { mark_s_ = ctx_->spans().now_s(); }

  /// Call at sink entry: closes the interval since the previous sink.
  void enter(const engine::WaveResult& wr) {
    ctx_->spans().add("engine.between_sinks", wave_rid(), mark_s_,
                      ctx_->spans().now_s());
    ++waves;
    wave_ns += wr.wave_ns;
    levels += wr.levels;
    prof += wr.profile_avg;
    sig.push_back(wr.wave_ns);
    sig.push_back(static_cast<double>(wr.epoch));
    for (double x : profile_signature(wr.profile_avg)) sig.push_back(x);
  }
  /// Call at sink exit: the next interval starts after any hook work.
  void leave() { mark_s_ = ctx_->spans().now_s(); }

  /// Request id of the wave about to run (or, inside enter(), just run).
  std::string wave_rid() const {
    return ctx_->rid(pass_, "w" + std::to_string(waves));
  }

  std::uint64_t waves = 0;
  double wave_ns = 0;  ///< summed wave durations (virtual)
  double levels = 0;
  sim::PhaseProfile prof;   ///< summed per-wave profiles
  std::vector<double> sig;  ///< bit-identity record of every wave

 private:
  Ctx* ctx_ = nullptr;
  int pass_ = 0;
  double mark_s_ = 0;
};

/// Compare a repeat pass to pass 0: one attempt per query plus one for the
/// wave sequence.
void check_serve_repeat(Ctx& ctx, int index,
                        const std::vector<std::vector<double>>& first,
                        const std::vector<std::vector<double>>& got,
                        const std::vector<double>& first_waves,
                        const std::vector<double>& got_waves) {
  check_repeat(ctx, index, first, got, "q");
  ctx.check(got_waves == first_waves, [&] {
    return ctx.rid(index, "waves") + ": wave sequence differs from pass 0";
  });
}

/// Reference answers on one CSR: component labels/sizes/edges for
/// full-distance counts and s-t verdicts, per-source depth histograms for
/// k-hop counts.
class BfsOracle {
 public:
  explicit BfsOracle(const graph::Csr& g) : g_(g) {
    label_ = graph::ref_components(g);
    size_.assign(g.num_vertices(), 0);
    edges_.assign(g.num_vertices(), 0);
    for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
      ++size_[label_[v]];
      edges_[label_[v]] += g.degree(v);
    }
  }

  std::uint64_t component_size(graph::Vertex v) const {
    return size_[label_[v]];
  }
  /// Undirected edges of v's component (the Graph500 TEPS numerator).
  std::uint64_t component_edges(graph::Vertex v) const {
    return edges_[label_[v]] / 2;
  }
  bool connected(graph::Vertex s, graph::Vertex t) const {
    return label_[s] == label_[t];
  }
  /// Vertices within k hops of s (s included).
  std::uint64_t within(graph::Vertex s, int k) {
    auto it = hist_.find(s);
    if (it == hist_.end()) {
      const graph::BfsTree t = graph::reference_bfs(g_, s);
      std::vector<std::uint64_t> h;
      for (graph::Vertex v = 0; v < g_.num_vertices(); ++v) {
        if (!t.reached(v)) continue;
        if (t.depth[v] >= h.size()) h.resize(t.depth[v] + 1, 0);
        ++h[t.depth[v]];
      }
      it = hist_.emplace(s, std::move(h)).first;
    }
    std::uint64_t n = 0;
    for (std::size_t d = 0; d < it->second.size() && d <= std::size_t(k); ++d)
      n += it->second[d];
    return n;
  }

 private:
  const graph::Csr& g_;
  std::vector<std::uint64_t> label_, size_, edges_;
  std::map<graph::Vertex, std::vector<std::uint64_t>> hist_;
};

/// The p-th percentile of `ns` in ms, with its sample count.
void report_latency(Ctx& ctx, const std::string& name, std::vector<double> ns,
                    double p) {
  ctx.e2e[name] = {harness::percentile(ns, p) * kMsPerNs, "ms", "virtual"};
  ctx.samples[name] = ns.size();
}

/// p99_ms of a serving run: the median over the instances of each
/// instance's p99 (>= 1000 samples each, so >= 10 beyond it). A handful of
/// slow ~30-lane waves make one instance's tail, so a pooled p99 follows
/// whichever instance drew the worst waves; the median does not.
void report_p99(Ctx& ctx, const std::vector<std::vector<double>>& per_instance) {
  std::vector<double> p99;
  std::uint64_t n = 0;
  for (const auto& ns : per_instance) {
    p99.push_back(harness::percentile(ns, 99) * kMsPerNs);
    n = n == 0 ? ns.size() : std::min<std::uint64_t>(n, ns.size());
  }
  ctx.e2e["p99_ms"] = {median(p99), "ms", "virtual"};
  ctx.samples["p99_ms"] = n;  // per instance
}

/// engine.*: the batching layer, identical in meaning on both serving
/// workloads.
void report_engine_layer(Ctx& ctx, const std::vector<Span>& spans,
                         const WaveLedger& l, std::uint64_t dispatched,
                         std::vector<double> wait, double busy_frac,
                         int backpressured) {
  const double waves = static_cast<double>(l.waves);
  ctx.layer["engine.waves"] = {waves, "count", "virtual"};
  ctx.layer["engine.lanes_per_wave"] = {
      waves > 0 ? static_cast<double>(dispatched) / waves : 0.0, "count",
      "virtual"};
  ctx.layer["engine.levels_per_wave"] = {waves > 0 ? l.levels / waves : 0.0,
                                         "count", "virtual"};
  ctx.layer["engine.queue_wait_p50_ms"] = {
      harness::percentile(std::move(wait), 50) * kMsPerNs, "ms", "virtual"};
  ctx.layer["engine.busy_frac"] = {busy_frac, "ratio", "virtual"};
  ctx.layer["engine.backpressured"] = {static_cast<double>(backpressured),
                                       "count", "virtual"};
  const SpanStat st = span_stat(spans, "engine.between_sinks");
  ctx.layer["host.ms_per_call"] = {st.mean_s() * 1e3, "ms", "host"};
}

// --------------------------------------------------------- serve_mixed --

class ServeMixed final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    // Scale 14, not 16: at 16 one triangle count costs ~0.6 s of host
    // time and one PageRank ~0.35 s, which would not fit the run budget.
    const int scale = ctx.smoke() ? 12 : 14;
    n_wave_ = ctx.smoke() ? 12 : 1045;  // per instance
    n_search_ = ctx.smoke() ? 61 : 1045;
    n_programs_ = ctx.smoke() ? 4 : 5;  // per instance
    inst_.clear();
    for (int k = 0; k < kInstances; ++k)
      inst_.push_back(std::make_unique<Instance>());
    ctx.stage("graph.gen", [&] {
      for (int k = 0; k < kInstances; ++k)
        inst_[k]->bundle = harness::GraphBundle::make(
            scale, 16, instance_seed(ctx.seed(), k), 4);
    });
    ctx.stage("graph.partition", [&] {
      harness::ExperimentOptions eo;
      eo.nodes = 2;
      eo.ppn = 4;
      for (auto& in : inst_)
        for (auto& r : in->reps)
          r = std::make_unique<harness::Experiment>(in->bundle, eo);
    });
    ctx.stage("frontdoor.state", [&] {
      for (int k = 0; k < kInstances; ++k) {
        Instance& in = *inst_[k];
        const std::uint64_t seed = instance_seed(ctx.seed(), k);
        // Replica 1 drops 1% of messages and loses rank 5 at level 3 of
        // every wave: retransmits, rollback and adoption all run.
        rt::Cluster& c1 = in.reps[1]->cluster();
        c1.set_fault_injector(std::make_shared<faults::FaultInjector>(
            faults::FaultPlan::parse("seed:" + std::to_string(seed) +
                                     ",drop:prob=0.01,crash:rank=5@level=3"),
            c1.nranks(), c1.ppn()));
        engine::FrontDoorConfig fdc;
        fdc.max_batch = 64;
        fdc.sink = [this](int, std::span<const engine::WaveQuery>,
                          const engine::WaveResult& wr, engine::WaveState&) {
          ledger_.enter(wr);
          ledger_.leave();
        };
        in.door = std::make_unique<engine::FrontDoor>(
            bfs::share_all(), fdc,
            std::vector<engine::ReplicaHandle>{
                {&in.reps[0]->cluster(), &in.reps[0]->dist()},
                {&in.reps[1]->cluster(), &in.reps[1]->dist()}});
        in.waves = wave_queries(in, kWaveKqps, n_wave_, seed);
        in.programs = program_queries(in, k, seed);
      }
    });
  }

  void pass(Ctx& ctx, int index) override {
    ledger_.start(ctx, index);
    std::vector<std::vector<double>> sigs;
    for (int k = 0; k < kInstances; ++k) {
      Instance& in = *inst_[k];
      const std::string i = "i" + std::to_string(k) + "/";
      engine::FrontDoorReport waves, programs;
      ctx.call("frontdoor.serve", ctx.rid(index, i + "waves"), [&] {
        ledger_.resume();
        waves = in.door->serve(in.waves);
      });
      ctx.call("frontdoor.serve", ctx.rid(index, i + "programs"),
               [&] { programs = in.door->serve(in.programs); });
      for (const auto* rep : {&waves, &programs})
        for (const engine::ServedQuery& q : rep->results)
          sigs.push_back({static_cast<double>(q.outcome), q.start_ns,
                          // NaN marks a shed query's completion; NaN != NaN.
                          std::isnan(q.complete_ns) ? -1.0 : q.complete_ns,
                          static_cast<double>(q.replica),
                          static_cast<double>(q.visited),
                          static_cast<double>(q.reached), q.value,
                          static_cast<double>(q.complete_level)});
      if (index == 0) {
        ctx.hook(ctx.rid(0, i + "serve"), [&] {
          Oracle oracle(in.bundle.csr);
          validate(ctx, oracle, in, in.waves, waves, i);
          validate(ctx, oracle, in, in.programs, programs, i);
        });
        in.first_waves = std::move(waves);
        in.first_programs = std::move(programs);
      }
    }
    if (index > 0) {
      check_serve_repeat(ctx, index, first_sigs_, sigs, first_ledger_.sig,
                   ledger_.sig);
      return;
    }
    first_sigs_ = std::move(sigs);
    first_ledger_ = ledger_;
  }

  /// Highest arrival rate of instance 0's wave stream (at full length,
  /// 1045 queries) that meets the SLO rule: doubling from 25 kqps until a
  /// rate fails (cap 3.2 Mqps), then 3 bisection steps.
  void after_first_pass(Ctx& ctx) override {
    Instance& in = *inst_[0];
    const auto passes = [&](double kqps) {
      ledger_.start(ctx, -1);
      ledger_.resume();
      const bool ok = meets_slo(
          in.door->serve(wave_queries(in, kqps, n_search_, ctx.seed())));
      searched_.push_back({kqps, ok});
      return ok;
    };
    double lo = 0, hi = 0;
    for (double r = 25; r <= 3200; r *= 2) {
      if (!passes(r)) {
        hi = r;
        break;
      }
      lo = r;
    }
    if (hi > 0 && lo > 0)
      for (int i = 0; i < 3; ++i) {
        const double mid = 0.5 * (lo + hi);
        (passes(mid) ? lo : hi) = mid;
      }
    max_kqps_ = lo;
  }

  rt::Cluster& probe_cluster() override { return inst_[0]->reps[0]->cluster(); }

  void report(Ctx& ctx, const std::vector<Span>& spans) override {
    using engine::SloClass;
    std::vector<double> lat, wait;
    std::vector<std::vector<double>> inst_lat;
    std::map<SloClass, std::vector<double>> cls_lat;
    std::map<SloClass, std::pair<int, int>> cls_met;  // (met, submitted)
    double full_edges = 0, total_ns = 0;
    int degraded = 0, shed = 0, backpressured = 0, degradable = 0;
    std::vector<double> prog_lat;
    std::map<engine::QueryKind, std::vector<double>> service;
    sim::Counters faults;
    int recoveries = 0, failovers = 0, program_runs = 0;
    for (const auto& in : inst_) {
      const engine::FrontDoorReport& w = in->first_waves;
      inst_lat.emplace_back();
      for (std::size_t i = 0; i < w.results.size(); ++i) {
        const engine::ServedQuery& q = w.results[i];
        auto& met = cls_met[q.cls];
        ++met.second;
        met.first += q.slo_met;
        degradable += q.cls != SloClass::full_distance;  // k-hop, s-t
        if (!answered(q)) continue;
        lat.push_back(q.latency_ns());
        inst_lat.back().push_back(q.latency_ns());
        cls_lat[q.cls].push_back(q.latency_ns());
        if (q.outcome != engine::Outcome::degraded)
          wait.push_back(q.start_ns - q.arrival_ns);
        full_edges += static_cast<double>(in->full_edges[i]);
      }
      total_ns += w.total_ns;
      degraded += w.degraded;
      shed += w.shed;
      backpressured += w.backpressured;
      const engine::FrontDoorReport& p = in->first_programs;
      for (const engine::ServedQuery& q : p.results) {
        if (!answered(q)) continue;
        prog_lat.push_back(q.latency_ns());
        service[q.kind].push_back(q.complete_ns - q.start_ns);
      }
      program_runs += p.program_runs;
      for (const auto* rep : {&w, &p}) {
        faults += rep->counters;
        recoveries += rep->recoveries;
        failovers += rep->failovers;
      }
    }
    report_latency(ctx, "p50_ms", lat, 50);
    report_p99(ctx, inst_lat);
    report_latency(ctx, "analytics_p50_ms", prog_lat, 50);
    const WaveLedger& l = first_ledger_;
    ctx.e2e["gteps"] = {l.wave_ns > 0 ? full_edges / (l.wave_ns * 1e-9) / 1e9
                                      : 0.0,
                        "GTEPS", "virtual"};
    ctx.e2e["max_kqps_at_slo"] = {max_kqps_, "kqps", "virtual"};
    std::string trail;
    for (const auto& [kqps, ok] : searched_)
      trail += (trail.empty() ? "" : " ") + fmt_num(kqps) +
               (ok ? ":pass" : ":fail");
    ctx.notes["rate_search_kqps"] = trail;

    const double waves = static_cast<double>(l.waves);
    report_split(ctx, l.prof, waves, l.levels / waves);
    report_engine_layer(ctx, spans, l, wait.size(), wait,
                        l.wave_ns / (2.0 * total_ns), backpressured);
    for (const SloClass c :
         {SloClass::full_distance, SloClass::k_hop, SloClass::reachability}) {
      const std::string p = std::string("frontdoor.") + engine::to_string(c);
      const auto [met, submitted] = cls_met[c];
      ctx.layer[p + "_p99_ms"] = {
          harness::percentile(cls_lat[c], 99) * kMsPerNs, "ms", "virtual"};
      ctx.layer[p + "_attainment"] = {
          submitted > 0 ? static_cast<double>(met) / submitted : 1.0, "ratio",
          "virtual"};
    }
    ctx.layer["frontdoor.degraded"] = {static_cast<double>(degraded), "count",
                                       "virtual"};
    ctx.layer["frontdoor.shed"] = {static_cast<double>(shed), "count",
                                   "virtual"};
    ctx.layer["frontdoor.cache_hit_ratio"] = {
        degradable > 0 ? static_cast<double>(degraded) / degradable : 0.0,
        "ratio", "virtual"};
    ctx.layer["programs.runs"] = {static_cast<double>(program_runs), "count",
                                  "virtual"};
    for (const auto& [kind, ns] : service)
      ctx.layer[std::string("programs.") + engine::to_string(kind) +
                "_service_ms"] = {harness::mean(ns) * kMsPerNs, "ms",
                                  "virtual"};
    ctx.layer["faults.retransmits"] = {static_cast<double>(faults.retransmits),
                                       "count", "virtual"};
    ctx.layer["faults.recv_timeouts"] = {
        static_cast<double>(faults.recv_timeouts), "count", "virtual"};
    ctx.layer["faults.adoptions"] = {static_cast<double>(faults.adoptions),
                                     "count", "virtual"};
    ctx.layer["faults.recoveries"] = {static_cast<double>(recoveries), "count",
                                      "virtual"};
    ctx.layer["faults.failovers"] = {static_cast<double>(failovers), "count",
                                     "virtual"};
  }

 private:
  struct Instance {
    harness::GraphBundle bundle;
    std::unique_ptr<harness::Experiment> reps[2];  // hold &bundle
    std::unique_ptr<engine::FrontDoor> door;
    std::vector<engine::Query> waves;     ///< the open-loop wave stream
    std::vector<engine::Query> programs;  ///< the analytics stream
    // Pass 0.
    engine::FrontDoorReport first_waves, first_programs;
    std::vector<std::uint64_t> full_edges;  ///< per wave query (0: not full)
  };

  /// Nominal load: 200 kqps of wave queries, about half the tier's
  /// capacity at 64 lanes per wave, and analytics at 5% of that.
  static constexpr double kWaveKqps = 200;
  static constexpr double kProgramKqps = 10;

  static bool answered(const engine::ServedQuery& q) {
    return q.outcome == engine::Outcome::served ||
           q.outcome == engine::Outcome::failed_over ||
           q.outcome == engine::Outcome::degraded;
  }

  /// A wave stream of `n` queries at `kqps`: 35:30:30 full-distance, k-hop
  /// (k 2-4) and s-t queries. The same seed draws the same kinds and
  /// endpoints at every rate; only the arrival instants scale.
  static std::vector<engine::Query> wave_queries(const Instance& in,
                                                 double kqps, int n,
                                                 std::uint64_t seed) {
    engine::WorkloadSpec w;
    w.num_queries = n;
    w.seed = seed;
    w.mean_interarrival_ns = 1e6 / kqps;
    w.khop_fraction = 30.0 / 95;
    w.st_fraction = 30.0 / 95;
    w.k_min = 2;
    w.k_max = 4;
    return engine::QueryEngine::generate(in.reps[0]->dist(), w);
  }

  /// Instance k's analytics stream. Kinds cycle SSSP, PageRank, SSSP,
  /// components, triangles over all instances (the 2:1:1:1 share of the
  /// mix), so every seed runs the same program work. It is served as its
  /// own stream: one program holds a replica longer than the whole wave
  /// stream lasts, so interleaving them made which replica served the
  /// waves, and with it p50 and p99, swing by half from seed to seed.
  std::vector<engine::Query> program_queries(const Instance& in, int k,
                                             std::uint64_t seed) const {
    engine::WorkloadSpec w;
    w.num_queries = n_programs_;
    w.seed = seed ^ 0x5eed;
    w.mean_interarrival_ns = 1e6 / kProgramKqps;
    w.sssp_fraction = 1.0;  // draws a source and a target for every query
    std::vector<engine::Query> qs =
        engine::QueryEngine::generate(in.reps[0]->dist(), w);
    const engine::QueryKind cycle[] = {
        engine::QueryKind::sssp, engine::QueryKind::pagerank,
        engine::QueryKind::sssp, engine::QueryKind::components,
        engine::QueryKind::triangles};
    for (std::size_t i = 0; i < qs.size(); ++i)
      qs[i].kind = cycle[(static_cast<std::size_t>(k * n_programs_) + i) % 5];
    return qs;
  }

  /// The SLO rule: every wave class meets its p99 deadline and 0.99
  /// attainment (shed and lost count as misses), and the backlog does not
  /// grow — the median queue wait of the last window of wave queries is
  /// at most twice that of the 5th window (queries 401-500 of >= 1000),
  /// or under 1 ms.
  bool meets_slo(const engine::FrontDoorReport& rep) const {
    for (int c = 0; c < static_cast<int>(engine::SloClass::kCount); ++c) {
      const auto cls = static_cast<engine::SloClass>(c);
      const auto& cs = rep.cls[c];
      if (cls == engine::SloClass::analytics || cs.submitted == 0) continue;
      if (cs.p99_ns > slo_.deadline_ns(cls) || cs.attainment < 0.99)
        return false;
    }
    std::vector<double> wait;
    for (const engine::ServedQuery& q : rep.results)
      wait.push_back(answered(q) ? q.start_ns - q.arrival_ns
                                 : std::numeric_limits<double>::infinity());
    const std::size_t w = wait.size();
    const std::size_t win = w >= 1000 ? 100 : std::max<std::size_t>(1, w / 10);
    if (w < 5 * win) return true;
    const auto at = [&](std::size_t i) {
      return wait.begin() + static_cast<std::ptrdiff_t>(i);
    };
    const double early = median({at(4 * win), at(5 * win)});
    const double last = median({at(w - win), wait.end()});
    return last <= 2 * early || last <= 1e6;
  }

  /// Reference answers on one instance's CSR.
  struct Oracle {
    explicit Oracle(const graph::Csr& csr) : g(csr), bfs(csr) {}
    const graph::Csr& g;
    BfsOracle bfs;
    std::map<graph::Vertex, std::vector<std::uint64_t>> sssp;
    std::vector<double> pagerank;
    std::optional<std::uint64_t> components, triangles;
  };

  /// Check every answer of one stream against reference_bfs and
  /// reference_algos on the same CSR, degraded answers included.
  void validate(Ctx& ctx, Oracle& o, Instance& in,
                const std::vector<engine::Query>& qs,
                const engine::FrontDoorReport& rep, const std::string& inst) {
    const engine::ProgramParams pp;
    const bool waves = &qs == &in.waves;
    if (waves) in.full_edges.assign(qs.size(), 0);
    for (std::size_t i = 0; i < rep.results.size(); ++i) {
      const engine::ServedQuery& q = rep.results[i];
      const engine::Query& want = qs[i];
      const std::string rid =
          ctx.rid(0, inst + (waves ? "q" : "a") + std::to_string(i));
      if (!answered(q)) {
        ctx.attempt();
        ctx.fail(rid + ": " + engine::to_string(q.outcome));
        continue;
      }
      switch (want.kind) {
        case engine::QueryKind::full_distances:
          in.full_edges[i] = o.bfs.component_edges(want.source);
          ctx.check(q.visited == o.bfs.component_size(want.source),
                    [&] { return rid + ": full-distance visited count"; });
          break;
        case engine::QueryKind::st_reachability:
          ctx.check(q.reached == o.bfs.connected(want.source, want.target),
                    [&] { return rid + ": s-t verdict"; });
          break;
        case engine::QueryKind::k_hop:
          ctx.check(q.visited == o.bfs.within(want.source, want.k),
                    [&] { return rid + ": k-hop count"; });
          break;
        case engine::QueryKind::sssp: {
          auto it = o.sssp.find(want.source);
          if (it == o.sssp.end())
            it = o.sssp
                     .emplace(want.source,
                              graph::ref_sssp(o.g,
                                              graph::EdgeWeights{
                                                  pp.weight_seed,
                                                  pp.sssp_max_weight},
                                              want.source))
                     .first;
          const std::uint64_t d = it->second[want.target];
          ctx.check(d == graph::kInfDist ? std::isinf(q.value)
                                         : q.value == static_cast<double>(d),
                    [&] { return rid + ": sssp distance"; });
          break;
        }
        case engine::QueryKind::pagerank: {
          if (o.pagerank.empty())
            o.pagerank = graph::ref_pagerank(o.g, pp.pr_damping, 1e-10);
          const double ref = o.pagerank[want.source];
          // Float32 accumulation slack, as bench_vertex_programs checks.
          ctx.check(std::abs(q.value - ref) <= 0.05 * ref + 1e-2,
                    [&] { return rid + ": pagerank value"; });
          break;
        }
        case engine::QueryKind::components:
          if (!o.components) {
            const auto lab = graph::ref_components(o.g);
            std::uint64_t n = 0;
            for (std::size_t v = 0; v < lab.size(); ++v) n += lab[v] == v;
            o.components = n;
          }
          ctx.check(q.value == static_cast<double>(*o.components),
                    [&] { return rid + ": component count"; });
          break;
        case engine::QueryKind::triangles:
          if (!o.triangles) o.triangles = graph::ref_triangles(o.g);
          ctx.check(q.value == static_cast<double>(*o.triangles),
                    [&] { return rid + ": triangle count"; });
          break;
      }
    }
  }

  std::vector<std::unique_ptr<Instance>> inst_;
  int n_wave_ = 0, n_search_ = 0, n_programs_ = 0;
  const engine::SloSpec slo_;
  WaveLedger ledger_;
  std::vector<std::vector<double>> first_sigs_;
  WaveLedger first_ledger_;
  double max_kqps_ = 0;
  std::vector<std::pair<double, bool>> searched_;  ///< (kqps, passed)
};

// -------------------------------------------------------- serve_ingest --

class ServeIngest final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    inst_.clear();
    cluster_.reset();
    for (int k = 0; k < kInstances; ++k) {
      auto in = std::make_unique<Instance>();
      // Scale 14 and 2000 ops per 500 us epoch, a quarter of the write
      // ratio of 16000 ops at scale 16: at scales 15-16 compaction took
      // 90% of host time and one pass alone exceeded the run budget.
      in->rp.scale = ctx.smoke() ? 12 : 14;
      in->rp.edgefactor = 16;
      in->rp.seed = instance_seed(ctx.seed(), k);
      inst_.push_back(std::move(in));
    }
    ctx.stage("graph.gen", [&] {
      // The dynamic layer needs a canonical base (sorted, deduplicated
      // rows) so merged views and rebuilds agree bit for bit.
      for (auto& in : inst_)
        in->base = graph::Csr::from_edges(in->rp.num_vertices(),
                                          graph::rmat_edges(in->rp),
                                          graph::EdgePolicy::sorted_dedup);
    });
    ctx.stage("graph.partition", [&] {
      cluster_ = std::make_unique<rt::Cluster>(
          sim::Topology::xeon_x7550_cluster(2),
          sim::CostParams{}.with_paper_cache_scaling(
              inst_[0]->rp.num_vertices()),
          4);
      for (auto& in : inst_) fresh_manager(*in);
    });
    ctx.stage("engine.state", [&] {
      for (auto& in : inst_) {
        engine::WorkloadSpec w;
        w.num_queries = ctx.smoke() ? 16 : 1000;  // per instance
        w.seed = in->rp.seed;
        w.mean_interarrival_ns = 1e6 / 100.0;  // 100 kqps: ~30 lanes a wave
        in->queries = engine::QueryEngine::generate(in->p->mgr->base().dg, w);
        finish_state(ctx, *in);
      }
    });
  }

  void pass(Ctx& ctx, int index) override {
    ctx_ = &ctx;
    pass_ = index;
    ledger_.start(ctx, index);
    WriteStats write;
    std::vector<std::vector<double>> sigs;
    for (int k = 0; k < kInstances; ++k) {
      Instance& in = *inst_[k];
      const std::string i = "i" + std::to_string(k) + "/";
      if (index > 0)
        ctx.untimed("reset", ctx.rid(index, i + "reset"), [&] {
          fresh_manager(in);
          finish_state(ctx, in);
        });
      engine::EngineReport rep;
      ctx.call("engine.serve", ctx.rid(index, i + "serve"), [&] {
        ledger_.resume();
        rep = in.p->eng->serve(in.queries);
      });
      in.p->held.reset();
      write.add(in.p->w);
      for (const engine::QueryResult& q : rep.results)
        sigs.push_back({q.start_ns, q.complete_ns,
                        static_cast<double>(q.epoch),
                        static_cast<double>(q.visited),
                        static_cast<double>(q.wave)});
      if (index == 0) in.first = std::move(rep);
    }
    std::vector<double> waves = ledger_.sig;
    for (double x : {static_cast<double>(write.epochs),
                     static_cast<double>(write.compactions), write.pause_ns,
                     write.fill_max, static_cast<double>(write.probes),
                     static_cast<double>(write.scanned)})
      waves.push_back(x);
    if (index > 0) {
      check_serve_repeat(ctx, index, first_sigs_, sigs, first_waves_, waves);
      return;
    }
    first_sigs_ = std::move(sigs);
    first_waves_ = std::move(waves);
    first_ledger_ = ledger_;
    first_write_ = write;
  }

  rt::Cluster& probe_cluster() override { return *cluster_; }

  void report(Ctx& ctx, const std::vector<Span>& spans) override {
    std::vector<double> lat, wait;
    std::vector<std::vector<double>> inst_lat;
    double busy = 0, total = 0;
    int backpressured = 0, recoveries = 0;
    for (const auto& in : inst_) {
      inst_lat.emplace_back();
      for (const engine::QueryResult& q : in->first.results) {
        lat.push_back(q.latency_ns());
        inst_lat.back().push_back(q.latency_ns());
        wait.push_back(q.queue_ns());
      }
      busy += in->first.busy_ns;
      total += in->first.total_ns;
      backpressured += in->first.backpressured;
      recoveries += in->first.recoveries;
    }
    report_latency(ctx, "p50_ms", lat, 50);
    report_p99(ctx, inst_lat);
    const WaveLedger& l = first_ledger_;
    ctx.e2e["gteps"] = {l.wave_ns > 0 ? static_cast<double>(traversed_) /
                                            (l.wave_ns * 1e-9) / 1e9
                                      : 0.0,
                        "GTEPS", "virtual"};
    const double waves = static_cast<double>(l.waves);
    report_split(ctx, l.prof, waves, l.levels / waves);
    report_engine_layer(ctx, spans, l, lat.size(), std::move(wait),
                        total > 0 ? busy / total : 0.0, backpressured);
    ctx.layer["faults.recoveries"] = {static_cast<double>(recoveries), "count",
                                      "virtual"};

    const WriteStats& w = first_write_;
    ctx.layer["dyn.ingest_us"] = {span_stat(spans, "dyn.ingest").mean_s() * 1e6,
                                  "us", "host"};
    ctx.layer["dyn.compact_ms"] = {
        span_stat(spans, "dyn.compact").mean_s() * 1e3, "ms", "host"};
    ctx.layer["dyn.pin_us"] = {span_stat(spans, "dyn.pin").mean_s() * 1e6, "us",
                               "host"};
    ctx.layer["dyn.epochs"] = {static_cast<double>(w.epochs), "count",
                               "virtual"};
    ctx.layer["dyn.compactions"] = {static_cast<double>(w.compactions), "count",
                                    "virtual"};
    ctx.layer["dyn.pause_ms"] = {w.pause_ns * kMsPerNs, "ms", "virtual"};
    ctx.layer["dyn.fill_max"] = {w.fill_max, "ratio", "virtual"};
    ctx.layer["dyn.read_amp"] = {
        w.scanned > 0 ? static_cast<double>(w.probes) /
                            static_cast<double>(w.scanned)
                      : 0.0,
        "ratio", "virtual"};
  }

 private:
  /// What the write side did (virtual).
  struct WriteStats {
    std::uint64_t epochs = 0, compactions = 0;
    double pause_ns = 0, fill_max = 0;
    std::uint64_t probes = 0, scanned = 0;  ///< merged-view reads

    void add(const WriteStats& o) {
      epochs += o.epochs;
      compactions += o.compactions;
      pause_ns += o.pause_ns;
      fill_max = std::max(fill_max, o.fill_max);
      probes += o.probes;
      scanned += o.scanned;
    }
  };

  /// The write side and the engine of one instance for one pass. A pass
  /// mutates the snapshot manager, so every pass starts from a fresh one.
  struct PassState {
    std::unique_ptr<dyn::SnapshotManager> mgr;
    std::unique_ptr<dyn::Compactor> compactor;
    std::unique_ptr<dyn::IngestGenerator> gen;
    std::unique_ptr<engine::QueryEngine> eng;
    std::shared_ptr<const dyn::Snapshot> held;  ///< pinned for the wave
    double next_ingest_ns = kIngestGapNs;
    double pending_pause_ns = 0;
    WriteStats w;
  };

  struct Instance {
    graph::RmatParams rp;
    graph::Csr base;
    std::vector<engine::Query> queries;
    std::unique_ptr<PassState> p;
    engine::EngineReport first;  ///< pass 0
    // Validation: the CSR rebuilt at the last validated epoch.
    graph::Csr rebuilt;
    std::optional<std::uint64_t> rebuilt_epoch;
  };

  /// Epochs seal every 500 us of virtual time.
  static constexpr double kIngestGapNs = 500e3;

  void fresh_manager(Instance& in) {
    in.p = std::make_unique<PassState>();
    in.p->mgr = std::make_unique<dyn::SnapshotManager>(
        *cluster_, in.base,
        graph::Partition1D(in.rp.num_vertices(), cluster_->nranks()));
  }

  void finish_state(Ctx& ctx, Instance& in) {
    PassState& p = *in.p;
    dyn::CompactorPolicy pol;
    pol.fill_trigger = 0.05;
    p.compactor = std::make_unique<dyn::Compactor>(*p.mgr, pol);
    dyn::IngestConfig ic;
    ic.base = in.rp;
    ic.seed = in.rp.seed ^ 0xd1a5;
    p.gen = std::make_unique<dyn::IngestGenerator>(ic);
    const std::uint64_t ops = ctx.smoke() ? 400 : 2000;
    engine::EngineConfig ec;
    ec.max_batch = 64;
    ec.graph_source = [this, &in, ops](double now) {
      return pin_for_wave(in, ops, now);
    };
    ec.sink = [this, &in](std::span<const engine::WaveQuery> wq,
                          const engine::WaveResult& wr, engine::WaveState& ws) {
      const std::string rid = ledger_.wave_rid();
      ledger_.enter(wr);
      in.p->w.probes += wr.profile_avg.counters().delta_probes;
      in.p->w.scanned += wr.profile_avg.counters().edges_scanned;
      if (pass_ == 0)
        ctx_->hook(rid, [&] { validate_wave(in, rid, wq, wr, ws); });
      ledger_.leave();
    };
    p.eng = std::make_unique<engine::QueryEngine>(
        *cluster_, p.mgr->base().dg, bfs::par_allgather(), std::move(ec));
  }

  /// The mixed read/write loop: advance the write side to `now` (seal
  /// due epochs, compact when the policy says so), then pin the freshest
  /// epoch. Compaction pauses and the pin land on the admission path.
  engine::PinnedGraph pin_for_wave(Instance& in, std::uint64_t ops,
                                   double now) {
    PassState& p = *in.p;
    const std::string rid = ledger_.wave_rid();
    while (p.next_ingest_ns <= now) {
      ctx_->call("dyn.ingest", rid, [&] {
        p.mgr->ingest(p.gen->next_batch(ops), p.next_ingest_ns);
      });
      ++p.w.epochs;
      p.w.fill_max = std::max(p.w.fill_max, p.mgr->fill());
      if (p.compactor->due()) {
        std::optional<dyn::CompactionStats> cs;
        ctx_->call("dyn.compact", rid, [&] {
          cs = p.compactor->maybe_compact(p.next_ingest_ns);
        });
        if (cs) {
          ++p.w.compactions;
          p.w.pause_ns += cs->pause_ns;
          p.pending_pause_ns += cs->pause_ns;
        }
      }
      p.next_ingest_ns += kIngestGapNs;
    }
    ctx_->call("dyn.pin", rid,
               [&] { p.held = p.mgr->pin(p.mgr->epoch(), now); });
    engine::PinnedGraph pg;
    pg.epoch = p.held->epoch;
    pg.graph = p.held->graph;
    pg.pin_ns = p.held->pin_ns + p.pending_pause_ns;
    p.pending_pause_ns = 0;
    return pg;
  }

  /// Every lane against the CSR rebuilt (SnapshotManager::rebuild_csr) at
  /// the wave's pinned epoch: its distances equal the serial reference depths there. The
  /// first lane of each wave also passes the Graph500 parent-tree checker
  /// (the tree check costs more than the wave; distances pin the answer).
  void validate_wave(Instance& in, const std::string& rid,
                     std::span<const engine::WaveQuery> wq,
                     const engine::WaveResult& wr, engine::WaveState& ws) {
    if (in.rebuilt_epoch != wr.epoch) {
      in.rebuilt = in.p->mgr->rebuild_csr(wr.epoch);
      in.rebuilt_epoch = wr.epoch;
    }
    const graph::Csr& g = in.rebuilt;
    const graph::DistGraph& dg = in.p->held->dg();
    for (std::size_t l = 0; l < wq.size(); ++l) {
      const int lane = static_cast<int>(l);
      const graph::Vertex root = wq[l].source;
      const graph::BfsTree ref = graph::reference_bfs(g, root);
      const auto dist = engine::gather_lane_distances(dg, ws, lane);
      bool same = wr.lanes[l].visited == ref.visited;
      std::uint64_t edges = 0;
      for (graph::Vertex v = 0; v < g.num_vertices() && same; ++v) {
        same = ref.reached(v)
                   ? dist[v] == static_cast<engine::Dist>(ref.depth[v])
                   : dist[v] == engine::kUnreached;
        if (ref.reached(v)) edges += g.degree(v);
      }
      std::string error = same ? "" : "distances differ from the rebuilt CSR";
      if (same && l == 0) {
        const graph::ValidationResult val = graph::validate_bfs_tree(
            g, root, engine::gather_lane_parents(dg, ws, lane));
        if (!val.ok)
          error = val.error.empty() ? "invalid parent tree" : val.error;
      }
      ctx_->check(error.empty(), [&] {
        return rid + " lane " + std::to_string(l) + " epoch " +
               std::to_string(wr.epoch) + ": " + error;
      });
      traversed_ += edges / 2;
    }
  }

  // Declared before the instances: their snapshot managers and engines
  // hold references to it. One cluster serves every instance in turn.
  std::unique_ptr<rt::Cluster> cluster_;
  std::vector<std::unique_ptr<Instance>> inst_;
  Ctx* ctx_ = nullptr;
  int pass_ = 0;
  WaveLedger ledger_;
  std::uint64_t traversed_ = 0;  ///< validated lanes' undirected edges

  std::vector<std::vector<double>> first_sigs_;
  std::vector<double> first_waves_;
  WaveLedger first_ledger_;
  WriteStats first_write_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed() {
  return std::make_unique<ServeMixed>();
}
std::unique_ptr<Workload> make_serve_ingest() {
  return std::make_unique<ServeIngest>();
}

}  // namespace e2e
