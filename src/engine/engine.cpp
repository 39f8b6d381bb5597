#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>

#include "graph/rmat.hpp"
#include "harness/graph500.hpp"
#include "obs/trace.hpp"

namespace numabfs::engine {

namespace {

std::uint64_t degree_of(const graph::DistGraph& dg, graph::Vertex v) {
  const int r = dg.part.owner(v);
  const auto& lg = dg.locals[static_cast<std::size_t>(r)];
  const std::uint64_t lv = v - lg.vbegin;
  return lg.degree(lv);
}

/// Uniform double in [0, 1) from the top 53 bits of a splitmix64 draw.
double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

ProgramWorkload workload_of(QueryKind k) {
  switch (k) {
    case QueryKind::sssp: return ProgramWorkload::sssp;
    case QueryKind::pagerank: return ProgramWorkload::pagerank;
    case QueryKind::components: return ProgramWorkload::components;
    case QueryKind::triangles: return ProgramWorkload::triangles;
    case QueryKind::full_distances:
    case QueryKind::st_reachability:
    case QueryKind::k_hop:
      break;
  }
  throw std::invalid_argument("workload_of: not a program kind");
}

std::string EngineConfig::validate() const {
  if (max_batch < 1 || max_batch > kMaxLanes)
    return "max_batch must be in [1, " + std::to_string(kMaxLanes) +
           "] (one lane word per wave)";
  if (queue_depth < 1) return "queue_depth must be >= 1";
  return {};
}

QueryEngine::QueryEngine(rt::Cluster& c, const graph::DistGraph& dg,
                         const bfs::Config& cfg, EngineConfig ec)
    : cluster_(c),
      dg_(dg),
      ec_(std::move(ec)),
      ws_(dg, cfg, c.topo().nodes(), c.ppn(), ec_.track_parents),
      progs_(ec_.programs) {
  if (const std::string err = ec_.validate(); !err.empty())
    throw std::invalid_argument("QueryEngine: " + err);
  if (const std::string err = cfg.validate(); !err.empty())
    throw std::invalid_argument("QueryEngine: " + err);
}

std::vector<Query> QueryEngine::generate(const graph::DistGraph& dg,
                                         const WorkloadSpec& spec) {
  if (spec.num_queries < 1)
    throw std::invalid_argument("generate: num_queries must be >= 1");
  const double prog_fraction = spec.sssp_fraction + spec.pagerank_fraction +
                               spec.components_fraction +
                               spec.triangles_fraction;
  if (spec.mean_interarrival_ns < 0 ||
      spec.st_fraction + spec.khop_fraction + prog_fraction > 1.0 + 1e-12)
    throw std::invalid_argument("generate: bad workload spec");
  if (spec.k_min < 0 || spec.k_max < spec.k_min)
    throw std::invalid_argument("generate: bad k_hop radius range");

  // Hash-walk the vertex space for degree > 0 endpoints, the same
  // deterministic selection as Graph500 root picking.
  std::uint64_t x = graph::splitmix64(spec.seed ^ 0x9e3779b97f4a7c15ull);
  const auto pick_vertex = [&]() -> graph::Vertex {
    for (int attempt = 0; attempt < 4096; ++attempt) {
      x = graph::splitmix64(x + 1);
      const auto v = static_cast<graph::Vertex>(x % dg.n);
      if (degree_of(dg, v) > 0) return v;
    }
    throw std::runtime_error("generate: no degree > 0 vertex found");
  };

  std::vector<Query> out;
  out.reserve(static_cast<std::size_t>(spec.num_queries));
  double t = 0;
  for (int i = 0; i < spec.num_queries; ++i) {
    x = graph::splitmix64(x + 1);
    t += -spec.mean_interarrival_ns * std::log1p(-to_unit(x));

    Query q;
    q.id = i;
    q.arrival_ns = t;
    x = graph::splitmix64(x + 1);
    const double u = to_unit(x);
    if (u < spec.st_fraction) {
      q.kind = QueryKind::st_reachability;
      q.source = pick_vertex();
      q.target = pick_vertex();
    } else if (u < spec.st_fraction + spec.khop_fraction) {
      q.kind = QueryKind::k_hop;
      q.source = pick_vertex();
      x = graph::splitmix64(x + 1);
      q.k = spec.k_min +
            static_cast<int>(x % static_cast<std::uint64_t>(
                                     spec.k_max - spec.k_min + 1));
    } else if (double lo = spec.st_fraction + spec.khop_fraction;
               u < lo + spec.sssp_fraction) {
      q.kind = QueryKind::sssp;
      q.source = pick_vertex();
      q.target = pick_vertex();
    } else if (lo += spec.sssp_fraction; u < lo + spec.pagerank_fraction) {
      q.kind = QueryKind::pagerank;
      q.source = pick_vertex();
    } else if (lo += spec.pagerank_fraction;
               u < lo + spec.components_fraction) {
      q.kind = QueryKind::components;  // whole-graph: no endpoint draw
    } else if (lo += spec.components_fraction;
               u < lo + spec.triangles_fraction) {
      q.kind = QueryKind::triangles;  // whole-graph: no endpoint draw
    } else {
      q.kind = QueryKind::full_distances;
      q.source = pick_vertex();
    }
    out.push_back(q);
  }
  return out;
}

EngineReport QueryEngine::serve(std::span<const Query> queries) {
  const auto nq = static_cast<std::size_t>(queries.size());
  for (std::size_t i = 1; i < nq; ++i)
    if (queries[i].arrival_ns < queries[i - 1].arrival_ns)
      throw std::invalid_argument("serve: queries not sorted by arrival");

  EngineReport rep;
  rep.results.assign(nq, QueryResult{});
  if (nq == 0) return rep;

  struct Admitted {
    std::size_t idx;
    double admit_ns;
  };
  std::deque<Admitted> queue;
  std::size_t next = 0;     // first not-yet-admitted arrival
  double last_dequeue = 0;  // instant queue space last became available

  // Driver-track tracing (admission, batch formation, per-wave spans).
  // Host events carry absolute serve-loop time; the per-wave base offset
  // below relocates the in-wave rank events, whose clocks restart at 0.
  obs::Tracer* tr = cluster_.tracer();

  // Admit every arrival up to time `t` that finds room in the bounded
  // queue. An arrival that found the queue full waits at the door and is
  // admitted the moment a wave dequeues (arrivals are FIFO end to end).
  const auto admit = [&](double t) {
    while (next < nq && queries[next].arrival_ns <= t &&
           queue.size() < static_cast<std::size_t>(ec_.queue_depth)) {
      const double adm = std::max(queries[next].arrival_ns, last_dequeue);
      if (adm > queries[next].arrival_ns) ++rep.backpressured;
      if (tr != nullptr)
        tr->instant(tr->host_track(), obs::kCatEngine, "admit", adm,
                    obs::kv("query", queries[next].id) + "," +
                        obs::kv("backpressured",
                                adm > queries[next].arrival_ns ? "yes" : "no"));
      queue.push_back({next, adm});
      ++next;
    }
  };

  double now = 0;
  std::size_t completed = 0;
  std::vector<WaveQuery> wave;
  std::vector<std::size_t> wave_idx;
  // NaN marks "never completed"; mean/percentile skip non-finite entries,
  // so a lane that cannot complete (e.g. its rank crashed) deflates the
  // completed count rather than silently pulling the percentiles to 0.
  std::vector<double> latencies(nq, std::numeric_limits<double>::quiet_NaN());

  while (completed < nq) {
    if (queue.empty()) {
      // Engine idle: jump to the next arrival.
      now = std::max(now, queries[next].arrival_ns);
      last_dequeue = std::max(last_dequeue, now);
    }
    admit(now);

    // Dynamic serving: pin the wave's snapshot before forming the batch.
    // The pin instant fixes the epoch every lane of the wave serves, and
    // the pin cost lands on the serving path — it delays the wave start,
    // so snapshot acquisition is part of every rider's latency.
    PinnedGraph pg;
    if (ec_.graph_source) {
      pg = ec_.graph_source(now);
      now += pg.pin_ns;
      if (tr != nullptr)
        tr->instant(tr->host_track(), obs::kCatEngine, "snapshot.pin", now,
                    obs::kv("epoch", pg.epoch) + "," +
                        obs::kv("pin_ns", pg.pin_ns));
      admit(now);
    }
    const graph::DistGraph& wdg = pg.graph != nullptr ? *pg.graph : dg_;

    // A program query at the head of the queue is dispatched alone through
    // run_program (programs own the whole cluster; they cannot share a
    // wave's lane words). Admission stays FIFO end to end: a wave never
    // reaches past the first queued program query.
    if (!queue.empty() && is_program_kind(queries[queue.front().idx].kind)) {
      const Admitted a = queue.front();
      queue.pop_front();
      last_dequeue = now;
      admit(now);
      const Query& q = queries[a.idx];
      auto& r = rep.results[a.idx];
      r.id = q.id;
      r.kind = q.kind;
      r.arrival_ns = q.arrival_ns;
      r.admit_ns = a.admit_ns;
      r.start_ns = now;
      r.wave = -1;  // not a wave rider
      r.lane = 0;

      const FrontierProgram& prog =
          progs_.get(workload_of(q.kind), wdg, pg.epoch);
      ProgramState pstate(wdg, ws_.config(), cluster_.topo().nodes(),
                          cluster_.ppn(), prog.with_values());
      ProgramOptions po;
      po.epoch = pg.epoch;
      po.max_levels = ec_.programs.max_levels;
      if (tr != nullptr) tr->set_base_ns(now);
      const ProgramResult res = run_program(
          cluster_, wdg, pstate, prog, ProgramQuery{q.source, q.target}, po);
      if (tr != nullptr) {
        tr->set_base_ns(0);
        tr->span(tr->host_track(), obs::kCatEngine,
                 std::string("program ") + prog.name(), now,
                 now + res.total_ns,
                 obs::kv("query", q.id) + "," +
                     obs::kv("levels", res.levels) + "," +
                     obs::kv("value", res.value));
      }
      r.complete_ns = now + res.total_ns;
      r.epoch = pg.epoch;
      r.complete_level = res.levels;
      r.value = res.value;
      latencies[a.idx] = r.latency_ns();
      if (ec_.program_sink) ec_.program_sink(q, res, pstate);

      now += res.total_ns;
      rep.busy_ns += res.total_ns;
      rep.levels += res.levels;
      rep.recoveries += res.recoveries;
      rep.ranks_lost = std::max(rep.ranks_lost, res.ranks_lost);
      ++rep.program_runs;
      ++completed;
      continue;
    }

    // Dequeue up to max_batch lanes; the freed slots let door-blocked
    // arrivals enter the queue now (they ride a later wave).
    wave.clear();
    wave_idx.clear();
    const int want =
        std::min<int>(ec_.max_batch, static_cast<int>(queue.size()));
    for (int l = 0; l < want; ++l) {
      if (is_program_kind(queries[queue.front().idx].kind))
        break;  // the program query heads the next dispatch
      const Admitted a = queue.front();
      queue.pop_front();
      const Query& q = queries[a.idx];
      wave.push_back({q.kind, q.source, q.target, q.k});
      wave_idx.push_back(a.idx);
      auto& r = rep.results[a.idx];
      r.id = q.id;
      r.kind = q.kind;
      r.arrival_ns = q.arrival_ns;
      r.admit_ns = a.admit_ns;
      r.start_ns = now;
      r.wave = rep.waves;
      r.lane = l;
    }
    const int batch = static_cast<int>(wave.size());
    last_dequeue = now;
    admit(now);

    if (tr != nullptr) {
      tr->instant(tr->host_track(), obs::kCatEngine, "batch.form", now,
                  obs::kv("wave", rep.waves) + "," + obs::kv("batch", batch));
      // In-wave rank clocks restart at 0; land their events at wave start.
      tr->set_base_ns(now);
    }
    WaveResult wr;
    if (ec_.graph_source) {
      WaveOptions wo;
      wo.epoch = pg.epoch;
      wr = run_wave(cluster_, wdg, ws_, wave, wo);
    } else {
      wr = run_wave(cluster_, wdg, ws_, wave);
    }
    if (tr != nullptr) {
      tr->set_base_ns(0);
      tr->span(tr->host_track(), obs::kCatEngine,
               "wave " + std::to_string(rep.waves), now, now + wr.wave_ns,
               obs::kv("batch", batch) + "," + obs::kv("levels", wr.levels));
    }
    for (int l = 0; l < batch; ++l) {
      auto& r = rep.results[wave_idx[static_cast<std::size_t>(l)]];
      const LaneResult& lr = wr.lanes[static_cast<std::size_t>(l)];
      r.complete_ns = now + lr.complete_ns;
      r.epoch = wr.epoch;
      r.complete_level = lr.complete_level;
      r.reached = lr.reached;
      r.visited = lr.visited;
      latencies[wave_idx[static_cast<std::size_t>(l)]] = r.latency_ns();
    }
    if (ec_.sink) ec_.sink(wave, wr, ws_);

    now += wr.wave_ns;
    rep.busy_ns += wr.wave_ns;
    rep.levels += wr.levels;
    rep.recoveries += wr.recoveries;
    rep.ranks_lost = std::max(rep.ranks_lost, wr.ranks_lost);
    ++rep.waves;
    completed += static_cast<std::size_t>(batch);
  }

  rep.total_ns = now;
  rep.mean_latency_ns = harness::mean(latencies);
  rep.p50_latency_ns = harness::percentile(latencies, 50);
  rep.p95_latency_ns = harness::percentile(latencies, 95);
  rep.p99_latency_ns = harness::percentile(latencies, 99);
  rep.qps = rep.total_ns > 0
                ? static_cast<double>(nq) * 1e9 / rep.total_ns
                : 0.0;
  return rep;
}

}  // namespace numabfs::engine
