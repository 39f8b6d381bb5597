/// \file test_obs.cpp
/// The observability layer (src/obs): metrics registry, Chrome-trace
/// exporter, and the runtime/BFS/engine instrumentation built on them.
/// The load-bearing invariants:
///  - tracing on vs off leaves simulated results bit-identical,
///  - kCatTime spans cover >= 95% of every rank's virtual run time (for a
///    hybrid BFS run and a query-engine batch run),
///  - MS-BFS emits one `mslevel` span per level, monotone lane retirements,
///    a recovery span per crash re-run, and a deterministic event stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bfs/hybrid.hpp"
#include "bfs2d/bfs2d.hpp"
#include "engine/engine.hpp"
#include "engine/msbfs.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "harness/graph500.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace numabfs {
namespace {

using harness::Experiment;
using harness::ExperimentOptions;
using harness::GraphBundle;

ExperimentOptions shape(int nodes, int ppn) {
  ExperimentOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  return o;
}

const GraphBundle& bundle12() {
  static const GraphBundle b = GraphBundle::make(12, 16, 3, 8);
  return b;
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CountersGaugesHistograms) {
  obs::Registry reg;
  reg.counter("a.count").add();
  reg.counter("a.count").add(4);
  reg.gauge("a.value").set(2.5);
  auto& h = reg.histogram("a.lat", {1.0, 10.0, 100.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(10.0);  // bucket 1 (lower_bound: first bound >= v)
  h.observe(1e6);   // +inf bucket
  EXPECT_EQ(reg.counter("a.count").value, 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("a.value").value, 2.5);
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 10.0 + 1e6);
  EXPECT_TRUE(reg.has("a.count"));
  EXPECT_TRUE(reg.has("a.lat"));
  EXPECT_FALSE(reg.has("missing"));
  // A later histogram() call fetches the existing instance untouched.
  EXPECT_EQ(&reg.histogram("a.lat"), &h);
  reg.clear();
  EXPECT_FALSE(reg.has("a.count"));
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(obs::Histogram({3.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, JsonIsStableSchemaAndDeterministic) {
  // Two registries filled in different insertion orders must serialize to
  // the same bytes (std::map ordering) — that is what lets the perf gate
  // diff a committed baseline.
  obs::Registry a, b;
  a.counter("x").add(2);
  a.gauge("y").set(1.5);
  a.histogram("z", {1.0}).observe(0.5);
  b.histogram("z", {1.0}).observe(0.5);
  b.gauge("y").set(1.5);
  b.counter("x").add(2);
  EXPECT_EQ(a.json(), b.json());
  const std::string j = a.json();
  EXPECT_NE(j.find("\"schema\":\"numabfs.metrics.v1\""), std::string::npos);
  EXPECT_NE(j.find("\"counters\":{\"x\":2}"), std::string::npos);
  EXPECT_NE(j.find("\"gauges\":{\"y\":1.5}"), std::string::npos);
  EXPECT_NE(j.find("\"bounds\":[1]"), std::string::npos);
  EXPECT_NE(j.find("\"counts\":[1,0]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer unit behavior
// ---------------------------------------------------------------------------

TEST(Tracer, TracksCoverageAndBaseOffset) {
  obs::Tracer tr(2, 2);
  EXPECT_EQ(tr.host_track(), 2);
  tr.span(0, obs::kCatTime, "comp", 0, 100);
  tr.span(0, obs::kCatTime, "comm", 100, 250);
  tr.span(0, obs::kCatBfs, "level 0", 0, 250);  // annotation: not counted
  tr.instant(1, obs::kCatFault, "p2p.drop", 50);
  EXPECT_DOUBLE_EQ(tr.covered_time_ns(0), 250.0);
  EXPECT_DOUBLE_EQ(tr.covered_time_ns(1), 0.0);
  EXPECT_DOUBLE_EQ(tr.max_ts_ns(), 250.0);
  EXPECT_EQ(tr.total_events(), 4u);

  tr.set_base_ns(1000);
  tr.span(1, obs::kCatTime, "comp", 0, 10);
  EXPECT_DOUBLE_EQ(tr.track(1).back().ts_ns, 1000.0);
  EXPECT_DOUBLE_EQ(tr.max_ts_ns(), 1010.0);

  tr.clear();
  EXPECT_EQ(tr.total_events(), 0u);
  EXPECT_THROW(obs::Tracer(0, 1), std::invalid_argument);
}

TEST(Tracer, ChromeJsonShape) {
  obs::Tracer tr(1, 1);
  tr.span(0, obs::kCatTime, "a \"quoted\" name", 1000, 3000,
          obs::kv("bytes", std::uint64_t{42}));
  tr.instant(1, obs::kCatEngine, "admit", 500, obs::kv("id", 7));
  const std::string j = tr.chrome_json();
  // Top-level shape + metadata + both phases, ts/dur in microseconds.
  EXPECT_EQ(j.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(j.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(j.find("\"process_name\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"dur\":2"), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"bytes\":42"), std::string::npos);
  EXPECT_NE(j.find("a \\\"quoted\\\" name"), std::string::npos);
  // Balanced braces/brackets — cheap structural validity check.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['),
            std::count(j.begin(), j.end(), ']'));
}

TEST(Tracer, FmtDoubleRoundTrips) {
  EXPECT_EQ(obs::fmt_double(1.5), "1.5");
  EXPECT_EQ(obs::fmt_double(0), "0");
  const double v = 8911.664366576682;
  EXPECT_DOUBLE_EQ(std::stod(obs::fmt_double(v)), v);
}

// ---------------------------------------------------------------------------
// Hybrid BFS integration
// ---------------------------------------------------------------------------

bfs::BfsRunResult run_hybrid(Experiment& e, const bfs::Config& cfg) {
  bfs::DistState st(e.dist(), cfg, 2, 4);
  return bfs::run_bfs(e.cluster(), e.dist(), st, e.bundle().roots[0]);
}

TEST(ObsHybrid, TracingOnOffIsBitIdentical) {
  // The tracer only *reads* clocks; attaching one must not move a single
  // virtual nanosecond anywhere in the run.
  Experiment e(bundle12(), shape(2, 4));
  const auto off = run_hybrid(e, bfs::compressed(256, 4));
  auto tr = std::make_shared<obs::Tracer>(e.cluster().nranks(),
                                          e.cluster().ppn());
  e.cluster().set_tracer(tr);
  const auto on = run_hybrid(e, bfs::compressed(256, 4));
  e.cluster().set_tracer(nullptr);
  const auto off2 = run_hybrid(e, bfs::compressed(256, 4));

  EXPECT_GT(tr->total_events(), 0u);
  for (const auto* r : {&on, &off2}) {
    EXPECT_EQ(r->time_ns, off.time_ns);
    EXPECT_EQ(r->visited, off.visited);
    EXPECT_EQ(r->levels, off.levels);
    EXPECT_EQ(r->traversed_directed_edges, off.traversed_directed_edges);
    ASSERT_EQ(r->trace.size(), off.trace.size());
    for (std::size_t i = 0; i < off.trace.size(); ++i) {
      EXPECT_EQ(r->trace[i].comp_ns, off.trace[i].comp_ns);
      EXPECT_EQ(r->trace[i].comm_ns, off.trace[i].comm_ns);
      EXPECT_EQ(r->trace[i].wire_bytes, off.trace[i].wire_bytes);
    }
  }
}

TEST(ObsHybrid, TimeSpansCoverAtLeast95PercentPerRank) {
  Experiment e(bundle12(), shape(2, 4));
  auto tr = std::make_shared<obs::Tracer>(e.cluster().nranks(),
                                          e.cluster().ppn());
  e.cluster().set_tracer(tr);
  const auto r = run_hybrid(e, bfs::granularity(256));
  e.cluster().set_tracer(nullptr);
  ASSERT_GT(r.time_ns, 0.0);
  for (int rank = 0; rank < e.cluster().nranks(); ++rank) {
    const double covered = tr->covered_time_ns(rank);
    EXPECT_GE(covered, 0.95 * r.time_ns) << "rank " << rank;
    EXPECT_LE(covered, r.time_ns * (1 + 1e-9)) << "rank " << rank;
  }
  // Per-level spans and gate decisions rode along on the rank tracks.
  int levels = 0, gates = 0;
  for (const auto& ev : tr->track(0)) {
    if (ev.is_span() && ev.name.rfind("level ", 0) == 0) ++levels;
    if (!ev.is_span() && ev.name == "codec.gate") ++gates;
  }
  EXPECT_EQ(levels, r.levels);
  EXPECT_GT(gates, 0);
}

// ---------------------------------------------------------------------------
// 2-D BFS integration
// ---------------------------------------------------------------------------

TEST(Obs2d, TracingOnOffIsBitIdentical) {
  // Parity with the 1-D invariant: the tracer reads clocks on every 2-D
  // phase (input legs, scan, fold) without moving them. Three shapes:
  // 2 nodes x 4; 64 nodes x 1 at physical alpha, whose 8-node rows take
  // the Bruck index exchange on small folds; and 2 nodes x 1. Between them
  // the levels' inputs ride both plans: the row plan on the 2 x 4 and
  // 8 x 8 grids, the column plan on the 1 x 2 grid, whose col bands are
  // each rank's own piece.
  ExperimentOptions wide = shape(64, 1);
  wide.paper_cache_scaling = false;
  int plan_spans[2] = {0, 0};  // column, row; over all shapes
  for (const ExperimentOptions& opt : {shape(2, 4), wide, shape(2, 1)}) {
    Experiment e(bundle12(), opt);
    const auto& g = bundle12().csr;
    const bfs2d::Grid2d grid =
        bfs2d::Grid2d::make(g.num_vertices(), e.cluster().nranks(),
                            e.cluster().ppn());
    const bfs2d::DistGraph2d d = bfs2d::DistGraph2d::build(g, grid);
    bfs2d::Bfs2dOptions o;
    o.codec = bfs::CodecMode::gate;
    o.exchange_chunks = 4;
    o.hier = rt::coll_model::HierLevel::node;
    const graph::Vertex root = bundle12().roots[0];

    const auto off = bfs2d::run_bfs_2d(e.cluster(), d, root, nullptr, o);
    auto tr = std::make_shared<obs::Tracer>(e.cluster().nranks(),
                                            e.cluster().ppn());
    e.cluster().set_tracer(tr);
    const auto on = bfs2d::run_bfs_2d(e.cluster(), d, root, nullptr, o);
    e.cluster().set_tracer(nullptr);
    const auto off2 = bfs2d::run_bfs_2d(e.cluster(), d, root, nullptr, o);

    EXPECT_GT(tr->total_events(), 0u);
    for (const auto* r : {&on, &off2}) {
      EXPECT_EQ(r->time_ns, off.time_ns);
      EXPECT_EQ(r->visited, off.visited);
      EXPECT_EQ(r->directions, off.directions);
      EXPECT_EQ(r->traversed_directed_edges, off.traversed_directed_edges);
      ASSERT_EQ(r->trace.size(), off.trace.size());
      for (std::size_t i = 0; i < off.trace.size(); ++i) {
        EXPECT_EQ(r->trace[i].wire_bytes(), off.trace[i].wire_bytes());
        EXPECT_EQ(r->trace[i].wire_raw_bytes(),
                  off.trace[i].wire_raw_bytes());
        EXPECT_EQ(r->trace[i].discovered, off.trace[i].discovered);
      }
    }
    // The run rode the rank tracks: one level span per level plus the 2-D
    // phase spans and the per-level gate decisions.
    int levels = 0, expands = 0, folds = 0, gates = 0;
    for (const auto& ev : tr->track(0)) {
      if (ev.is_span() && ev.name.rfind("level ", 0) == 0) ++levels;
      if (ev.is_span() && ev.name == "2d.expand") ++expands;
      if (ev.is_span() && ev.name == "2d.fold") ++folds;
      if (!ev.is_span() && ev.name == "codec.gate") ++gates;
    }
    EXPECT_EQ(levels, on.levels);
    // One input build per exchange: level 0's inputs are seeded locally and
    // the last level never exchanges (nf == 0 ends the loop), so expands
    // and gates fire levels - 1 times.
    EXPECT_EQ(expands, on.levels - 1);
    EXPECT_EQ(folds, on.levels);
    EXPECT_EQ(gates, on.levels - 1);
    // Every level but the last names exactly one plan for the next level's
    // inputs, on every rank, and the level records agree.
    for (int r = 0; r < e.cluster().nranks(); ++r) {
      int named = 0;
      for (const auto& ev : tr->track(r)) {
        if (!ev.is_span() || ev.name != "2d.expand") continue;
        const bool column =
            ev.args.find("\"plan\":\"column\"") != std::string::npos;
        const bool row =
            ev.args.find("\"plan\":\"row\"") != std::string::npos;
        EXPECT_NE(column, row) << ev.args;
        EXPECT_NE(ev.args.find("\"wire_bytes\":"), std::string::npos);
        // What the level's reduction hid of the row plan's wire legs.
        if (row) {
          EXPECT_NE(ev.args.find("\"hidden_ns\":"), std::string::npos)
              << ev.args;
        }
        if (r == 0) ++plan_spans[row ? 1 : 0];
        ++named;
      }
      EXPECT_EQ(named, on.levels - 1) << "rank " << r;
    }
    ASSERT_FALSE(on.trace.empty());
    EXPECT_EQ(on.trace[0].plan, -1);
    for (std::size_t i = 1; i < on.trace.size(); ++i)
      EXPECT_TRUE(on.trace[i].plan == 0 || on.trace[i].plan == 1);
    // Every fold names the schedule its row exchange was charged with; a
    // one-node row never leaves the node, so it is always direct.
    int direct = 0, bruck = 0;
    for (int r = 0; r < e.cluster().nranks(); ++r)
      for (const auto& ev : tr->track(r)) {
        if (!ev.is_span() || ev.name != "2d.fold") continue;
        const bool is_direct =
            ev.args.find("\"sched\":\"direct\"") != std::string::npos;
        const bool is_bruck =
            ev.args.find("\"sched\":\"bruck\"") != std::string::npos;
        EXPECT_NE(is_direct, is_bruck) << ev.args;
        direct += is_direct;
        bruck += is_bruck;
      }
    EXPECT_GT(direct, 0);
    if (opt.nodes == 2)
      EXPECT_EQ(bruck, 0);
    else
      EXPECT_GT(bruck, 0);
  }
  EXPECT_GT(plan_spans[0], 0);
  EXPECT_GT(plan_spans[1], 0);
}

// ---------------------------------------------------------------------------
// Query-engine integration
// ---------------------------------------------------------------------------

TEST(ObsEngine, BatchRunCoverageAndHostEvents) {
  Experiment e(bundle12(), shape(2, 2));
  auto tr = std::make_shared<obs::Tracer>(e.cluster().nranks(),
                                          e.cluster().ppn());
  e.cluster().set_tracer(tr);

  engine::WorkloadSpec ws;
  ws.num_queries = 4;
  ws.seed = 9;
  ws.mean_interarrival_ns = 0;  // one concurrent burst -> a single wave
  const auto qs = engine::QueryEngine::generate(e.dist(), ws);
  engine::EngineConfig ec;
  ec.max_batch = engine::kMaxLanes;
  engine::QueryEngine eng(e.cluster(), e.dist(), bfs::par_allgather(), ec);
  const engine::EngineReport rep = eng.serve(qs);
  e.cluster().set_tracer(nullptr);
  ASSERT_EQ(rep.waves, 1);

  // Rank tracks: kCatTime spans cover >= 95% of each rank's active
  // interval (one wave, so the interval has no between-wave idle gaps).
  for (int rank = 0; rank < e.cluster().nranks(); ++rank) {
    double lo = 0, hi = 0, covered = 0;
    bool first = true;
    for (const auto& ev : tr->track(rank)) {
      // By content: sanitizer builds do not merge equal string literals.
      if (!ev.is_span() || std::string_view(ev.cat) != obs::kCatTime) continue;
      lo = first ? ev.ts_ns : std::min(lo, ev.ts_ns);
      hi = std::max(hi, ev.ts_ns + ev.dur_ns);
      covered += ev.dur_ns;
      first = false;
    }
    ASSERT_FALSE(first) << "rank " << rank << " emitted no time spans";
    EXPECT_GE(covered, 0.95 * (hi - lo)) << "rank " << rank;
  }

  // Host track: every admission, one batch formation, one wave span whose
  // extent matches the report's makespan.
  int admits = 0, batches = 0;
  double wave_end = 0;
  for (const auto& ev : tr->track(tr->host_track())) {
    if (ev.name == "admit") ++admits;
    if (ev.name == "batch.form") ++batches;
    if (ev.is_span() && ev.name.rfind("wave ", 0) == 0)
      wave_end = ev.ts_ns + ev.dur_ns;
  }
  EXPECT_EQ(admits, ws.num_queries);
  EXPECT_EQ(batches, 1);
  EXPECT_DOUBLE_EQ(wave_end, rep.total_ns);
  // The exported JSON carries the engine annotations.
  const std::string j = tr->chrome_json();
  EXPECT_NE(j.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(j.find("mslevel "), std::string::npos);
}

// ---------------------------------------------------------------------------
// MS-BFS trace invariants
// ---------------------------------------------------------------------------

std::vector<engine::WaveQuery> wave_queries(const GraphBundle& b, int n) {
  std::vector<engine::WaveQuery> qs;
  for (int i = 0; i < n; ++i) {
    engine::WaveQuery q;
    q.source = b.roots[static_cast<std::size_t>(i) % b.roots.size()];
    qs.push_back(q);
  }
  return qs;
}

TEST(ObsMsBfs, OneLevelSpanPerLevelAndMonotoneRetirements) {
  Experiment e(bundle12(), shape(2, 2));
  auto tr = std::make_shared<obs::Tracer>(e.cluster().nranks(),
                                          e.cluster().ppn());
  e.cluster().set_tracer(tr);
  engine::WaveState st(e.dist(), bfs::original(), 2, 2);
  const auto qs = wave_queries(bundle12(), 6);
  const engine::WaveResult r =
      engine::run_wave(e.cluster(), e.dist(), st, qs);
  e.cluster().set_tracer(nullptr);

  for (int rank = 0; rank < e.cluster().nranks(); ++rank) {
    int mslevels = 0;
    for (const auto& ev : tr->track(rank))
      if (ev.is_span() && ev.name.rfind("mslevel ", 0) == 0) ++mslevels;
    EXPECT_EQ(mslevels, r.levels) << "rank " << rank;
  }

  // Lane retirements (recorder-only instants) are monotone in virtual time
  // and account for every lane exactly once.
  std::vector<double> retire_ts;
  std::vector<bool> seen(qs.size(), false);
  for (int t = 0; t <= tr->host_track(); ++t) {
    for (const auto& ev : tr->track(t)) {
      if (ev.name != "lane.retire") continue;
      retire_ts.push_back(ev.ts_ns);
      const auto pos = ev.args.find("\"lane\":");
      ASSERT_NE(pos, std::string::npos);
      const int lane = std::stoi(ev.args.substr(pos + 7));
      ASSERT_GE(lane, 0);
      ASSERT_LT(lane, static_cast<int>(qs.size()));
      EXPECT_FALSE(seen[static_cast<std::size_t>(lane)]) << "lane " << lane;
      seen[static_cast<std::size_t>(lane)] = true;
    }
  }
  ASSERT_EQ(retire_ts.size(), qs.size());
  EXPECT_TRUE(std::is_sorted(retire_ts.begin(), retire_ts.end()));
}

TEST(ObsMsBfs, CrashRecoveryEmitsRollbackSpan) {
  Experiment e(bundle12(), shape(2, 2));
  e.cluster().set_fault_injector(std::make_shared<faults::FaultInjector>(
      faults::FaultPlan::parse("seed:11,crash:rank=1@level=2"),
      e.cluster().nranks(), e.cluster().ppn()));
  auto tr = std::make_shared<obs::Tracer>(e.cluster().nranks(),
                                          e.cluster().ppn());
  e.cluster().set_tracer(tr);
  engine::WaveState st(e.dist(), bfs::original(), 2, 2);
  const engine::WaveResult r =
      engine::run_wave(e.cluster(), e.dist(), st, wave_queries(bundle12(), 4));
  e.cluster().set_tracer(nullptr);
  e.cluster().set_fault_injector(nullptr);
  ASSERT_GT(r.recoveries, 0);
  int rollbacks = 0;
  for (const auto& ev : tr->track(0))
    if (ev.is_span() && ev.name == "recovery.rollback") ++rollbacks;
  EXPECT_GE(rollbacks, 1);
}

TEST(ObsMsBfs, EventStreamIsDeterministic) {
  Experiment e(bundle12(), shape(2, 2));
  auto tr = std::make_shared<obs::Tracer>(e.cluster().nranks(),
                                          e.cluster().ppn());
  e.cluster().set_tracer(tr);
  engine::WaveState st(e.dist(), bfs::original(), 2, 2);
  const auto qs = wave_queries(bundle12(), 6);
  engine::run_wave(e.cluster(), e.dist(), st, qs);
  std::vector<std::vector<obs::TraceEvent>> first;
  for (int t = 0; t <= tr->host_track(); ++t) first.push_back(tr->track(t));
  tr->clear();
  engine::run_wave(e.cluster(), e.dist(), st, qs);
  e.cluster().set_tracer(nullptr);
  for (int t = 0; t <= tr->host_track(); ++t) {
    const auto& a = first[static_cast<std::size_t>(t)];
    const auto& b = tr->track(t);
    ASSERT_EQ(a.size(), b.size()) << "track " << t;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].name, b[i].name) << "track " << t << " event " << i;
      EXPECT_EQ(a[i].ts_ns, b[i].ts_ns) << "track " << t << " event " << i;
      EXPECT_EQ(a[i].dur_ns, b[i].dur_ns) << "track " << t << " event " << i;
      EXPECT_EQ(a[i].args, b[i].args) << "track " << t << " event " << i;
    }
  }
}

}  // namespace
}  // namespace numabfs
