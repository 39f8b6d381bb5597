/// Tests for the self-tuning layer (DESIGN.md §15): the knob arbiter and
/// trailing-window estimators, the coordinate-descent profile search, the
/// TunedProfile JSON round-trip, the expanded config validation, and the
/// online controllers' determinism / zero-perturbation contracts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/hybrid.hpp"
#include "bfs2d/bfs2d.hpp"
#include "engine/engine.hpp"
#include "engine/frontdoor.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "harness/graph500.hpp"
#include "tune/controller.hpp"
#include "tune/profile.hpp"
#include "tune/search.hpp"

namespace numabfs {
namespace {

using harness::Experiment;
using harness::ExperimentOptions;
using harness::GraphBundle;

// ---------------------------------------------------------------------------
// KnobArbiter / TrailingMean
// ---------------------------------------------------------------------------

TEST(KnobArbiter, HysteresisBlocksMarginalSwitch) {
  tune::KnobArbiter a(0, {0.15, 0});
  // 10% better than incumbent: inside the 15% margin, stay.
  const double marginal[] = {100.0, 90.0};
  EXPECT_EQ(a.decide(marginal), 0);
  EXPECT_EQ(a.switches(), 0);
  // 20% better: switch.
  const double clear[] = {100.0, 80.0};
  EXPECT_EQ(a.decide(clear), 1);
  EXPECT_EQ(a.switches(), 1);
}

TEST(KnobArbiter, DwellHoldsFreshChoice) {
  tune::KnobArbiter a(0, {0.1, 2});
  const double to1[] = {100.0, 50.0};
  EXPECT_EQ(a.decide(to1), 1);
  // Choice 0 is now far better, but the fresh switch dwells for 2 reviews.
  const double back[] = {10.0, 100.0};
  EXPECT_EQ(a.decide(back), 1);
  EXPECT_EQ(a.decide(back), 1);
  EXPECT_EQ(a.decide(back), 0);
  EXPECT_EQ(a.switches(), 2);
}

TEST(KnobArbiter, TiesAndEqualCostsNeverFlap) {
  tune::KnobArbiter a(0, {0.0, 0});
  const double equal[] = {5.0, 5.0, 5.0};
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.decide(equal), 0);
  EXPECT_EQ(a.switches(), 0);
}

TEST(TrailingMean, WindowedRatio) {
  tune::TrailingMean m(2);
  EXPECT_FALSE(m.ready());
  m.push(10.0, 1.0);
  EXPECT_TRUE(m.ready());
  m.push(20.0, 1.0);
  EXPECT_DOUBLE_EQ(m.rate(), 15.0);
  m.push(40.0, 1.0);  // evicts the 10; (20+40)/2
  EXPECT_DOUBLE_EQ(m.rate(), 30.0);
  EXPECT_EQ(m.samples(), 2);
}

TEST(DirectionController, FallsBackToBeamerUntilBothRatesReady) {
  tune::DirectionController d(2, {0.15, 0});
  // No history at all: static thresholds decide. mf > rem/alpha -> bu.
  EXPECT_EQ(d.decide(0, true, 10, 1000, 2000, 500, 4096, 14.0, 24.0), 1);
  EXPECT_EQ(d.switches(), 1);
  // Feed both directions history; the measured rates take over.
  d.observe(0, 1000.0, 1000, 0);  // td: 1 ns/edge
  d.observe(1, 100.0, 0, 1000);   // bu: 0.1 ns/unvisited
  // cost_td = 1*200 = 200 vs cost_bu = 0.1*100 = 10 -> bottom-up.
  EXPECT_EQ(d.decide(0, true, 10, 200, 4000, 100, 4096, 14.0, 24.0), 1);
}

// ---------------------------------------------------------------------------
// Coordinate descent
// ---------------------------------------------------------------------------

/// Separable concave objective with its peak at (3, 1, 2).
std::optional<double> bowl(const std::vector<int>& ix) {
  const double peaks[3] = {3.0, 1.0, 2.0};
  double s = 100.0;
  for (size_t d = 0; d < 3; ++d)
    s -= (ix[d] - peaks[d]) * (ix[d] - peaks[d]);
  return s;
}

TEST(CoordinateDescent, FindsSeparableOptimum) {
  const std::vector<tune::Dim> dims = {{"a", 6}, {"b", 4}, {"c", 5}};
  const auto r = tune::coordinate_descent(dims, bowl, {0, 0, 0});
  EXPECT_EQ(r.best, (std::vector<int>{3, 1, 2}));
  EXPECT_DOUBLE_EQ(r.best_score, 100.0);
  // Pruning keeps evaluations well under the 120-point grid.
  EXPECT_LT(r.evaluations, 40);
  EXPECT_GT(r.rounds, 0);
}

TEST(CoordinateDescent, DeterministicAcrossReruns) {
  const std::vector<tune::Dim> dims = {{"a", 6}, {"b", 4}, {"c", 5}};
  const auto r1 = tune::coordinate_descent(dims, bowl, {5, 3, 4});
  const auto r2 = tune::coordinate_descent(dims, bowl, {5, 3, 4});
  EXPECT_EQ(r1.best, r2.best);
  EXPECT_EQ(r1.best_score, r2.best_score);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
  EXPECT_EQ(r1.log, r2.log);
}

TEST(CoordinateDescent, SeedsGuaranteeAtLeastHandScore) {
  // An objective with a deceptive ridge: descent from {0,0} stalls at 50,
  // but the hand seed {4, 3} scores 90 — the result must keep it.
  const auto trap = [](const std::vector<int>& ix) -> std::optional<double> {
    if (ix[0] == 4 && ix[1] == 3) return 90.0;
    if (ix[0] == 0 && ix[1] == 0) return 50.0;
    return 10.0;
  };
  const std::vector<tune::Dim> dims = {{"a", 5}, {"b", 4}};
  const auto r = tune::coordinate_descent(dims, trap, {0, 0}, {{4, 3}});
  EXPECT_EQ(r.best, (std::vector<int>{4, 3}));
  EXPECT_DOUBLE_EQ(r.best_score, 90.0);
}

TEST(CoordinateDescent, InvalidPointsAreCountedAndAvoided) {
  const auto obj = [](const std::vector<int>& ix) -> std::optional<double> {
    if (ix[0] >= 3) return std::nullopt;  // invalid region
    return static_cast<double>(ix[0]);
  };
  const auto r = tune::coordinate_descent({{"a", 6}}, obj, {0});
  EXPECT_EQ(r.best, (std::vector<int>{2}));
  EXPECT_GE(r.invalid, 1);
}

TEST(CoordinateDescent, ThrowsWhenNoSeedIsValid) {
  const auto never = [](const std::vector<int>&) -> std::optional<double> {
    return std::nullopt;
  };
  EXPECT_THROW(tune::coordinate_descent({{"a", 3}}, never, {0}),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// TunedProfile JSON
// ---------------------------------------------------------------------------

tune::ProfileEntry sample_entry() {
  tune::ProfileEntry e;
  e.shape = {20, 16, 8, 4};
  e.objective = "harmonic_teps";
  e.score = 1.25e9;
  e.config = bfs::compressed(256, 4);
  e.config.base_algo = rt::AllgatherAlgo::leader_rd;
  e.config.alpha = 7.0;
  e.config.tune.adapt_direction = true;
  e.batch = 32;
  return e;
}

TEST(TunedProfile, JsonRoundTrip) {
  tune::TunedProfile p;
  p.entries.push_back(sample_entry());
  const tune::TunedProfile q = tune::TunedProfile::parse(p.json());
  ASSERT_EQ(q.entries.size(), 1u);
  const tune::ProfileEntry& e = q.entries[0];
  EXPECT_EQ(e.shape, (tune::ShapeKey{20, 16, 8, 4}));
  EXPECT_EQ(e.objective, "harmonic_teps");
  EXPECT_DOUBLE_EQ(e.score, 1.25e9);
  EXPECT_EQ(e.batch, 32);
  EXPECT_EQ(e.config.name(), p.entries[0].config.name());
  EXPECT_EQ(e.config.base_algo, rt::AllgatherAlgo::leader_rd);
  EXPECT_DOUBLE_EQ(e.config.alpha, 7.0);
  EXPECT_TRUE(e.config.tune.adapt_direction);
  EXPECT_EQ(e.config.tune.dwell, p.entries[0].config.tune.dwell);

  // Profiles written before the exchange tuner was removed carry its two
  // flags; the reader ignores them and loads the same entry.
  std::string old_text = p.json();
  const std::string key = "\"tune\": {";
  const std::size_t at = old_text.find(key);
  ASSERT_NE(at, std::string::npos);
  old_text.insert(at + key.size(),
                  "\"adapt_chunks\": true, \"adapt_allgather\": false, ");
  const tune::TunedProfile old = tune::TunedProfile::parse(old_text);
  ASSERT_EQ(old.entries.size(), 1u);
  EXPECT_EQ(old.json(), p.json());
}

TEST(TunedProfile, RejectsMalformedAndWrongSchema) {
  EXPECT_THROW(tune::TunedProfile::parse("{not json"), std::runtime_error);
  EXPECT_THROW(tune::TunedProfile::parse("{\"schema\": \"v0\", "
                                         "\"entries\": []}"),
               std::runtime_error);
  // A structurally valid profile whose config violates validate() (chunks
  // without a codec) must be rejected with the config's message.
  tune::TunedProfile p;
  tune::ProfileEntry e = sample_entry();
  e.config.codec = bfs::CodecMode::off;  // chunks stays 4: contradiction
  p.entries.push_back(e);
  const std::string text = p.json();
  try {
    tune::TunedProfile::parse(text);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("codec"), std::string::npos);
  }
}

TEST(TunedProfile, NearestPrefersClusterShape) {
  tune::TunedProfile p;
  tune::ProfileEntry small = sample_entry();
  small.shape = {13, 16, 2, 2};
  small.objective = "small";
  tune::ProfileEntry big = sample_entry();
  big.shape = {20, 16, 8, 4};
  big.objective = "big";
  p.entries = {small, big};

  // Exact match wins.
  EXPECT_EQ(p.nearest({20, 16, 8, 4})->objective, "big");
  // Same cluster shape, different scale: cluster shape dominates.
  EXPECT_EQ(p.nearest({15, 16, 8, 4})->objective, "big");
  EXPECT_EQ(p.nearest({16, 16, 2, 2})->objective, "small");
  EXPECT_EQ(tune::TunedProfile{}.nearest({13, 16, 2, 2}), nullptr);
}

TEST(TunedProfile, NearestBreaksDistanceTiesByShapeOrder) {
  // Two entries equidistant from the query (symmetric in log2 space around
  // it) must resolve by the documented ShapeKey total order — lexicographic
  // (nodes, ppn, scale, edgefactor), smallest first — not by the order the
  // entries happen to appear in the profile.
  tune::ProfileEntry lo = sample_entry();
  lo.shape = {15, 16, 2, 4};  // nodes one halving below the query
  lo.objective = "lo";
  tune::ProfileEntry hi = sample_entry();
  hi.shape = {15, 16, 8, 4};  // nodes one doubling above: same log2 distance
  hi.objective = "hi";
  const tune::ShapeKey q{15, 16, 4, 4};

  tune::TunedProfile fwd, rev;
  fwd.entries = {lo, hi};
  rev.entries = {hi, lo};
  ASSERT_NE(fwd.nearest(q), nullptr);
  // shape_less orders on nodes first: {.., 2, 4} < {.., 8, 4}.
  EXPECT_EQ(fwd.nearest(q)->objective, "lo");
  EXPECT_EQ(rev.nearest(q)->objective, "lo");
  EXPECT_TRUE(tune::shape_less(lo.shape, hi.shape));
  EXPECT_FALSE(tune::shape_less(hi.shape, lo.shape));
  EXPECT_FALSE(tune::shape_less(lo.shape, lo.shape));
}

TEST(TunedProfile, FileRoundTrip) {
  tune::TunedProfile p;
  p.entries.push_back(sample_entry());
  const std::string path = "test_tune_profile_tmp.json";
  p.write(path);
  const tune::TunedProfile q = tune::TunedProfile::load(path);
  EXPECT_EQ(q.json(), p.json());
  std::remove(path.c_str());
  EXPECT_THROW(tune::TunedProfile::load("does_not_exist.json"),
               std::runtime_error);
}

TEST(TunedProfile, ApplyCopiesOnlyTunedFields) {
  const tune::ProfileEntry e = sample_entry();
  bfs2d::Bfs2dOptions o;
  tune::apply(e, o);
  EXPECT_EQ(o.codec, bfs::CodecMode::gate);
  EXPECT_EQ(o.exchange_chunks, 4);
  EXPECT_DOUBLE_EQ(o.alpha, 7.0);
  EXPECT_EQ(o.summary_granularity, 256u);

  engine::EngineConfig ec;
  engine::FrontDoorConfig fdc;
  tune::apply(e, ec);
  tune::apply(e, fdc);
  EXPECT_EQ(ec.max_batch, 32);
  EXPECT_EQ(fdc.max_batch, 32);
  tune::ProfileEntry untouched = e;
  untouched.batch = 0;  // not tuned: leave the consumer's default alone
  engine::EngineConfig ec2;
  tune::apply(untouched, ec2);
  EXPECT_EQ(ec2.max_batch, engine::EngineConfig{}.max_batch);
}

// ---------------------------------------------------------------------------
// Config validation (satellite: contradictory knob combos)
// ---------------------------------------------------------------------------

TEST(ConfigValidation, ContradictoryCombosGetActionableMessages) {
  bfs::Config c;
  c.parallel_allgather = true;  // sharing == none: contradiction
  EXPECT_NE(c.validate().find("sharing"), std::string::npos);

  bfs::Config k = bfs::original();
  k.exchange_chunks = 4;  // codec off: nothing to pipeline
  EXPECT_NE(k.validate().find("codec"), std::string::npos);

  bfs::Config h = bfs::original();
  h.tune.hysteresis = 1.5;
  EXPECT_FALSE(h.validate().empty());
  h.tune.hysteresis = 0.15;
  h.tune.window = 0;
  EXPECT_FALSE(h.validate().empty());

  EXPECT_TRUE(bfs::compressed().validate().empty());
}

TEST(ConfigValidation, Bfs2dAndServingConfigs) {
  bfs2d::Bfs2dOptions o;
  o.exchange_chunks = 4;  // codec off
  EXPECT_NE(o.validate().find("codec"), std::string::npos);
  o.codec = bfs::CodecMode::gate;
  EXPECT_TRUE(o.validate().empty());

  engine::EngineConfig ec;
  ec.max_batch = 0;
  EXPECT_FALSE(ec.validate().empty());
  ec.max_batch = engine::kMaxLanes + 1;
  EXPECT_FALSE(ec.validate().empty());

  engine::FrontDoorConfig fdc;
  fdc.export_every = 0;
  EXPECT_FALSE(fdc.validate().empty());
  fdc.export_every = 1;
  fdc.est_window = 0;
  EXPECT_FALSE(fdc.validate().empty());
  fdc.est_window = 8;
  fdc.hb_period_ns = 0;
  EXPECT_FALSE(fdc.validate().empty());
}

TEST(ConfigValidation, DriversRejectInvalidConfigsUpFront) {
  const GraphBundle b = GraphBundle::make(10, 16, 1, 2);
  ExperimentOptions eo;
  eo.nodes = 2;
  eo.ppn = 2;
  Experiment e(b, eo);
  bfs::Config bad = bfs::original();
  bad.exchange_chunks = 4;
  EXPECT_THROW(
      {
        engine::EngineConfig ec;
        engine::QueryEngine qe(e.cluster(), e.dist(), bad, ec);
      },
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Online controllers: determinism, zero perturbation, tuned-vs-manual
// ---------------------------------------------------------------------------

void expect_identical(const bfs::BfsRunResult& a, const bfs::BfsRunResult& b) {
  EXPECT_EQ(a.time_ns, b.time_ns);  // bit-identical, not approximately
  EXPECT_EQ(a.visited, b.visited);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.directions, b.directions);
  EXPECT_EQ(a.tune_direction_switches, b.tune_direction_switches);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].exchange_codec, b.trace[i].exchange_codec);
    EXPECT_EQ(a.trace[i].wire_bytes, b.trace[i].wire_bytes);
  }
}

bfs::Config online_config() {
  bfs::Config c = bfs::compressed(64, 2);
  c.tune.adapt_direction = true;
  c.tune.window = 2;
  return c;
}

TEST(OnlineControl, DeterministicAcrossReruns) {
  const GraphBundle b = GraphBundle::make(12, 16, 3, 2);
  ExperimentOptions eo;
  eo.nodes = 2;
  eo.ppn = 2;
  Experiment e(b, eo);
  const bfs::Config cfg = online_config();
  const auto [r1, p1] = e.run_validated(cfg, b.roots[0]);
  const auto [r2, p2] = e.run_validated(cfg, b.roots[0]);
  expect_identical(r1, r2);
  EXPECT_EQ(p1, p2);

  // The sharing-none path too.
  bfs::Config none = bfs::original();
  none.tune.adapt_direction = true;
  const auto [n1, q1] = e.run_validated(none, b.roots[0]);
  const auto [n2, q2] = e.run_validated(none, b.roots[0]);
  expect_identical(n1, n2);
  EXPECT_EQ(q1, q2);
}

TEST(OnlineControl, DeterministicUnderFaultPlan) {
  const GraphBundle b = GraphBundle::make(12, 16, 3, 2);
  ExperimentOptions eo;
  eo.nodes = 2;
  eo.ppn = 2;
  Experiment e(b, eo);
  const bfs::Config cfg = online_config();
  const auto run_once = [&] {
    // Fresh injector per run: the plan's RNG state must not leak between
    // reruns for the bit-identity claim to mean anything.
    e.cluster().set_fault_injector(std::make_shared<faults::FaultInjector>(
        faults::FaultPlan::parse("seed:11,drop:prob=0.05,crash:rank=3@level=2"),
        e.cluster().nranks(), e.cluster().ppn()));
    return e.run_validated(cfg, b.roots[0]);
  };
  const auto [r1, p1] = run_once();
  const auto [r2, p2] = run_once();
  e.cluster().set_fault_injector(nullptr);
  expect_identical(r1, r2);
  EXPECT_EQ(p1, p2);
  EXPECT_GT(r1.recoveries, 0);  // the crash actually happened
}

TEST(OnlineControl, DisabledControllersPerturbNothing) {
  const GraphBundle b = GraphBundle::make(12, 16, 3, 2);
  ExperimentOptions eo;
  eo.nodes = 2;
  eo.ppn = 2;
  Experiment e(b, eo);
  // Same static knobs; wildly different controller *parameters* — with
  // every adapt flag off they must be inert (no extra allreduces, no state).
  bfs::Config plain = bfs::compressed(256, 4);
  bfs::Config params = plain;
  params.tune.window = 9;
  params.tune.hysteresis = 0.5;
  params.tune.dwell = 7;
  const auto [r1, p1] = e.run_validated(plain, b.roots[0]);
  const auto [r2, p2] = e.run_validated(params, b.roots[0]);
  expect_identical(r1, r2);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(r1.tune_direction_switches, 0);
}

TEST(OnlineControl, ProfileAppliedConfigMatchesManualBitForBit) {
  // A config rebuilt from a profile entry must produce the same run as the
  // hand-built original — the tuned-vs-manual equivalence satellite.
  tune::ProfileEntry pe;
  pe.shape = {12, 16, 2, 2};
  pe.objective = "harmonic_teps";
  pe.config = online_config();
  const tune::TunedProfile round =
      tune::TunedProfile::parse([&] {
        tune::TunedProfile p;
        p.entries.push_back(pe);
        return p.json();
      }());
  const bfs::Config from_profile = tune::to_bfs_config(round.entries[0]);

  const GraphBundle b = GraphBundle::make(12, 16, 3, 2);
  ExperimentOptions eo;
  eo.nodes = 2;
  eo.ppn = 2;
  Experiment e(b, eo);
  const auto [r1, p1] = e.run_validated(online_config(), b.roots[0]);
  const auto [r2, p2] = e.run_validated(from_profile, b.roots[0]);
  expect_identical(r1, r2);
  EXPECT_EQ(p1, p2);
}

TEST(OnlineControl, AdaptiveRunsStayCorrect) {
  // The controller may change directions freely; the traversal result
  // must still validate against the reference BFS tree on every root.
  const GraphBundle b = GraphBundle::make(12, 16, 5, 4);
  ExperimentOptions eo;
  eo.nodes = 2;
  eo.ppn = 2;
  Experiment e(b, eo);
  const bfs::Config cfg = online_config();
  for (const graph::Vertex root : b.roots)
    e.run_validated(cfg, root);  // run_validated asserts tree validity
  SUCCEED();
}

}  // namespace
}  // namespace numabfs
