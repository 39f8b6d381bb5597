/// \file test_compound_faults.cpp
/// Compound failures: multiple rank crashes in one traversal, a crash
/// landing during another rank's recovery, and crashes stacked with link
/// degradation on the same node. Every scenario must still produce the
/// reference answer — chaos shows up as virtual time, never as wrong
/// distances — and replay bit-identically. The fault-protocol matrix runs
/// every driver of the shared level loop (1-D and 2-D BFS, MS-BFS wave, the
/// four frontier programs) under every crash pattern. Also pins the
/// parse-time validation contract for contradictory or unreachable plans.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/hybrid.hpp"
#include "bfs2d/bfs2d.hpp"
#include "engine/msbfs.hpp"
#include "engine/programs.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/reference_bfs.hpp"
#include "graph/validate.hpp"
#include "harness/graph500.hpp"

namespace numabfs {
namespace {

using faults::FaultPlan;
using harness::Experiment;
using harness::ExperimentOptions;
using harness::GraphBundle;

ExperimentOptions shape(int nodes, int ppn) {
  ExperimentOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  return o;
}

void attach(Experiment& e, const std::string& spec) {
  e.cluster().set_fault_injector(std::make_shared<faults::FaultInjector>(
      FaultPlan::parse(spec), e.cluster().nranks(), e.cluster().ppn()));
}

/// One validated hybrid-BFS run: tree validates against the CSR and the
/// visited/edge counts match.
void expect_valid_run(Experiment& e, const bfs::Config& cfg,
                      bfs::BfsRunResult* out = nullptr) {
  const GraphBundle& b = e.bundle();
  const graph::Vertex root = b.roots[0];
  const auto [res, parent] = e.run_validated(cfg, root);
  const auto v = graph::validate_bfs_tree(b.csr, root, parent);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(res.visited, v.visited);
  if (out != nullptr) *out = res;
}

// ---------------------------------------------------------------------------
// Parse-time validation of contradictory / unreachable plans
// ---------------------------------------------------------------------------

TEST(FaultPlanValidation, RejectsDuplicateCrashOfOneRank) {
  EXPECT_THROW(FaultPlan::parse("crash:rank=1@level=2,crash:rank=1@level=4"),
               std::invalid_argument);
  // Distinct ranks are fine, even at the same level.
  EXPECT_NO_THROW(FaultPlan::parse("crash:rank=1@level=2,crash:rank=2@level=2"));
}

TEST(FaultPlanValidation, RejectsImplausibleCrashLevel) {
  EXPECT_NO_THROW(FaultPlan::parse("crash:rank=0@level=100"));
  EXPECT_THROW(
      FaultPlan::parse("crash:rank=0@level=" +
                       std::to_string(faults::kMaxPlausibleCrashLevel + 1)),
      std::invalid_argument);
}

TEST(FaultPlanValidation, RejectsEmptyActivityWindows) {
  EXPECT_THROW(FaultPlan::parse("drop:prob=0.1@from=5e6@until=5e6"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("straggle:rank=0@factor=2@from=9e6@until=1e6"),
               std::invalid_argument);
}

TEST(FaultPlanValidation, OutageParsesAndRejectsContradictions) {
  const FaultPlan p = FaultPlan::parse("outage:at=5e6");
  EXPECT_DOUBLE_EQ(p.outage_at_ns(), 5e6);
  EXPECT_EQ(FaultPlan::parse("drop:prob=0.1").outage_at_ns(),
            std::numeric_limits<double>::infinity());
  EXPECT_THROW(FaultPlan::parse("outage:at=1e6,outage:at=2e6"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("outage:at=-5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("outage:now"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Compound crashes in the hybrid BFS
// ---------------------------------------------------------------------------

TEST(CompoundFaults, TwoRankCrashesInOneRunStillValidate) {
  const GraphBundle b = GraphBundle::make(12, 16, 42, 4);
  Experiment e(b, shape(2, 4));
  attach(e, "seed:7,crash:rank=1@level=2,crash:rank=5@level=3");

  bfs::BfsRunResult r1, r2;
  expect_valid_run(e, bfs::share_all(), &r1);
  EXPECT_EQ(r1.ranks_lost, 2);
  EXPECT_GE(r1.recoveries, 2);

  expect_valid_run(e, bfs::share_all(), &r2);
  EXPECT_EQ(r1.time_ns, r2.time_ns);
  EXPECT_EQ(r1.recoveries, r2.recoveries);

  // Two losses cost more than one, which costs more than none.
  attach(e, "seed:7,crash:rank=1@level=2");
  bfs::BfsRunResult one;
  expect_valid_run(e, bfs::share_all(), &one);
  e.cluster().set_fault_injector(nullptr);
  bfs::BfsRunResult clean;
  expect_valid_run(e, bfs::share_all(), &clean);
  EXPECT_GT(r1.time_ns, one.time_ns);
  EXPECT_GT(one.time_ns, clean.time_ns);
}

TEST(CompoundFaults, CrashDuringAnotherRanksRecoveryValidates) {
  // Both ranks die entering the same level: the second death lands while
  // the survivors are already rolling back for the first. Adoption must
  // chain (possibly the same adopter takes both partitions).
  const GraphBundle b = GraphBundle::make(12, 16, 42, 4);
  Experiment e(b, shape(2, 4));
  attach(e, "seed:9,crash:rank=2@level=2,crash:rank=3@level=2");
  bfs::BfsRunResult r;
  expect_valid_run(e, bfs::share_all(), &r);
  EXPECT_EQ(r.ranks_lost, 2);
  EXPECT_GE(r.recoveries, 1);

  // Recorder + a same-node neighbor at the same level: bookkeeping hand-off
  // happens while a second adoption is in flight.
  attach(e, "seed:9,crash:rank=0@level=1,crash:rank=1@level=1");
  expect_valid_run(e, bfs::original(), &r);
  EXPECT_EQ(r.ranks_lost, 2);
}

TEST(CompoundFaults, CrashPlusLinkDegradeOnSameNodeValidates) {
  // Node 0 loses a rank AND runs its NIC at quarter bandwidth: the adopter
  // of the dead partition sits behind the degraded link.
  const GraphBundle b = GraphBundle::make(12, 16, 42, 4);
  Experiment e(b, shape(2, 4));
  attach(e, "seed:5,crash:rank=1@level=2,degrade:node=0@factor=0.25");
  bfs::BfsRunResult both1, both2;
  expect_valid_run(e, bfs::share_all(), &both1);
  EXPECT_EQ(both1.ranks_lost, 1);
  expect_valid_run(e, bfs::share_all(), &both2);
  EXPECT_EQ(both1.time_ns, both2.time_ns);

  // The stacked faults cost more than the crash alone.
  attach(e, "seed:5,crash:rank=1@level=2");
  bfs::BfsRunResult crash_only;
  expect_valid_run(e, bfs::share_all(), &crash_only);
  EXPECT_GT(both1.time_ns, crash_only.time_ns);
}

// ---------------------------------------------------------------------------
// Compound crashes under the MS-BFS wave engine
// ---------------------------------------------------------------------------

TEST(CompoundFaults, WaveSurvivesTwoCrashesAndMatchesReference) {
  const GraphBundle b = GraphBundle::make(10, 16, 7, 16);
  Experiment e(b, shape(2, 2));
  attach(e, "seed:11,crash:rank=1@level=2,crash:rank=2@level=3");

  engine::WaveState ws(e.dist(), bfs::share_all(), 2, 2, false);
  std::vector<engine::WaveQuery> qs;
  for (int i = 0; i < 4; ++i)
    qs.push_back({engine::QueryKind::full_distances,
                  b.roots[static_cast<std::size_t>(i)], 0, 0});
  const engine::WaveResult wr = engine::run_wave(e.cluster(), e.dist(), ws, qs);
  EXPECT_EQ(wr.ranks_lost, 2);
  EXPECT_GE(wr.recoveries, 2);
  for (std::size_t l = 0; l < qs.size(); ++l) {
    ASSERT_TRUE(wr.lanes[l].finished);
    const auto ref = graph::reference_bfs(b.csr, qs[l].source);
    const auto dist =
        engine::gather_lane_distances(e.dist(), ws, static_cast<int>(l));
    for (graph::Vertex v = 0; v < b.csr.num_vertices(); ++v) {
      if (ref.reached(v))
        ASSERT_EQ(dist[v], ref.depth[v]);
      else
        ASSERT_EQ(dist[v], engine::kUnreached);
    }
  }

  // Bit-deterministic replay, wave edition.
  engine::WaveState ws2(e.dist(), bfs::share_all(), 2, 2, false);
  const engine::WaveResult wr2 =
      engine::run_wave(e.cluster(), e.dist(), ws2, qs);
  EXPECT_EQ(wr.wave_ns, wr2.wave_ns);
  EXPECT_EQ(wr.recoveries, wr2.recoveries);
}

// ---------------------------------------------------------------------------
// Fault-protocol matrix: every level-loop driver under every crash pattern
// ---------------------------------------------------------------------------

enum class Driver {
  bfs_1d,
  bfs_2d,
  wave,
  sssp,
  pagerank,
  components,
  triangles
};

const char* to_string(Driver d) {
  switch (d) {
    case Driver::bfs_1d: return "Bfs1d";
    case Driver::bfs_2d: return "Bfs2d";
    case Driver::wave: return "Wave";
    case Driver::sssp: return "Sssp";
    case Driver::pagerank: return "PageRank";
    case Driver::components: return "Components";
    case Driver::triangles: return "Triangles";
  }
  return "?";
}

/// Crash patterns on 2 nodes x 2 ranks; crash levels count from the first
/// kernel. Rank 0 is the recorder until it dies.
struct Plan {
  const char* name;
  const char* spec;
};
constexpr Plan kPlans[] = {
    {"RecorderDiesBeforeAnyKernel", "crash:rank=0@level=0"},
    {"RankDiesBeforeAnyKernel", "crash:rank=1@level=0"},
    {"RecorderDiesAtLevel1", "crash:rank=0@level=1"},
    {"WholeNodeLost", "crash:rank=2@level=1,crash:rank=3@level=1"},
    {"CrashesAtTwoLevels", "crash:rank=1@level=1,crash:rank=2@level=2"},
    {"Ranks0And1InOneLevel", "crash:rank=0@level=1,crash:rank=1@level=1"},
    {"CrashPastLastLevel", "crash:rank=1@level=200"},
};

/// What every driver reports, plus its answer in one comparable form:
/// the visited count (BFS), per-lane distances (wave), or the value array
/// and scalar answer (programs).
struct Outcome {
  double time_ns = 0;
  int levels = 0;
  int recoveries = 0;
  int ranks_lost = 0;
  std::vector<std::uint64_t> answer;
};

const GraphBundle& matrix_bundle() {
  static const GraphBundle b = GraphBundle::make(10, 16, 7, 4);
  return b;
}

/// One run of `d` on `e`, checking the answers that have a reference:
/// BFS trees validate and wave lanes match reference_bfs.
Outcome run_driver(Driver d, Experiment& e) {
  const GraphBundle& b = e.bundle();
  Outcome o;
  const auto take = [&o](const auto& r, double time_ns) {
    o.time_ns = time_ns;
    o.levels = r.levels;
    o.recoveries = r.recoveries;
    o.ranks_lost = r.ranks_lost;
  };
  switch (d) {
    case Driver::bfs_1d: {
      const auto [r, parent] = e.run_validated(bfs::share_all(), b.roots[0]);
      const auto v = graph::validate_bfs_tree(b.csr, b.roots[0], parent);
      EXPECT_TRUE(v.ok) << v.error;
      take(r, r.time_ns);
      o.answer = {r.visited};
      break;
    }
    case Driver::bfs_2d: {
      const auto grid = bfs2d::Grid2d::make(b.csr.num_vertices(), 4, 2);
      const auto d2 = bfs2d::DistGraph2d::build(b.csr, grid);
      std::vector<graph::Vertex> parent;
      const auto r = bfs2d::run_bfs_2d(e.cluster(), d2, b.roots[0], &parent);
      const auto v = graph::validate_bfs_tree(b.csr, b.roots[0], parent);
      EXPECT_TRUE(v.ok) << v.error;
      take(r, r.time_ns);
      o.answer = {r.visited};
      break;
    }
    case Driver::wave: {
      engine::WaveState ws(e.dist(), bfs::share_all(), 2, 2, false);
      std::vector<engine::WaveQuery> qs;
      for (const graph::Vertex s : b.roots)
        qs.push_back({engine::QueryKind::full_distances, s, 0, 0});
      const engine::WaveResult r =
          engine::run_wave(e.cluster(), e.dist(), ws, qs);
      take(r, r.wave_ns);
      for (std::size_t l = 0; l < qs.size(); ++l) {
        EXPECT_TRUE(r.lanes[l].finished) << "lane " << l;
        const auto ref = graph::reference_bfs(b.csr, qs[l].source);
        const auto dist =
            engine::gather_lane_distances(e.dist(), ws, static_cast<int>(l));
        for (graph::Vertex v = 0; v < b.csr.num_vertices(); ++v) {
          EXPECT_EQ(dist[v], ref.reached(v) ? ref.depth[v] : engine::kUnreached)
              << "lane " << l << " vertex " << v;
          o.answer.push_back(dist[v]);
        }
      }
      break;
    }
    default: {
      const auto w = d == Driver::sssp       ? engine::ProgramWorkload::sssp
                     : d == Driver::pagerank ? engine::ProgramWorkload::pagerank
                     : d == Driver::components
                         ? engine::ProgramWorkload::components
                         : engine::ProgramWorkload::triangles;
      const auto prog = engine::make_program(w, e.dist(), {});
      engine::ProgramState ps(e.dist(), bfs::share_all(), 2, 2,
                              prog->with_values());
      const engine::ProgramResult r = engine::run_program(
          e.cluster(), e.dist(), ps, *prog, {b.roots[0], b.roots[1]});
      EXPECT_TRUE(r.converged);
      take(r, r.total_ns);
      o.answer = engine::gather_values(e.dist(), ps);
      o.answer.push_back(std::bit_cast<std::uint64_t>(r.value));
      break;
    }
  }
  return o;
}

class FaultMatrix : public ::testing::TestWithParam<std::tuple<Driver, int>> {
};

TEST_P(FaultMatrix, RecoversToTheFaultFreeRun) {
  const auto [driver, plan_ix] = GetParam();
  const Plan& plan = kPlans[plan_ix];
  Experiment e(matrix_bundle(), shape(2, 2));
  const Outcome clean = run_driver(driver, e);
  const auto faulted = [&] {
    attach(e, plan.spec);  // fresh injector: reruns start from equal state
    const Outcome o = run_driver(driver, e);
    e.cluster().set_fault_injector(nullptr);
    return o;
  };
  const Outcome got = faulted();
  const Outcome again = faulted();

  EXPECT_EQ(got.answer, clean.answer);
  EXPECT_EQ(got.levels, clean.levels);
  // Every crash on a level the run reaches happens and is recovered from.
  const faults::FaultInjector inj(FaultPlan::parse(plan.spec), 4, 2);
  int lost = 0;
  for (int r = 0; r < 4; ++r)
    lost += inj.crash_level(r) >= 0 && inj.crash_level(r) < clean.levels;
  EXPECT_EQ(got.ranks_lost, lost);
  EXPECT_EQ(got.recoveries > 0, lost > 0);
  // Bit-identical replay.
  EXPECT_EQ(again.time_ns, got.time_ns);
  EXPECT_EQ(again.answer, got.answer);
  EXPECT_EQ(again.recoveries, got.recoveries);
}

std::string driver_plan_name(
    const ::testing::TestParamInfo<FaultMatrix::ParamType>& ti) {
  return std::string(to_string(std::get<0>(ti.param))) + "_" +
         kPlans[std::get<1>(ti.param)].name;
}

INSTANTIATE_TEST_SUITE_P(
    Plans, FaultMatrix,
    ::testing::Combine(
        ::testing::Values(Driver::bfs_1d, Driver::bfs_2d, Driver::wave,
                          Driver::sssp, Driver::pagerank, Driver::components,
                          Driver::triangles),
        ::testing::Range(0, static_cast<int>(std::size(kPlans)))),
    driver_plan_name);

}  // namespace
}  // namespace numabfs
