// Pins the exact virtual time of every frontier exchange: the 1-D bitmap
// and list exchanges, the MS-BFS wave, two frontier programs (SSSP and
// components) and the 2-D input and fold legs. Each runs over the sharing
// ladder, the parallel allgather and the gated codec, fault-free, under a
// link-degrade window and across a rank crash. On the parallel plan the
// crash switches the exchange to the degraded leader plan.
//
// Each digest folds the run's virtual time, the time of every phase, the
// decode-overlap saving and the three byte counters, so any change to a
// plan choice, a wire-cost term or the order of two charges shows up here.
// The digests were recorded with one vector allreduce per level, owned by
// the level loop, and with codec gates that run no reductions beyond the
// bitmap gate's priced trial. Each allreduce is charged the cheaper of a
// flat recursive doubling and a node-aware dissemination
// (coll_model::allreduce_ns); under the paper scaling these runs use, that
// is the flat one. Over these runs' two nodes every two-port schedule of
// the 2-D collectives is one round of one message, so a last test pins a
// 16-node shape at physical alpha, where they run several rounds. The 2-D
// digests were recorded with level 0's inputs seeded from the root and
// every later level's built by the row plan wherever it can run (the
// column plan otherwise, and after the crash), under one gate; with the
// row plan's wire legs hidden under the level's stats reduction where the
// gate's pick needs no popcount (codec off here, counted in
// overlap_saved), and with no set-up reduction where the largest degree
// starts top-down. Under paper scaling the reductions are nearly free, so
// only the 16-node pin shows the hiding at size. The 1-D and wave digests
// were recorded on hub-first rows (dist_graph.hpp), which move bottom-up
// compute and the stall and time that follow it, never bytes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bfs/config.hpp"
#include "bfs2d/bfs2d.hpp"
#include "engine/msbfs.hpp"
#include "engine/programs.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/rmat.hpp"
#include "harness/graph500.hpp"

namespace numabfs {
namespace {

constexpr int kNodes = 2;
constexpr int kPpn = 4;

enum class Driver { bfs_1d, wave, sssp, components, bfs_2d };

const char* to_string(Driver d) {
  switch (d) {
    case Driver::bfs_1d: return "Bfs1d";
    case Driver::wave: return "Wave";
    case Driver::sssp: return "Sssp";
    case Driver::components: return "Components";
    case Driver::bfs_2d: return "Bfs2d";
  }
  return "?";
}

struct Fault {
  const char* name;
  const char* spec;  ///< empty: no injector
};
constexpr Fault kFaults[] = {
    {"NoFaults", ""},
    {"Degrade", "degrade:node=1@factor=0.5"},
    {"Crash", "crash:rank=1@level=1"},
};

/// The variants of every run over the 1-D partition: the Fig. 9 ladder and
/// the gated codec, plus the leader recursive-doubling library allgather
/// and a forced codec, which makes the 1-D bitmap exchange pay its decode
/// overlap.
std::vector<std::pair<const char*, bfs::Config>> one_d_configs() {
  bfs::Config rd = bfs::original();
  rd.base_algo = rt::AllgatherAlgo::leader_rd;
  bfs::Config forced = bfs::compressed(256, 4);
  forced.codec = bfs::CodecMode::force_dense;
  return {{"original", bfs::original()},
          {"share_in_queue", bfs::share_in_queue()},
          {"share_all", bfs::share_all()},
          {"par_allgather", bfs::par_allgather()},
          {"compressed", bfs::compressed(256, 4)},
          {"original_leader_rd", rd},
          {"forced_dense", forced}};
}

/// The 2-D variants: flat and node-aware collectives, then the codec at K=4.
std::vector<std::pair<const char*, bfs2d::Bfs2dOptions>> two_d_options() {
  bfs2d::Bfs2dOptions flat;
  bfs2d::Bfs2dOptions hier;
  hier.hier = rt::coll_model::HierLevel::node;
  bfs2d::Bfs2dOptions codec = hier;
  codec.codec = bfs::CodecMode::gate;
  codec.exchange_chunks = 4;
  return {{"flat", flat}, {"hier", hier}, {"hier_codec", codec}};
}

/// Folds the virtual time, every phase, the overlap saving and the byte
/// counters of one run. `what` collects the same values as hex floats for
/// the failure message.
std::uint64_t digest(double time_ns, const sim::PhaseProfile& prof,
                     std::string& what) {
  std::uint64_t h = 0;
  char buf[64];
  const auto fold_ns = [&](const char* name, double ns) {
    h = graph::splitmix64(h ^ std::bit_cast<std::uint64_t>(ns));
    std::snprintf(buf, sizeof buf, " %s=%a", name, ns);
    what += buf;
  };
  const auto fold_count = [&](const char* name, std::uint64_t n) {
    h = graph::splitmix64(h ^ n);
    what += std::string(" ") + name + "=" + std::to_string(n);
  };
  fold_ns("time", time_ns);
  for (int i = 0; i < static_cast<int>(sim::Phase::kCount); ++i) {
    const auto ph = static_cast<sim::Phase>(i);
    fold_ns(sim::to_string(ph), prof.get(ph));
  }
  fold_ns("overlap_saved", prof.overlap_saved_ns());
  const sim::Counters& c = prof.counters();
  fold_count("intra", c.bytes_intra_node);
  fold_count("inter", c.bytes_inter_node);
  fold_count("raw_equiv", c.bytes_raw_equiv);
  return h;
}

const harness::GraphBundle& bundle() {
  static const harness::GraphBundle b =
      harness::GraphBundle::make(11, 16, 7, 4);
  return b;
}

/// One run of `d` over the 1-D partition under `cfg`; returns its digest.
std::uint64_t run_one_d(Driver d, harness::Experiment& e,
                        const bfs::Config& cfg, std::string& what) {
  const harness::GraphBundle& b = e.bundle();
  switch (d) {
    case Driver::bfs_1d: {
      const auto r = e.run_validated(cfg, b.roots[0]).first;
      return digest(r.time_ns, r.profile_avg, what);
    }
    case Driver::wave: {
      engine::WaveState ws(e.dist(), cfg, kNodes, kPpn, false);
      std::vector<engine::WaveQuery> qs;
      for (const graph::Vertex s : b.roots)
        qs.push_back({engine::QueryKind::full_distances, s, 0, 0});
      const auto r = engine::run_wave(e.cluster(), e.dist(), ws, qs);
      return digest(r.wave_ns, r.profile_avg, what);
    }
    default: {
      const auto w = d == Driver::sssp ? engine::ProgramWorkload::sssp
                                       : engine::ProgramWorkload::components;
      const auto prog = engine::make_program(w, e.dist(), {});
      engine::ProgramState ps(e.dist(), cfg, kNodes, kPpn,
                              prog->with_values());
      const auto r = engine::run_program(e.cluster(), e.dist(), ps, *prog,
                                         {b.roots[0], b.roots[1]});
      return digest(r.total_ns, r.profile_avg, what);
    }
  }
}

/// Digests per driver (Driver order), fault (kFaults order) and variant
/// (one_d_configs or two_d_options order).
constexpr std::uint64_t kWant[5][3][7] = {
    // Bfs1d
    {
     {0xc44917dfcfe16af5ull, 0x2362ea0a2f5dd55cull, 0x3e66c7e5d8389220ull,
      0xb25fdf214379e755ull, 0xc6f72772f4d2466dull, 0x3e7a686ff7b8ed8aull,
      0x29d19401955877eeull},
     {0x9c140f602ec961caull, 0xb4fde456010909ddull, 0xd27f4ccb9e5df31ull,
      0x1241bcd3f9e36734ull, 0xc65fe9d35f09ef6full, 0xcb56fd570ec31275ull,
      0x726c2ef7046e14f0ull},
     {0x809d086a91623684ull, 0x8a4ff74bac3f012dull, 0xc018d54e3c07ace9ull,
      0xc018d54e3c07ace9ull, 0xceed0a49326d8514ull, 0xd88f35a42f749c40ull,
      0x80ba63e13078e12eull},
    },
    // Wave
    {
     {0x203e07e291c3d675ull, 0xbd0ce1c5ebaef3ceull, 0xce39396a66aa7e18ull,
      0xa4af5e4a900e4568ull, 0x7edcf1cb42a68efull, 0x748ef155b55554d8ull,
      0x7edcf1cb42a68efull},
     {0x50f346edfc5fd5c2ull, 0x1bf16394ec069e6eull, 0xd790c96584bdcc70ull,
      0xf41b322aae948fd3ull, 0xd89617edb4b1914eull, 0xe254c1375c7191cdull,
      0xd89617edb4b1914eull},
     {0x1abb154864d9733aull, 0xb4df426986009551ull, 0xf551ae5f47db7b1dull,
      0x4c5520f463b5c1ull, 0x2f4af9278b3ef075ull, 0xe20f513f9936352eull,
      0x2f4af9278b3ef075ull},
    },
    // Sssp
    {
     {0x6250127d2df06f6full, 0x7edfa146b6f1f710ull, 0x3ad6a0189978b23aull,
      0xb3f694c9ee01828bull, 0x510cd6265d686e5full, 0x2f3394306eafcb5cull,
      0x510cd6265d686e5full},
     {0xca08ba833d7548dfull, 0xe7e746edbfe89bbbull, 0xca8f65d95e1bfa46ull,
      0xb984bb139b56422aull, 0xe2a89dcae0654606ull, 0xd4688b54d9f6dc69ull,
      0xe2a89dcae0654606ull},
     {0x98503633b58a0154ull, 0xda5405c1bbf0709aull, 0x9199101a7d381933ull,
      0x379b4f501c11adefull, 0xdb60d71222a1bb9aull, 0xa61e03cf83759c98ull,
      0xdb60d71222a1bb9aull},
    },
    // Components
    {
     {0x93dc2adf938d3e1bull, 0x3d486b4222ea99e2ull, 0x98fc638fffaa8f7dull,
      0xc7e42a634658a9c4ull, 0xb64dbdf30c1d06f9ull, 0x18018dcb8e4053b0ull,
      0xb64dbdf30c1d06f9ull},
     {0x72443b3bfbe7fcd5ull, 0xfd6c9d6ce44a7215ull, 0xe53648b4196ba3abull,
      0x438a242ccd8cda45ull, 0xb5375cd8fe6f6561ull, 0x820a70c3f48b8424ull,
      0xb5375cd8fe6f6561ull},
     {0x561ee16e09571154ull, 0xdaf9e9df3d19eaefull, 0xd54fe0ad62916e9eull,
      0xb14eeb8e66531ce4ull, 0x10f7e613b9fb378dull, 0xfa1a1ab745d07460ull,
      0x10f7e613b9fb378dull},
    },
    // Bfs2d. At 2 nodes x 4 a 2 x 4 grid's rows lie within one node, where
    // the node-aware row allgather is the flat ring, so hier equals flat.
    {
     {0x2135e1084097e3c7ull, 0x2135e1084097e3c7ull, 0x0ed8fee8f0e580e7ull},
     {0x2b8a4e9f4a8c2093ull, 0x2b8a4e9f4a8c2093ull, 0x79509f3cb587e400ull},
     {0xefea47bd514dc5d0ull, 0xefea47bd514dc5d0ull, 0xd7a1a48c8b0d8e6eull},
    },
};

class ExchangePins
    : public ::testing::TestWithParam<std::tuple<Driver, int>> {};

TEST_P(ExchangePins, VirtualTimeIsUnchanged) {
  const auto [driver, fault_ix] = GetParam();
  const Fault& fault = kFaults[fault_ix];
  harness::ExperimentOptions opt;
  opt.nodes = kNodes;
  opt.ppn = kPpn;
  harness::Experiment e(bundle(), opt);
  const auto attach = [&] {
    if (*fault.spec == '\0') return;
    e.cluster().set_fault_injector(std::make_shared<faults::FaultInjector>(
        faults::FaultPlan::parse(fault.spec), e.cluster().nranks(),
        e.cluster().ppn()));
  };
  const auto expect = [&](int variant, const char* name, std::uint64_t got,
                          const std::string& what) {
    const std::uint64_t want =
        kWant[static_cast<int>(driver)][fault_ix][variant];
    EXPECT_EQ(got, want) << to_string(driver) << "/" << name << "/"
                         << fault.name << " digest 0x" << std::hex << got
                         << "ull:" << what;
  };

  if (driver == Driver::bfs_2d) {
    const harness::GraphBundle& b = e.bundle();
    const auto grid =
        bfs2d::Grid2d::make(b.csr.num_vertices(), kNodes * kPpn, kPpn);
    const auto d2 = bfs2d::DistGraph2d::build(b.csr, grid);
    int i = 0;
    for (const auto& [name, o] : two_d_options()) {
      attach();  // a fresh injector per run: crashes replay from the start
      const auto r =
          bfs2d::run_bfs_2d(e.cluster(), d2, b.roots[0], nullptr, o);
      std::string what;
      expect(i++, name, digest(r.time_ns, r.profile_avg, what), what);
    }
    return;
  }
  int i = 0;
  for (const auto& [name, cfg] : one_d_configs()) {
    attach();
    std::string what;
    const std::uint64_t got = run_one_d(driver, e, cfg, what);
    expect(i++, name, got, what);
  }
}

std::string pin_name(
    const ::testing::TestParamInfo<ExchangePins::ParamType>& ti) {
  return std::string(to_string(std::get<0>(ti.param))) + "_" +
         kFaults[std::get<1>(ti.param)].name;
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, ExchangePins,
    ::testing::Combine(
        ::testing::Values(Driver::bfs_1d, Driver::wave, Driver::sssp,
                          Driver::components, Driver::bfs_2d),
        ::testing::Range(0, static_cast<int>(std::size(kFaults)))),
    pin_name);

/// Digests of the multi-round shape below: 1-D share_all, then 2-D hier.
constexpr std::uint64_t kWantWide[2] = {0xe284ea89825e4b85ull,
                                         0x53a96e10730d5429ull};

TEST(ExchangePins, MultiRoundShapeIsUnchanged) {
  // 16 nodes x 4 at physical alpha: the world reduction is the node-aware
  // dissemination over 16 leaders (three two-port rounds), and the 8 x 8
  // grid's 8-node columns and 2-node rows run the two-port Bruck
  // concatenation and index exchange for more than one round.
  harness::ExperimentOptions opt;
  opt.nodes = 16;
  opt.ppn = kPpn;
  opt.paper_cache_scaling = false;
  harness::Experiment e(bundle(), opt);
  const harness::GraphBundle& b = e.bundle();

  std::string what_1d;
  const auto r1 = e.run_validated(bfs::share_all(), b.roots[0]).first;
  const std::uint64_t got_1d = digest(r1.time_ns, r1.profile_avg, what_1d);
  EXPECT_EQ(got_1d, kWantWide[0])
      << "Bfs1d/share_all/16x4 digest 0x" << std::hex << got_1d
      << "ull:" << what_1d;

  const auto grid = bfs2d::Grid2d::make(b.csr.num_vertices(),
                                        e.cluster().nranks(), kPpn);
  ASSERT_EQ(grid.rows(), 8);
  ASSERT_EQ(grid.cols(), 8);
  const auto d2 = bfs2d::DistGraph2d::build(b.csr, grid);
  bfs2d::Bfs2dOptions hier;
  hier.hier = rt::coll_model::HierLevel::node;
  const auto r2 = bfs2d::run_bfs_2d(e.cluster(), d2, b.roots[0], nullptr, hier);
  std::string what_2d;
  const std::uint64_t got_2d = digest(r2.time_ns, r2.profile_avg, what_2d);
  EXPECT_EQ(got_2d, kWantWide[1])
      << "Bfs2d/hier/16x4 digest 0x" << std::hex << got_2d
      << "ull:" << what_2d;
}

}  // namespace
}  // namespace numabfs
