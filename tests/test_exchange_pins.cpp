// Pins the exact virtual time of every frontier exchange: the 1-D bitmap
// and list exchanges, the MS-BFS wave, two frontier programs (SSSP and
// components) and the 2-D expand, fold and claim-return legs. Each runs
// over the sharing ladder, the parallel allgather and the gated codec,
// fault-free, under a link-degrade window and across a rank crash. On the
// parallel plan the crash switches the exchange to the degraded leader plan.
//
// Each digest folds the run's virtual time, the time of every phase, the
// decode-overlap saving and the three byte counters, so any change to a
// plan choice, a wire-cost term or the order of two charges shows up here.
// The digests were recorded with one vector allreduce per level, owned by
// the level loop, and with codec gates that run no reductions beyond the
// bitmap gate's priced trial.

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
     {0xc3869a5387c7da90ull, 0x1bd6a0dd8dd11c73ull, 0x4b6c023573ca43c8ull,
      0x1b56d3626cc20d8full, 0x43879363a25e10a3ull, 0xc0060dd56d7fc4fcull,
      0x731d3ebd436f7c4dull},
     {0xa9a1b0cad8c1a47aull, 0xb1eac9f392d28060ull, 0x12292101e000566eull,
      0x64c7b04f494a382eull, 0x4d60e3b7fda586f6ull, 0x5f05e8a5f720fce9ull,
      0x18ef7dbc381fed6bull},
     {0xfcf6563e580969a2ull, 0x91bdfb13529cedb2ull, 0x619e44708e5371full,
      0x619e44708e5371full, 0x67cdc28f9996f78dull, 0x491dcd176cf5f4a1ull,
      0xeb2aacb54109b9a1ull},
    },
    // Wave
    {
     {0xd3d599bd90491610ull, 0xa783832ea077a161ull, 0xd5acaf10278ab66full,
      0x8ec1c7f5c01444e4ull, 0xc2ab1052463ace40ull, 0xcacb65021c8ab4afull,
      0xc2ab1052463ace40ull},
     {0x63bc8db3b306f9a9ull, 0x8656369bf4dc9a0eull, 0x677fbeb02d4a75f3ull,
      0xe5a4371e400a3befull, 0x2a114ba7922d1aafull, 0x1544c2635752de37ull,
      0x2a114ba7922d1aafull},
     {0x91841a52d7d0b53eull, 0x81570145f4547fb7ull, 0xe1a74d4ba5d64b96ull,
      0xb807502382544990ull, 0xa0c9afaa109c3437ull, 0x1928cd7fbbbb67f7ull,
      0xa0c9afaa109c3437ull},
    },
    // Sssp
    {
     {0x4d594e675f466de6ull, 0x7b9b4e41ed50c1ddull, 0x199cb0cd8fee6bebull,
      0xc67d1ee645c1fccfull, 0xc67895441dcbfa8aull, 0x447bf5595a99924bull,
      0xc67895441dcbfa8aull},
     {0x216245d119d5b619ull, 0xbc1beee699f94635ull, 0x9d5bb7a5fc738aull,
      0x4c78003cae2e1da5ull, 0x26acf018b8db71aeull, 0x326a92518ba52399ull,
      0x26acf018b8db71aeull},
     {0x647a157714cf46a6ull, 0xc69e66aa65a0ed3eull, 0x982edf6643a9f3d4ull,
      0x7348ca72383ed242ull, 0x61f7a9095a7c9feaull, 0xa6bc791a076f3773ull,
      0x61f7a9095a7c9feaull},
    },
    // Components
    {
     {0x2f1c6749a0f1eb6ull, 0xd272d91295ea3c2cull, 0x66ab0453f895f7b4ull,
      0x26ff1a3deb8f350aull, 0x25a043a1c6261601ull, 0x7daf11a98a54cfb6ull,
      0x25a043a1c6261601ull},
     {0x49b7977bb44b8ea2ull, 0x877ada676bb5e125ull, 0x8278511a22b1a06full,
      0x27a14fc6b5e86e93ull, 0xe47c62539edfc454ull, 0xbb0364967be660dfull,
      0xe47c62539edfc454ull},
     {0x7277135ed11ba797ull, 0x57280cce4355c87eull, 0xdf5483525a81e3c4ull,
      0xeadaddd72cdf97c7ull, 0x8bd05f8f4e90ccd5ull, 0x97f1e339146f5b62ull,
      0x8bd05f8f4e90ccd5ull},
    },
    // Bfs2d
    {
     {0xcb1c4f1c9658e936ull, 0x7cf6d7033fce768aull, 0x670bddc65b21188dull},
     {0x61b1c8d5f81bf56eull, 0x2601fff62504c43bull, 0xe5df55d203a19aafull},
     {0x1366034ae996ad97ull, 0x39ac98144cdb8994ull, 0x624d27c2dd12978cull},
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

}  // namespace
}  // namespace numabfs
