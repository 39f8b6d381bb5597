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
// The digests were recorded before the 1-D, wave, program and 2-D
// exchanges shared one plan core.

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
     {0x58769eb3cc2b5bbfull, 0xc73375801a9c3f30ull, 0x72c55653eba7a735ull,
      0xd74cbdfdb17b1680ull, 0x200eec71e3717560ull, 0x2509542f4fa53865ull,
      0xd2842a5b32e8acf3ull},
     {0xad9ed27e42f935afull, 0xb3cd23eabd472761ull, 0x397aa96c81a5fb9ull,
      0xd2996402524a9e88ull, 0xc11777b3c6bb2d1eull, 0xbed14ae61900e73full,
      0x5b0f015c55946482ull},
     {0xf13d3a08abb013d1ull, 0x5aa2cd666ef40411ull, 0x734332eb5c141385ull,
      0x734332eb5c141385ull, 0x3c4d909bf6ee89d2ull, 0x1a5b3a3ad32cfbc1ull,
      0x7fb206e2637f852cull},
    },
    // Wave
    {
     {0x4f495289354cb96eull, 0x2654bcca38884146ull, 0x8b686bafe3f9fae3ull,
      0x5d14c62a97c0cd97ull, 0x6888ff76747c36d4ull, 0x94db6b3fc2f47200ull,
      0x6888ff76747c36d4ull},
     {0xc1f823ba6d20cf0full, 0x3ef23b8c34be6101ull, 0x3f43d1faa1082424ull,
      0xbc3a82789e6bb9feull, 0xc02637db645b0d19ull, 0xf4d8b6f9c095286full,
      0xc02637db645b0d19ull},
     {0xf9aad2c9afe1eab9ull, 0xa4fcc332d605a738ull, 0x39add43c9f19ce27ull,
      0x56a2b96327b255f0ull, 0x354cf738b0b0b9bbull, 0x1fa4bb7368e92100ull,
      0x354cf738b0b0b9bbull},
    },
    // Sssp
    {
     {0xaf7450c78ed69febull, 0xcd699b2e7e3a2f77ull, 0x4e24d52fbf5676eaull,
      0xd0beed6bb13858baull, 0xf2ee5b9a887dc36dull, 0x596c1822f3becf1ull,
      0xf2ee5b9a887dc36dull},
     {0x601238bbee4c35ebull, 0x147509a31f2555cfull, 0x782b47b34ea29a9aull,
      0x6470523463eda71cull, 0x70a539eb22b49a0full, 0xc0bf0eb65adf3b43ull,
      0x70a539eb22b49a0full},
     {0x41950d57179200a8ull, 0xe9d15bd5d4e8b89aull, 0x5286437df31c72daull,
      0x714ddf7795c83faeull, 0xee747a57629cd85eull, 0x91d16fe1b00e347bull,
      0xee747a57629cd85eull},
    },
    // Components
    {
     {0x337100dd92012613ull, 0xbf80885f07ec3f1eull, 0x1099c94a84d7ce5bull,
      0x94e9bafab65844bull, 0x8d49cacac715315eull, 0xe4353a9631cc64efull,
      0x8d49cacac715315eull},
     {0x49dff62ba270462dull, 0x9e57e4198d7e55ccull, 0xf10960692cb6ea50ull,
      0x8c7ff6e81bc15d89ull, 0xbf96f093b9445f54ull, 0xced26372a68ad6c6ull,
      0xbf96f093b9445f54ull},
     {0xe8d2761a115acb93ull, 0xc08ab97b10968465ull, 0xb3e76f380eea842full,
      0xecf954f5d73394bdull, 0xbbbbd4e4be9e88f4ull, 0x60ca6d581a3ca1d0ull,
      0xbbbbd4e4be9e88f4ull},
    },
    // Bfs2d
    {
     {0x794b5408789e5528ull, 0xdac4a59f55fbd50dull, 0x206603456e493cdull},
     {0xb2538b0ceddb832dull, 0x5426a26fe838382dull, 0x769a0ae4dd695448ull},
     {0xaf4aae808e318064ull, 0x59d262396b24ebccull, 0x568c0487a7758819ull},
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
