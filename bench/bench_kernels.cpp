/// Kernel microbenchmarks (google-benchmark): the host-side primitives the
/// simulator's wall-clock depends on — bitmap scans, summary rebuilds,
/// copy_bits assembly, R-MAT generation, CSR construction, the 1-D slice
/// and 2-D block builds, the world reduction every level pays, and the
/// dynamic layer's snapshot pin and compaction. These measure *host* time
/// (not virtual time); they guard against performance regressions in the
/// simulator itself. ctest runs every one briefly as `smoke_bench_kernels`.

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "bfs2d/bfs2d.hpp"
#include "graph/bitmap.hpp"
#include "graph/codec.hpp"
#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "graph/dynamic/ingest.hpp"
#include "graph/dynamic/snapshot.hpp"
#include "graph/partition.hpp"
#include "graph/rmat.hpp"
#include "graph/summary.hpp"
#include "runtime/allgather.hpp"
#include "runtime/cluster.hpp"

namespace {

using namespace numabfs::graph;

std::vector<std::uint64_t> random_frontier_words(std::size_t n,
                                                 double density,
                                                 std::uint64_t seed) {
  std::vector<std::uint64_t> words(n, 0);
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution bit(density);
  for (auto& w : words)
    for (int b = 0; b < 64; ++b)
      if (bit(rng)) w |= 1ull << b;
  return words;
}

void BM_BitmapForEachSet(benchmark::State& state) {
  const std::uint64_t bits = 1ull << static_cast<unsigned>(state.range(0));
  Bitmap bm(bits);
  auto v = bm.view();
  std::mt19937_64 rng(1);
  for (std::uint64_t i = 0; i < bits / 16; ++i) v.set(rng() % bits);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    v.for_each_set([&](std::uint64_t b) { sum += b; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits));
}
BENCHMARK(BM_BitmapForEachSet)->Arg(16)->Arg(20);

void BM_BitmapCountRange(benchmark::State& state) {
  const std::uint64_t bits = 1ull << 20;
  Bitmap bm(bits);
  auto v = bm.view();
  std::mt19937_64 rng(2);
  for (std::uint64_t i = 0; i < bits / 8; ++i) v.set(rng() % bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.count_range(100, bits - 100));
  }
}
BENCHMARK(BM_BitmapCountRange);

void BM_SummaryRebuild(benchmark::State& state) {
  const std::uint64_t bits = 1ull << 20;
  const std::uint64_t g = static_cast<std::uint64_t>(state.range(0));
  Bitmap src(bits);
  auto sv = src.view();
  std::mt19937_64 rng(3);
  for (std::uint64_t i = 0; i < bits / 64; ++i) sv.set(rng() % bits);
  Summary s(bits, g);
  auto view = s.view();
  for (auto _ : state) view.rebuild_range(sv, 0, bits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits));
}
BENCHMARK(BM_SummaryRebuild)->Arg(64)->Arg(256)->Arg(4096);

void BM_CopyBitsUnaligned(benchmark::State& state) {
  const std::uint64_t bits = 1ull << 20;
  Bitmap src(bits), dst(bits);
  auto sv = src.view();
  std::mt19937_64 rng(4);
  for (std::uint64_t i = 0; i < bits / 32; ++i) sv.set(rng() % bits);
  for (auto _ : state) {
    dst.view().reset();
    copy_bits(dst.view().words(), 37, sv.words(), 13, bits - 64, true);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_CopyBitsUnaligned);

// Codec throughput (DESIGN.md §10): host-side words/s for the frontier
// bitmap codec at the densities the gate sees in practice — shoulder
// (0.01), ramp (0.1) and bulge (0.5, where the gate keeps the wire raw
// but an encode trial may still run). Density is range(1)/1000.
void BM_CodecEncodeDense(benchmark::State& state) {
  const std::size_t n = 1ull << static_cast<unsigned>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 1000.0;
  const auto words = random_frontier_words(n, density, 11);
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(codec::encode_dense(words, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["bytes_per_word"] =
      static_cast<double>(out.size()) / static_cast<double>(n);
}
BENCHMARK(BM_CodecEncodeDense)
    ->Args({14, 10})
    ->Args({14, 100})
    ->Args({14, 500});

void BM_CodecEncodeBitmapSparse(benchmark::State& state) {
  const std::size_t n = 1ull << static_cast<unsigned>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 1000.0;
  const auto words = random_frontier_words(n, density, 12);
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(codec::encode_bitmap_sparse(words, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["bytes_per_word"] =
      static_cast<double>(out.size()) / static_cast<double>(n);
}
BENCHMARK(BM_CodecEncodeBitmapSparse)
    ->Args({14, 10})
    ->Args({14, 100})
    ->Args({14, 500});

void BM_CodecDecodeBitmap(benchmark::State& state) {
  const std::size_t n = 1ull << static_cast<unsigned>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 1000.0;
  const auto words = random_frontier_words(n, density, 13);
  std::vector<std::uint8_t> enc;
  codec::encode_dense(words, enc);
  std::vector<std::uint64_t> dst(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::decode_bitmap(enc, dst));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CodecDecodeBitmap)
    ->Args({14, 10})
    ->Args({14, 100})
    ->Args({14, 500});

void BM_CodecListRoundTrip(benchmark::State& state) {
  const std::size_t count = 1ull << static_cast<unsigned>(state.range(0));
  std::vector<Vertex> list(count);
  std::mt19937_64 rng(14);
  for (auto& v : list) v = static_cast<Vertex>(rng() & 0x7fffffff);
  std::vector<std::uint8_t> enc;
  std::vector<Vertex> dst;
  for (auto _ : state) {
    enc.clear();
    codec::encode_list(list, enc);
    dst.clear();
    benchmark::DoNotOptimize(codec::decode_list(enc, dst));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_CodecListRoundTrip)->Arg(10)->Arg(16);

void BM_RmatGenerate(benchmark::State& state) {
  RmatParams p;
  p.scale = static_cast<int>(state.range(0));
  p.edgefactor = 8;
  for (auto _ : state) {
    auto edges = rmat_edges(p);
    benchmark::DoNotOptimize(edges.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p.num_edges()));
}
BENCHMARK(BM_RmatGenerate)->Arg(12)->Arg(16);

void BM_CsrBuild(benchmark::State& state) {
  RmatParams p;
  p.scale = static_cast<int>(state.range(0));
  p.edgefactor = 8;
  const auto edges = rmat_edges(p);
  for (auto _ : state) {
    Csr g = Csr::from_edges(p.num_vertices(), edges);
    benchmark::DoNotOptimize(g.num_directed_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_CsrBuild)->Arg(12)->Arg(16);

Csr rmat_csr(benchmark::State& state) {
  RmatParams p;
  p.scale = static_cast<int>(state.range(0));
  return Csr::from_edges(p.num_vertices(), rmat_edges(p));
}

void BM_DistGraphBuild(benchmark::State& state) {
  const Csr g = rmat_csr(state);
  const Partition1D part(g.num_vertices(), 128);
  for (auto _ : state) {
    const DistGraph d = DistGraph::build(g, part);
    benchmark::DoNotOptimize(d.locals.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}
BENCHMARK(BM_DistGraphBuild)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_Block2dBuild(benchmark::State& state) {
  const Csr g = rmat_csr(state);
  const numabfs::bfs2d::Grid2d grid(g.num_vertices(), 32, 32);
  for (auto _ : state) {
    const auto d = numabfs::bfs2d::DistGraph2d::build(g, grid);
    benchmark::DoNotOptimize(d.blocks.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}
BENCHMARK(BM_Block2dBuild)->Arg(16)->Unit(benchmark::kMillisecond);

/// Host time of one 3-word world reduction (the level loop's stats) over a
/// nodes x 4 cluster, measured by rank 0 across kReps reductions inside one
/// Cluster::run, so rank spawn stays out of it.
void BM_WorldAllreduce(benchmark::State& state) {
  namespace rt = numabfs::rt;
  constexpr int kReps = 32;
  constexpr std::array kOps{rt::ReduceOp::sum, rt::ReduceOp::max,
                            rt::ReduceOp::bit_or};
  rt::Cluster c(numabfs::sim::Topology::xeon_x7550_cluster(
                    static_cast<int>(state.range(0))),
                numabfs::sim::CostParams{}, 4);
  for (auto _ : state) {
    double secs = 0;
    c.run([&](rt::Proc& p) {
      const auto r = static_cast<std::uint64_t>(p.rank);
      const std::array<std::uint64_t, 3> mine{1, r, 1ull << (r % 64)};
      std::array<std::uint64_t, 3> w = mine;
      // Untimed: when it returns, every rank has been spawned.
      rt::allreduce(p, c.world(), w, kOps, numabfs::sim::Phase::stall);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kReps; ++i) {
        w = mine;
        rt::allreduce(p, c.world(), w, kOps, numabfs::sim::Phase::stall);
      }
      if (p.rank == 0)
        secs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
      benchmark::DoNotOptimize(w);
    });
    state.SetIterationTime(secs / kReps);
  }
}
BENCHMARK(BM_WorldAllreduce)->Arg(8)->Arg(256)->UseManualTime()->Unit(
    benchmark::kMicrosecond);

RmatParams dyn_params() {
  RmatParams p;
  p.scale = 14;
  return p;
}

numabfs::dyn::IngestConfig dyn_ingest() {
  numabfs::dyn::IngestConfig ic;
  ic.base = dyn_params();
  return ic;
}

/// A snapshot manager over a canonical scale-14 base on 2 nodes x 4 (8
/// ranks), and the ingest stream that fills its delta stores.
struct DynWorld {
  numabfs::rt::Cluster cluster{numabfs::sim::Topology::xeon_x7550_cluster(2),
                               numabfs::sim::CostParams{}, 4};
  numabfs::dyn::SnapshotManager mgr{
      cluster,
      Csr::from_edges(dyn_params().num_vertices(), rmat_edges(dyn_params()),
                      EdgePolicy::sorted_dedup),
      Partition1D(dyn_params().num_vertices(), cluster.nranks())};
  numabfs::dyn::IngestGenerator gen{dyn_ingest()};

  /// Seal epochs of 1000 ops until the live deltas reach `fill` of the
  /// base's directed edges.
  void fill_to(double fill) {
    while (mgr.fill() < fill) mgr.ingest(gen.next_batch(1000));
  }
};

/// Host time of a fresh pin at about 5% fill: the view is dropped every
/// iteration, so the next pin rebuilds it instead of reusing it.
void BM_SnapshotPin(benchmark::State& state) {
  DynWorld w;
  w.fill_to(0.05);
  for (auto _ : state) {
    auto snap = w.mgr.pin(w.mgr.epoch());
    benchmark::DoNotOptimize(snap->patched_rows);
    snap.reset();
  }
}
BENCHMARK(BM_SnapshotPin)->Unit(benchmark::kMillisecond);

/// Host time of one compaction at about 5% fill (the canonical rebuild and
/// the new base's slices). Every iteration compacts an untimed copy of the
/// same manager, so the graph does not grow from one to the next.
void BM_SnapshotCompact(benchmark::State& state) {
  DynWorld w;
  w.fill_to(0.05);
  for (auto _ : state) {
    state.PauseTiming();
    auto mgr = std::make_unique<numabfs::dyn::SnapshotManager>(w.mgr);
    state.ResumeTiming();
    const auto cs = mgr->compact();
    benchmark::DoNotOptimize(cs.bytes_merged);
    state.PauseTiming();
    mgr.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SnapshotCompact)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
