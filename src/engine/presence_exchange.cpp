#include "engine/presence_exchange.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "bfs/exchange.hpp"
#include "graph/codec.hpp"
#include "obs/trace.hpp"
#include "runtime/allgather.hpp"

namespace numabfs::engine {

void presence_exchange(rt::Proc& p, const bfs::Config& cfg,
                       const bfs::UnitCosts& u, std::span<const int> parts,
                       const PresenceBlocks& b) {
  rt::Cluster& c = *p.cluster;
  rt::Comm& world = c.world();
  const int np = c.nranks();
  const sim::Phase phase = sim::Phase::bu_comm;

  // Measure the owned out blocks (a real count on the real words; one
  // streaming pass each). With the codec on, the same pass builds the
  // presence bitmap and really dense-encodes it, so the presence component
  // rides *measured* encoded bytes.
  const bool coded = cfg.codec != bfs::CodecMode::off && np > 1;
  std::uint64_t my_nnz = 0;
  std::uint64_t my_enc = 0;
  std::vector<std::uint8_t> enc;
  for (int q : parts) {
    const Presence pr = b.scan(q, coded);
    std::uint64_t words = pr.scan_words;
    if (coded) {
      enc.clear();
      const std::size_t nb = graph::codec::encode_dense(pr.bits, enc);
      my_enc += static_cast<std::uint64_t>(nb);
      words += (nb + 7) / 8;
    }
    p.charge(phase, u.stream_pass_ns(words));
    my_nnz = std::max(my_nnz, pr.nnz);
  }
  // One reduction: the densest partition's nonzeros, which size every
  // chunk's payload, and the summed encodings (zero with the codec off).
  std::array<std::uint64_t, 2> red{my_nnz, my_enc};
  rt::allreduce(p, world, red, std::array{rt::ReduceOp::max, rt::ReduceOp::sum},
                sim::Phase::stall);
  const std::uint64_t max_nnz = red[0];

  const std::uint64_t g = cfg.summary_granularity;
  const std::uint64_t sum_bytes =
      (graph::SummaryView::summary_bits_for(b.block, g) + 7) / 8;
  const std::uint64_t presence_raw = b.block / 8;
  std::uint64_t presence_bytes = presence_raw;
  if (coded) {
    // Mean over the np partition encodings (each chunk transits once per
    // hop, so the honest charge is the summed volume divided out), as in
    // the bitmap exchange. Measured gate: the codec rides only when the
    // real encodings won on average.
    const std::uint64_t enc_mean =
        (red[1] + static_cast<std::uint64_t>(np) - 1) /
        static_cast<std::uint64_t>(np);
    if (enc_mean < presence_raw) presence_bytes = enc_mean;
  }
  const bool presence_coded = presence_bytes < presence_raw;
  const std::uint64_t payload = max_nnz * b.payload_bytes;
  const std::uint64_t chunk_bytes = presence_bytes + sum_bytes + payload;
  const std::uint64_t raw_chunk_bytes = presence_raw + sum_bytes + payload;

  graph::SummaryView in_s = b.replica_summary;
  const auto reset = [&] {
    in_s.bits().reset();
    p.charge(phase, u.stream_pass_ns((in_s.size_bits() + 63) / 64));
  };
  const auto land = [&](int src) {
    b.copy(src);
    // A partition's summary group maps into at most two replica groups
    // (when the granularity does not divide the block); mark() is atomic,
    // so the parallel plan can merge disjoint blocks concurrently.
    graph::SummaryView out_s = b.out_summary(src);
    const std::uint64_t base = static_cast<std::uint64_t>(src) * b.block;
    out_s.bits().for_each_set(0, out_s.size_bits(), [&](std::uint64_t s) {
      const std::uint64_t lo = base + s * g;
      in_s.mark(lo);
      in_s.mark(std::min(base + b.block, lo + g) - 1);
    });
    if (src == p.rank) return;  // own chunk: no transmission
    if (c.node_of(src) == p.node)
      p.prof.counters().bytes_intra_node += chunk_bytes;
    else
      p.prof.counters().bytes_inter_node += chunk_bytes;
    p.prof.counters().bytes_raw_equiv += raw_chunk_bytes;
  };

  bfs::PlanWire wire;
  wire.chunk_bytes = chunk_bytes;
  wire.coded = presence_coded;
  wire.decode_words = b.block / 64;
  bfs::run_plan(p, u, phase, bfs::select_plan(p, cfg), wire, reset, land);
  p.trace_instant(obs::kCatEngine, b.trace_name,
                  obs::kv("chunk_bytes", chunk_bytes) + "," +
                      obs::kv("raw_bytes", raw_chunk_bytes) + "," +
                      obs::kv("coded", presence_coded ? "yes" : "no"));

  // Wipe the owned out blocks (and their summaries) for the next level.
  for (int q : parts) {
    const std::span<std::uint64_t> out = b.out(q);
    std::memset(out.data(), 0, out.size() * 8);
    b.out_summary(q).bits().reset();
    p.charge(phase, u.stream_pass_ns(out.size()));
  }
  p.barrier(world, sim::Phase::stall);  // wipes land before the next level
}

}  // namespace numabfs::engine
