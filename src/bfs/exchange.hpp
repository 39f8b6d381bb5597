#pragma once
/// \file exchange.hpp
/// The communication phase of Fig. 1: two allgathers rebuilding the next
/// frontier (`in_queue`) and its summary on every rank/node from the
/// per-rank `out_queue` chunks, under the variant's sharing level and
/// allgather plan. Also resets the out structures for the next level.
///
/// Fault tolerance: each exchange takes an optional `parts` list — the
/// partitions the calling rank is responsible for (its own plus any it
/// adopted from crashed ranks). The adopter publishes/wipes the adopted
/// partitions' slots so the exchange protocol below is oblivious to
/// crashes; the partition index space always stays dense. When ranks have
/// died, the parallel-subgroup allgather degrades to the leader-based plan
/// (subgroup rings need every color alive on every node) and node
/// leadership falls to the lowest live local rank.

#include <functional>
#include <optional>
#include <span>

#include "bfs/costs.hpp"
#include "bfs/state.hpp"
#include "graph/codec.hpp"
#include "graph/dist_graph.hpp"
#include "graph/summary.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::bfs {

/// Breakdown of the modeled exchange duration (for Figs. 6/12/13), plus the
/// codec outcome when Config::codec is active (DESIGN.md §10).
struct ExchangeTimes {
  double gather_ns = 0;
  double inter_ns = 0;
  double bcast_ns = 0;
  double intra_overlapped_ns = 0;
  double total_ns = 0;

  graph::codec::Kind codec = graph::codec::Kind::raw;  ///< gate's pick
  double encode_ns = 0;         ///< modeled codec encode cost (this rank)
  double decode_ns = 0;         ///< modeled codec decode cost
  double overlap_saved_ns = 0;  ///< wire/decode pipelining gain
  std::uint64_t chunk_raw_bytes = 0;   ///< per-rank raw contribution
  std::uint64_t chunk_wire_bytes = 0;  ///< what actually rides the wire
};

/// What the sparse (top-down) exchange moved, for per-level accounting.
struct SparseExchangeStats {
  std::uint64_t wire_bytes = 0;  ///< bytes this rank received off-rank
  std::uint64_t raw_bytes = 0;   ///< their raw (uncoded) equivalent
  bool coded = false;            ///< lists rode the delta-varint codec
};

/// Bitmap exchange (used when the *next* level is bottom-up): the two
/// allgathers of Fig. 1 rebuild in_queue and in_queue_summary from the
/// out_queue chunks, then wipe the out structures. SPMD: all ranks call.
/// Charges the modeled duration to `phase`. `parts` lists the caller's
/// partitions (empty = own rank only).
ExchangeTimes exchange_frontier(rt::Proc& p, const graph::DistGraph& dg,
                                DistState& st, const UnitCosts& u,
                                sim::Phase phase,
                                std::span<const int> parts = {});

/// Sparse exchange (used when the next level is top-down): allgatherv of
/// the per-rank discovered-vertex lists into every rank's replicated
/// frontier list. Communication is proportional to the frontier size —
/// negligible outside the bulge, which is why the paper's communication
/// cost concentrates in the bottom-up phases. `wipe_out` additionally
/// wipes the out bitmaps (set when the level that produced the frontier
/// ran bottom-up, whose kernel marks them). `parts` as above.
SparseExchangeStats exchange_sparse(rt::Proc& p, const graph::DistGraph& dg,
                                    DistState& st, const UnitCosts& u,
                                    sim::Phase phase, bool wipe_out,
                                    std::span<const int> parts = {});

/// Direction-switch conversion (td -> bu): materialize the out_queue /
/// out_queue_summary bits from this level's discovered list, so the bitmap
/// exchange can build the next in_queue. Charged to Phase::switch_conv.
/// `part` selects the partition (-1 = the caller's own).
void discovered_to_out_bits(rt::Proc& p, DistState& st, const UnitCosts& u,
                            int part = -1);

/// Wipe this rank's out_queue chunk and out_summary share (used on the
/// bu -> td path, where no bitmap exchange performs the wipe).
void clear_out_bits(rt::Proc& p, const graph::DistGraph& dg, DistState& st,
                    const UnitCosts& u, sim::Phase phase);

/// Wipe partition `part`'s out_queue chunk and out_summary range on behalf
/// of a crashed owner (fault recovery only; the caller adopted `part`).
void clear_out_bits_part(rt::Proc& p, const graph::DistGraph& dg,
                         DistState& st, const UnitCosts& u, sim::Phase phase,
                         int part);

// --- decomposition-agnostic codec gate (DESIGN.md §10/§13) ---------------
// The per-level gate decides raw vs coded from allreduced *measured*
// quantities, identically on every rank. It was written for the 1-D bitmap
// allgather; the 2-D transpose/expand/fold legs reuse it by describing
// their equal-geometry chunks and a plan-time function.

/// One owned bitmap contribution to a gated exchange.
struct GateChunk {
  std::span<const std::uint64_t> words;   ///< the chunk on offer
  std::optional<graph::SummaryView> guide;  ///< dense-encode guide, if any
  std::uint64_t guide_base_bit = 0;
  std::vector<std::uint8_t>* enc = nullptr;  ///< where the encoding lands
};

/// The gate's decision for one exchange leg.
struct GateResult {
  graph::codec::Kind kind = graph::codec::Kind::raw;
  /// Mean measured encoded chunk (== raw chunk bytes when kind is raw);
  /// the honest per-chunk wire charge for every collective plan.
  std::uint64_t wire_chunk_bytes = 0;
  double encode_ns = 0;  ///< modeled encode cost charged to this rank
};

/// Run the PR-4 codec gate over this rank's `chunks` (SPMD: all of `comm`
/// participates): popcount + allreduce, analytic 1.5x pre-filter, trial
/// encode, final pick on the allreduced measured bytes. `plan_total_ns`
/// maps a per-chunk wire size to the modeled duration of the exchange's
/// collective plan; `decode_chunks` is how many chunks one rank decodes.
/// Chunks must share one geometry: `chunk_words` words covering
/// `chunk_bits` vertex bits.
/// `per_chunk_ns` is the extra cost each additional pipeline chunk adds to
/// the plan (CostParams::chunk_split_overhead_ns); 0 keeps the legacy
/// monotone-in-K behavior.
GateResult gate_bitmap_chunks(
    rt::Proc& p, rt::Comm& comm, CodecMode mode, int pipeline_chunks,
    std::span<GateChunk> chunks, std::uint64_t chunk_words,
    std::uint64_t chunk_bits, std::uint64_t decode_chunks, const UnitCosts& u,
    sim::Phase phase, const std::function<double(std::uint64_t)>& plan_total_ns,
    double per_chunk_ns = 0.0);

/// Strict-framing decode of one gated bitmap chunk: the encoding must
/// account for every published byte or the stream was corrupted. Throws
/// std::invalid_argument naming `what` and the source rank.
void decode_bitmap_checked(std::span<const std::uint8_t> in,
                           std::span<std::uint64_t> words, const char* what,
                           int src_rank);

// --- unified frontier-exchange interface (DESIGN.md §13) -----------------

/// What one frontier exchange moved, uniformly across decompositions.
struct ExchangeLevelStats {
  graph::codec::Kind codec = graph::codec::Kind::raw;
  std::uint64_t wire_bytes = 0;  ///< measured bytes on the wire
  std::uint64_t raw_bytes = 0;   ///< their uncoded equivalent
  bool bitmap = false;           ///< bitmap family (vs sparse-list family)
};

/// The communication step between two BFS levels, behind which both the
/// 1-D hybrid and the 2-D grid decomposition sit: rebuild the next level's
/// frontier inputs from the per-rank outputs of the level just finished.
/// SPMD — every live rank calls exchange() with the same (cur, next)
/// directions (0 = top-down, 1 = bottom-up); `parts` lists the caller's
/// partitions (own plus adopted). Implementations route every leg through
/// the shared codec gate and K-chunk wire/decode pipelining.
class FrontierExchange {
 public:
  virtual ~FrontierExchange() = default;
  virtual const char* name() const = 0;
  virtual ExchangeLevelStats exchange(rt::Proc& p, int cur_dir, int next_dir,
                                      std::span<const int> parts) = 0;
};

/// The 1-D hybrid's exchange: sparse-list allgatherv before a top-down
/// level, the two bitmap allgathers of Fig. 1 before a bottom-up level
/// (materializing the discovered list into out bits on a td -> bu switch).
class OneDExchange final : public FrontierExchange {
 public:
  OneDExchange(const graph::DistGraph& dg, DistState& st, const UnitCosts& u)
      : dg_(dg), st_(st), u_(u) {}
  const char* name() const override { return "1d"; }
  ExchangeLevelStats exchange(rt::Proc& p, int cur_dir, int next_dir,
                              std::span<const int> parts) override;

 private:
  const graph::DistGraph& dg_;
  DistState& st_;
  const UnitCosts& u_;
};

}  // namespace numabfs::bfs
