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
#include <string>

#include "bfs/costs.hpp"
#include "bfs/state.hpp"
#include "graph/codec.hpp"
#include "graph/dist_graph.hpp"
#include "graph/summary.hpp"
#include "runtime/cluster.hpp"
#include "runtime/coll_model.hpp"

namespace numabfs::bfs {

// --- the collective-plan core (DESIGN.md §9) -----------------------------
// Every replicated-frontier exchange (this 1-D bitmap exchange, MS-BFS
// waves and frontier programs) rides one plan chosen here from the Config.
// The core owns the plan's modeled time, which ranks land which chunks,
// the link-degrade stretch and the decode overlap (the 2-D legs use the
// last two); callers own their wire format and how one chunk lands.

/// The collective plans of the Fig. 5 sharing ladder and Fig. 7.
enum class PlanKind {
  library,        ///< private replicas: the base allgather over all ranks
  leader_gather,  ///< "+ Share in_queue": leaders gather, then ring
  leader,         ///< "+ Share all" (also the degraded parallel plan)
  parallel,       ///< ppn subgroup rings assemble in place (Fig. 7)
};

/// The collective plan of one replicated-frontier exchange.
struct ExchangePlan {
  PlanKind kind = PlanKind::library;
  rt::AllgatherAlgo base_algo = rt::AllgatherAlgo::flat_ring;  ///< library
  bool acts_leader = false;  ///< this rank assembles its node's replica
  int chunks = 1;            ///< K of the chunk-pipelined decode
  /// Chunks one rank lands, and therefore decodes, per exchange.
  std::uint64_t assemble_chunks = 0;
};

/// The plan of `cfg` on the caller's cluster. With dead ranks the parallel
/// plan degrades to the leader plan (subgroup rings need every color alive
/// on every node), led by the lowest live local rank.
ExchangePlan select_plan(const rt::Proc& p, const Config& cfg);

/// Modeled duration of one allgather of `chunk_bytes` per rank under `plan`.
rt::coll_model::CollTimes plan_time(const rt::Cluster& c,
                                    const ExchangePlan& plan,
                                    std::uint64_t chunk_bytes);

/// `t.total_ns`, with its inter-node stage stretched by the link-degrade
/// window active at the caller's current virtual time.
double stretched_ns(const rt::Proc& p, const rt::coll_model::CollTimes& t);

/// Wire time followed by a decode, pipelined over `chunks` pieces
/// (coll_model::pipelined2_ns) plus `split_ns` of message overhead for the
/// extra pieces. Records the saving over running the two back to back in
/// the caller's profile and returns the time to charge.
double overlap_decode_ns(rt::Proc& p, double wire_ns, double decode_ns,
                         int chunks, double split_ns = 0.0);

/// What one exchange puts on the wire.
struct PlanWire {
  std::uint64_t chunk_bytes = 0;  ///< one rank's chunk as it rides the wire
  /// One rank's chunk of a second, raw summary allgather (0: none; the
  /// chunk then carries its own summary).
  std::uint64_t summary_bytes = 0;
  bool coded = false;  ///< the chunks rode coded: decode overlaps the wire
  std::uint64_t decode_words = 0;  ///< words one coded chunk decodes into
  double split_ns = 0.0;  ///< message overhead of each extra pipeline piece
};

/// Run `plan` (SPMD): the barrier that publishes every partition's out
/// data, the real assembly, the modeled time (each collective stretched,
/// then the decode overlap), its charge to `phase` and the closing barrier.
/// The plan decides which ranks call `reset` (wipe the replica summary
/// before the merges) and `land(src)` (land partition `src`'s chunk and
/// summary share in the replica). Returns the charged time.
double run_plan(rt::Proc& p, const UnitCosts& u, sim::Phase phase,
                const ExchangePlan& plan, const PlanWire& wire,
                const std::function<void()>& reset,
                const std::function<void(int)>& land);

// --- the 1-D hybrid's exchanges ------------------------------------------

/// The gate's decision for one exchange leg, and what it decided from
/// (zero inputs: the gate did not run).
struct GateResult {
  graph::codec::Kind kind = graph::codec::Kind::raw;
  /// Mean measured encoded chunk (== raw chunk bytes when kind is raw);
  /// the honest per-chunk wire charge for every collective plan.
  std::uint64_t wire_chunk_bytes = 0;
  std::uint64_t mean_pop = 0;  ///< mean set bits per chunk
  double raw_est_ns = 0;       ///< the plan's time on raw chunks
  double coded_est_ns = 0;     ///< best coded estimate, reduction included
  double reduce_ns = 0;        ///< the priced trial reduction
  /// The pick is raw whatever `set_bits` is: the codec is off, or even at
  /// popcount 0 the coded estimate fails the trial test. Such a leg's wire
  /// format is known before the level's reduced stats are.
  bool popcount_free = false;
};

/// What one frontier exchange moved, uniformly across decompositions.
struct ExchangeLevelStats {
  graph::codec::Kind codec = graph::codec::Kind::raw;
  std::uint64_t wire_bytes = 0;  ///< measured bytes on the wire
  std::uint64_t raw_bytes = 0;   ///< their uncoded equivalent
  bool bitmap = false;           ///< bitmap family (vs sparse-list family)
  GateResult gate;  ///< the bitmap gate's pick and inputs (none for lists)
};

/// The args of a level's `codec.gate` trace instant: what the exchange
/// moved, and the inputs the bitmap gate decided from.
std::string gate_trace_args(int level, const ExchangeLevelStats& ex);

/// What one bitmap exchange charged and moved (DESIGN.md §10).
struct ExchangeTimes {
  double total_ns = 0;  ///< modeled duration, link-degrade stretch included
  GateResult gate;      ///< the codec and the per-chunk wire bytes
};

/// Bitmap exchange (used when the *next* level is bottom-up): the two
/// allgathers of Fig. 1 rebuild in_queue and in_queue_summary from the
/// out_queue chunks, then wipe the out structures. SPMD: all ranks call.
/// Charges the modeled duration to `phase`. `frontier_bits` is the number
/// of bits set over every rank's out_queue chunk (the level's reduced
/// discovered count), the codec gate's popcount. `parts` lists the
/// caller's partitions (empty = own rank only).
ExchangeTimes exchange_frontier(rt::Proc& p, const graph::DistGraph& dg,
                                DistState& st, const UnitCosts& u,
                                sim::Phase phase, std::uint64_t frontier_bits,
                                std::span<const int> parts = {});

/// Sparse exchange (used when the next level is top-down): allgatherv of
/// the per-rank discovered-vertex lists into every rank's replicated
/// frontier list. Communication is proportional to the frontier size —
/// negligible outside the bulge, which is why the paper's communication
/// cost concentrates in the bottom-up phases. `wipe_out` additionally
/// wipes the out bitmaps (set when the level that produced the frontier
/// ran bottom-up, whose kernel marks them). `parts` as above. Each list
/// rides delta-varint coded where that is smaller than raw. Reports the
/// bytes this rank received off-rank; the codec is sparse_list when any
/// list rode coded.
ExchangeLevelStats exchange_sparse(rt::Proc& p, const graph::DistGraph& dg,
                                   DistState& st, const UnitCosts& u,
                                   sim::Phase phase, bool wipe_out,
                                   std::span<const int> parts = {});

/// Visit the caller's partitions, own rank first, then the adopted ones
/// (`parts` empty: the own rank only).
template <typename F>
void for_owned_parts(const rt::Proc& p, std::span<const int> parts, F&& f) {
  f(p.rank);
  for (int q : parts)
    if (q != p.rank) f(q);
}

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

/// Run the bitmap codec gate over this rank's `chunks` (SPMD: all of
/// `comm` participates): analytic 1.5x pre-filter on the mean popcount,
/// trial encode, final pick on the allreduced measured bytes. `set_bits`
/// is the number of bits set over every member's chunks, which the caller
/// knows from the level's reduced stats. `plan_total_ns` maps a per-chunk
/// wire size to the modeled duration of the exchange's collective plan;
/// `decode_chunks` is how many chunks one rank decodes. Chunks must share
/// one geometry: `chunk_words` words covering `chunk_bits` vertex bits.
/// `per_chunk_ns` is the extra cost each additional pipeline chunk adds to
/// the plan (CostParams::chunk_split_overhead_ns); 0 keeps the legacy
/// monotone-in-K behavior. `plan_total_ns` must not fall as the bytes grow:
/// both size estimates are smallest at popcount 0, so a raw pick that the
/// popcount-0 estimate already forces is reported as `popcount_free`.
GateResult gate_bitmap_chunks(
    rt::Proc& p, rt::Comm& comm, CodecMode mode, int pipeline_chunks,
    std::span<GateChunk> chunks, std::uint64_t set_bits,
    std::uint64_t chunk_words, std::uint64_t chunk_bits,
    std::uint64_t decode_chunks, const UnitCosts& u, sim::Phase phase,
    const std::function<double(std::uint64_t)>& plan_total_ns,
    double per_chunk_ns = 0.0);

/// Strict-framing decode of one gated bitmap chunk: the encoding must
/// account for every published byte or the stream was corrupted. Throws
/// std::invalid_argument naming `what` and the source rank.
void decode_bitmap_checked(std::span<const std::uint8_t> in,
                           std::span<std::uint64_t> words, const char* what,
                           int src_rank);

// --- the 1-D level exchange (DESIGN.md §13) -------------------------------

/// The communication step between two levels of the 1-D hybrid: rebuild
/// the next level's frontier inputs from the per-rank outputs of the level
/// just finished. Sparse-list allgatherv before a top-down level, the two
/// bitmap allgathers of Fig. 1 before a bottom-up level (materializing the
/// discovered list into out bits on a td -> bu switch). SPMD: every live
/// rank calls exchange() with the same (cur, next) directions (0 =
/// top-down, 1 = bottom-up) and the same `nf`, the size of the next
/// frontier from the level's reduced stats (the bitmap gate's popcount);
/// `parts` lists the caller's partitions (own plus adopted). The 2-D
/// counterpart is bfs2d::TwoDExchange; both route every leg through the
/// shared codec gates and K-chunk wire/decode pipelining.
class OneDExchange {
 public:
  OneDExchange(const graph::DistGraph& dg, DistState& st, const UnitCosts& u)
      : dg_(dg), st_(st), u_(u) {}
  ExchangeLevelStats exchange(rt::Proc& p, int cur_dir, int next_dir,
                              std::uint64_t nf, std::span<const int> parts);

 private:
  const graph::DistGraph& dg_;
  DistState& st_;
  const UnitCosts& u_;
};

}  // namespace numabfs::bfs
