#pragma once
/// \file phase_profile.hpp
/// Named-phase time accounting, mirroring the breakdown the paper reports in
/// Fig. 11 (top-down / bottom-up x computation / communication, switch,
/// stall) plus event counters the kernels measure directly.

#include <array>
#include <cstdint>
#include <string>

namespace numabfs::sim {

/// The phases of one BFS in the paper's breakdown.
enum class Phase : int {
  td_comp = 0,   ///< top-down computation
  td_comm,       ///< top-down communication (allgathers)
  bu_comp,       ///< bottom-up computation
  bu_comm,       ///< bottom-up communication (the two allgathers of Fig. 1)
  switch_conv,   ///< direction-switch data-structure conversion
  stall,         ///< idle at barriers due to load imbalance
  other,         ///< root setup, bookkeeping
  kCount
};

const char* to_string(Phase p);

/// Event counters measured (not modeled) during kernels. These are the
/// quantities the cost model multiplies by unit costs; tests assert on them
/// directly.
struct Counters {
  std::uint64_t edges_scanned = 0;       ///< adjacency entries touched
  std::uint64_t summary_probes = 0;      ///< in_queue_summary reads
  std::uint64_t summary_zero_skips = 0;  ///< probes answered by a zero bit
  std::uint64_t inqueue_probes = 0;      ///< in_queue reads (summary was 1)
  std::uint64_t frontier_hits = 0;       ///< probes that found a parent
  std::uint64_t queue_writes = 0;        ///< out_queue/pred updates
  std::uint64_t bytes_intra_node = 0;    ///< comm bytes moved inside nodes
  std::uint64_t bytes_inter_node = 0;    ///< comm bytes crossing the network
  /// What bytes_intra_node + bytes_inter_node would have been without the
  /// exchange codec (DESIGN.md §10). Every site that counts wire bytes also
  /// counts its raw equivalent, so codec-off runs satisfy
  /// bytes_raw_equiv == bytes_intra_node + bytes_inter_node exactly, and
  /// codec-on runs expose the *measured* compression ratio.
  std::uint64_t bytes_raw_equiv = 0;
  std::uint64_t vertices_visited = 0;
  // Robustness events (chaos mode). Counted where the runtime reacts, so
  // fault handling is first-class observable alongside the kernel events.
  std::uint64_t retransmits = 0;    ///< p2p/collective chunk re-sends after
                                    ///< a drop or a checksum reject
  std::uint64_t recv_timeouts = 0;  ///< finite recv waits that expired
  std::uint64_t adoptions = 0;      ///< dead partitions adopted in recovery
  /// Dirty-row / patched-group reads through a merged epoch view (dynamic
  /// graph layer, DESIGN.md section 14): the measured read amplification
  /// of serving off base-plus-deltas instead of a compacted CSR.
  std::uint64_t delta_probes = 0;
  /// Vector allreduces this rank joined (rt::allreduce), so tests can pin
  /// the reductions a traversal pays: one per level, one per root set-up
  /// where level 0's direction needs it, plus the exchanges' own.
  std::uint64_t reductions = 0;

  Counters& operator+=(const Counters& o);
};

/// Per-rank accumulator: time per phase plus counters.
class PhaseProfile {
 public:
  void add(Phase p, double ns) { ns_[static_cast<int>(p)] += ns; }
  double get(Phase p) const { return ns_[static_cast<int>(p)]; }
  double total_ns() const;
  /// Total of the communication phases (td_comm + bu_comm).
  double comm_ns() const { return get(Phase::td_comm) + get(Phase::bu_comm); }

  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  /// Modeled time an overlap saved versus running its stages back to back:
  /// the K-chunk pipeline's wire and codec stages, or the 2-D row-plan legs
  /// hidden under the level's reduction (kept separate so Fig. 11-style
  /// breakdowns remain truthful about what was charged).
  void add_overlap_saved(double ns) { overlap_saved_ns_ += ns; }
  double overlap_saved_ns() const { return overlap_saved_ns_; }

  void clear();
  /// Element-wise sum (used to average over ranks / roots).
  PhaseProfile& operator+=(const PhaseProfile& o);
  /// Element-wise max over phases; counters are summed.
  void max_with(const PhaseProfile& o);
  PhaseProfile scaled(double f) const;

  std::string breakdown(double total_override_ns = -1.0) const;

 private:
  std::array<double, static_cast<int>(Phase::kCount)> ns_{};
  Counters counters_{};
  double overlap_saved_ns_ = 0.0;
};

}  // namespace numabfs::sim
