#pragma once
/// \file level_loop.hpp
/// The level-synchronous loop of the 1-D and 2-D BFS, the MS-BFS wave and
/// the frontier programs, and the one implementation of its fault protocol
/// (DESIGN.md §6). A driver keeps what is its own — state, kernels,
/// exchange, what its checkpoint holds, what a finished level records — and
/// hands the loop a level step, the ops of its per-level stats and a
/// checkpoint save/restore pair. The loop owns the abort horizon, the epoch
/// export, the boundary checkpoint and crash point, the level's one world
/// reduction, crash detection with adoption and rollback, and recorder
/// election, in one order on every rank. `finish` learns the reduction's
/// latency, so a driver can model work that does not need the reduced
/// words as posted beside the reduction (the 2-D hides its row-plan
/// delivery under it) while still running it after crash detection.

#include <atomic>
#include <climits>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "numasim/phase_profile.hpp"
#include "runtime/allgather.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::bfs {

/// One level as the loop hands it to a driver's hooks.
struct Level {
  int number = 0;               ///< the driver's level number
  double t0 = 0;                ///< virtual time at level entry
  std::span<const int> parts;   ///< partitions this rank runs: own + adopted
  bool recorder = false;        ///< this rank writes the shared records
  /// The level's stats words (LevelHooks::stats), zero on entry: `kernel`
  /// writes this rank's contribution, the loop allreduces them, `finish`
  /// reads the reduced values.
  std::span<std::uint64_t> stats;
  /// The latency the loop charged for the stats reduction, set before
  /// `finish` runs.
  double reduce_ns = 0;
};

/// What a driver supplies. Every hook runs on the calling rank.
struct LevelHooks {
  /// The op of each word of the level's one stats reduction.
  std::vector<rt::ReduceOp> stats;
  /// Local kernels over `parts`; fills the words of `stats`. A crash
  /// detected after it discards the attempt and runs it again, so it must
  /// leave nothing that the restore below does not roll back.
  std::function<void(const Level&)> kernel;
  /// Commit a level that survived crash detection: write the per-level
  /// records (recorder only), choose the next direction, exchange. Returns
  /// false to end the loop.
  std::function<bool(const Level&)> finish;
  /// Boundary checkpoint and rollback of one partition, charged by the
  /// driver. The checkpoint storage is the driver's, indexed by partition.
  std::function<void(int part)> save;
  std::function<void(int part)> restore;
  /// Optional: runs on every live rank after a rollback's barrier, with the
  /// new partition list (the 2-D rebuilds its col-band inputs here).
  std::function<void(std::span<const int> parts)> after_rollback;
  /// Optional epoch export (the serving tier's failover unit), both or
  /// neither: every owner saves its partitions, then the recorder saves the
  /// replicated state and returns the args of the export's trace instant.
  std::function<void(int part)> export_part;
  std::function<std::string(int level)> export_shared;
};

/// The totals every driver's result reports.
struct LoopTotals {
  double time_ns = 0;             ///< virtual wall time (max over ranks)
  sim::PhaseProfile profile_avg;  ///< mean over ranks, counters summed
  sim::PhaseProfile profile_max;  ///< per-phase max over ranks
  int levels = 0;
  int td_levels = 0;   ///< levels run top-down (sparse, push)
  int bu_levels = 0;   ///< levels run bottom-up (dense, pull)
  int recoveries = 0;  ///< level re-runs after detected crashes
  int ranks_lost = 0;  ///< ranks dead by the end of the run

  /// Copy the fields every result type names alike.
  template <class Result>
  void copy_to(Result& r) const {
    r.profile_avg = profile_avg;
    r.levels = levels;
    r.td_levels = td_levels;
    r.bu_levels = bu_levels;
    r.recoveries = recoveries;
    r.ranks_lost = ranks_lost;
  }
};

/// One run of a level loop over a cluster. Construct it on the host before
/// Cluster::run, call run() from every rank, read the totals afterwards.
class LevelLoop {
 public:
  struct Options {
    const char* who = "";      ///< driver name, for errors
    const char* trace_cat = "";  ///< obs category of the loop's trace events
    /// The number a fresh run gives its first kernel's level. Crash levels
    /// of the fault plan count from it (0-based from the first kernel).
    int level_base = 0;
    int max_level = INT_MAX;   ///< a level numbered past this is not run
    /// Replica outage instant: the loop stops at the first clock-aligned
    /// point at or past it.
    double abort_at_ns = std::numeric_limits<double>::infinity();
    int export_every = 1;      ///< epoch export stride, in levels
    const char* export_instant = "";  ///< trace instant of an export
  };

  /// Throws faults::FaultError when the cluster's fault plan schedules a
  /// crash but disables checkpointing: the run could not be recovered.
  LevelLoop(rt::Cluster& c, Options opt);

  /// Run levels from `level` on the calling rank until `finish` returns
  /// false, the level cap or the abort horizon is reached, or this rank
  /// crashes. `more` = false runs no level. Ends with a world barrier on
  /// every rank that did not crash.
  void run(rt::Proc& p, int level, const LevelHooks& h, bool more = true);

  /// The rank that writes shared records: the lowest live rank.
  int recorder() const;
  /// Whether the run stopped at the abort horizon, and when. Read by the
  /// recorder after run(), or host-side after Cluster::run.
  bool aborted() const { return aborted_; }
  double abort_ns() const { return abort_ns_; }
  /// Host side, after Cluster::run. `directions` holds one entry per
  /// finished level (0 = top-down/sparse/push).
  LoopTotals totals(std::span<const int> directions) const;

 private:
  rt::Cluster& c_;
  faults::FaultInjector* inj_;
  Options opt_;
  bool checkpointing_ = false;
  std::atomic<int> recoveries_{0};
  bool aborted_ = false;  ///< written by the recorder, read host-side
  double abort_ns_ = 0;
};

}  // namespace numabfs::bfs
