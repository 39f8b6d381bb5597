#pragma once
/// \file controller.hpp
/// Online per-level adaptive control (DESIGN.md §15): the codec gate's
/// allreduced-measurement pattern generalized into a reusable decision
/// framework. A controller keeps a *trailing window* of measured state and
/// picks the knob value minimizing the predicted cost of the next level,
/// with hysteresis and a dwell so decisions don't flap.
///
/// Determinism contract: every input a controller consumes must be either
/// rank-uniform (shapes, unit-cost models) or an *allreduced* measurement,
/// so all SPMD ranks step identical controller state and reach identical
/// decisions — the same contract the codec gate already obeys. Controllers
/// are plain value types with no clock or RNG access; a rerun under the
/// same (graph, config, fault plan) replays bit-identical choices.
///
/// Header-only on purpose: the BFS drivers consume these classes without a
/// library dependency on numabfs_tune (which links back against the BFS
/// stacks for profile application).

#include <cstdint>
#include <span>
#include <vector>

#include "bfs/direction.hpp"

namespace numabfs::tune {

/// Switching discipline shared by every knob.
struct KnobPolicy {
  double hysteresis = 0.15;  ///< relative advantage required to switch
  int dwell = 2;             ///< levels a fresh choice is held before review
};

/// One discrete knob. Choice indices are caller-defined (e.g. an index into
/// a candidate-K list). decide() is argmin-with-hysteresis: the incumbent
/// is kept unless a challenger's predicted cost beats it by the hysteresis
/// margin *and* the dwell from the last switch has expired.
class KnobArbiter {
 public:
  KnobArbiter() = default;
  KnobArbiter(int initial, KnobPolicy pol) : cur_(initial), pol_(pol) {}

  /// `costs[i]` = predicted cost of choice i for the next level (identical
  /// on every rank). Returns the choice to use next level.
  int decide(std::span<const double> costs) {
    if (costs.empty()) return cur_;
    if (cur_ >= static_cast<int>(costs.size())) cur_ = 0;
    if (dwell_left_ > 0) {
      --dwell_left_;
      return cur_;
    }
    int best = cur_;
    for (int i = 0; i < static_cast<int>(costs.size()); ++i)
      if (costs[static_cast<size_t>(i)] < costs[static_cast<size_t>(best)])
        best = i;
    if (best != cur_ &&
        costs[static_cast<size_t>(best)] <
            costs[static_cast<size_t>(cur_)] * (1.0 - pol_.hysteresis)) {
      cur_ = best;
      dwell_left_ = pol_.dwell;
      ++switches_;
    }
    return cur_;
  }

  int switches() const { return switches_; }

 private:
  int cur_ = 0;
  int dwell_left_ = 0;
  int switches_ = 0;
  KnobPolicy pol_;
};

/// Trailing-window ratio estimator: rate() = sum(num) / sum(den) over the
/// last `window` observations. Used for measured unit rates (ns per scanned
/// edge, ns per unvisited vertex, bytes per chunk).
class TrailingMean {
 public:
  explicit TrailingMean(int window = 3)
      : window_(window < 1 ? 1 : window) {}

  void push(double num, double den) {
    if (static_cast<int>(num_.size()) == window_) {
      num_sum_ -= num_.front();
      den_sum_ -= den_.front();
      num_.erase(num_.begin());
      den_.erase(den_.begin());
    }
    num_.push_back(num);
    den_.push_back(den);
    num_sum_ += num;
    den_sum_ += den;
  }

  bool ready() const { return den_sum_ > 0.0; }
  double rate() const { return den_sum_ > 0.0 ? num_sum_ / den_sum_ : 0.0; }
  int samples() const { return static_cast<int>(num_.size()); }

 private:
  int window_;
  std::vector<double> num_, den_;
  double num_sum_ = 0.0, den_sum_ = 0.0;
};

/// Adaptive traversal-direction choice. Observes each completed level's
/// allreduced kernel time and work denominator, maintains per-direction
/// unit rates (top-down: ns per scanned edge; bottom-up: ns per unvisited
/// vertex), and predicts the next level's cost under both directions. Until
/// both rates have history it falls back to the static Beamer thresholds,
/// so the first td->bu switch happens exactly where the hand-tuned alpha
/// puts it and the controller refines from there.
class DirectionController {
 public:
  DirectionController(int window, KnobPolicy pol)
      : td_(window), bu_(window), arb_(0, pol) {}

  /// One completed level: `dir` it ran in, `level_ns` the allreduce-summed
  /// kernel time, `edges_scanned` the allreduce-summed scan count, and
  /// `unvisited_before` the global unvisited-vertex count at level start.
  void observe(int dir, double level_ns, std::uint64_t edges_scanned,
               std::uint64_t unvisited_before) {
    if (dir == 0)
      td_.push(level_ns, static_cast<double>(edges_scanned));
    else
      bu_.push(level_ns, static_cast<double>(unvisited_before));
  }

  /// Direction of the next level. `mf` = frontier edges a top-down level
  /// would scan, `unvisited_after` = global unvisited vertices a bottom-up
  /// level would probe, `nf`/`rem`/`n` + alpha/beta feed the Beamer
  /// fallback used while a side lacks measurements.
  int decide(int cur_dir, bool growing, std::uint64_t nf, std::uint64_t mf,
             std::uint64_t rem, std::uint64_t unvisited_after,
             std::uint64_t n, double alpha, double beta) {
    if (!td_.ready() || !bu_.ready()) {
      // The static hybrid's rule.
      const int next =
          bfs::Beamer{alpha, beta}.next(cur_dir, growing, nf, mf, rem, n);
      if (next != cur_dir) ++fallback_switches_;
      return next;
    }
    const double costs[2] = {
        td_.rate() * static_cast<double>(mf),
        bu_.rate() * static_cast<double>(unvisited_after)};
    return arb_.decide(costs);
  }

  /// Measured-state switches plus threshold-fallback switches.
  int switches() const { return arb_.switches() + fallback_switches_; }

 private:
  TrailingMean td_;   ///< ns per scanned edge (top-down levels)
  TrailingMean bu_;   ///< ns per unvisited vertex (bottom-up levels)
  KnobArbiter arb_;
  int fallback_switches_ = 0;
};

}  // namespace numabfs::tune
