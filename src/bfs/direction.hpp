#pragma once
/// \file direction.hpp
/// The direction policy of every level loop, written once (DESIGN.md §6).
///
/// - `Beamer`: the α/β rule of the 1-D and 2-D BFS, also the fallback of
///   tune::DirectionController while it lacks measured rates.
/// - `LaneCostModel`: the kernel choice of the MS-BFS wave and the frontier
///   programs, whose lane/value union frontier breaks the scalar rule.
///
/// Both are pure functions of allreduced, rank-uniform inputs, so every
/// rank reaches the same decision.

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "bfs/costs.hpp"

namespace numabfs::bfs {

/// Beamer's direction-optimizing rule. Directions: 0 = top-down, 1 =
/// bottom-up.
struct Beamer {
  double alpha = 14.0;
  double beta = 24.0;

  /// Direction of the level after one run in `dir` that discovered `nf`
  /// vertices carrying `mf` edges, with `rem` edges still unexplored among
  /// `n` vertices. td -> bu additionally requires a *growing* frontier: at
  /// the tail the remaining-edge denominator collapses and the ratio test
  /// alone would bounce back into bottom-up for a dying frontier.
  int next(int dir, bool growing, std::uint64_t nf, std::uint64_t mf,
           std::uint64_t rem, std::uint64_t n) const {
    if (dir == 0 && growing &&
        static_cast<double>(mf) > static_cast<double>(rem) / alpha)
      return 1;
    if (dir == 1 && static_cast<double>(nf) < static_cast<double>(n) / beta)
      return 0;
    return dir;
  }

  /// Direction of the first level, whose frontier is the root alone: the
  /// td -> bu test on the root's `root_edges`.
  int first(std::uint64_t root_edges, std::uint64_t rem) const {
    return next(0, /*growing=*/true, 1, root_edges, rem, 0);
  }
};

/// One level's kernel choice for a lane or value frontier.
struct LaneChoice {
  int dir = 0;               ///< 0 = sparse (push), 1 = dense (pull)
  bool use_summary = false;  ///< the dense kernel probes the frontier summary
};

/// Cost-model kernel choice, replacing the scalar Beamer hysteresis, which
/// the lane union breaks: 16 sources push the frontier's edge count over
/// E/alpha one level early, when the union frontier is still far too
/// sparse for the dense kernel. Each level the model estimates both
/// kernels' modeled cost from measured state and the simulator's own unit
/// costs:
///   sparse ~ a frontier-word stream + the frontier's real edges;
///   dense  ~ the needy vertices' adjacency, discounted by the early
///            break — a needy vertex stops scanning once its lanes are
///            collected, after about kDenseEarlyBreak / density probes at
///            union-frontier density `density`.
/// The same estimate decides whether the dense kernel consults the frontier
/// summary: probing it on every edge only pays when the expected skips
/// ((1-density)^granularity of the probes) outweigh the summary reads.
/// Every rank evaluates it with rank 0's unit costs.
struct LaneCostModel {
  double n = 0;            ///< vertices
  double np = 1;           ///< ranks
  double granularity = 1;  ///< vertices per frontier-summary bit
  UnitCosts u0;            ///< rank 0's unit costs

  /// `mf` = the frontier's edges, `nf` = its vertices, `needy` = owned
  /// vertices still missing an active lane, `mu` = their adjacency entries
  /// (all allreduced).
  LaneChoice choose(double mf, double nf, double needy, double mu) const {
    constexpr double kDenseEarlyBreak = 2.0;
    const double density = std::max(nf / n, 1e-12);
    const double p_empty = std::pow(1.0 - std::min(density, 1.0), granularity);
    const bool use_sum = u0.summary_probe_ns < p_empty * u0.inqueue_probe_ns;
    const double per_edge =
        u0.edge_scan_ns +
        (use_sum ? u0.summary_probe_ns + (1.0 - p_empty) * u0.inqueue_probe_ns
                 : u0.inqueue_probe_ns);
    const double est_scan = std::min(mu, needy * kDenseEarlyBreak / density);
    const double dense_est =
        (n / np) * u0.word_stream_ns + est_scan / np * per_edge;
    const double sparse_est = n * u0.word_stream_ns + nf * u0.group_search_ns +
                              mf / np * (u0.edge_scan_ns + u0.visited_probe_ns);
    return LaneChoice{dense_est < sparse_est ? 1 : 0, use_sum};
  }
};

}  // namespace numabfs::bfs
