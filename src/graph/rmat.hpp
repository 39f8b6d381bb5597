#pragma once
/// \file rmat.hpp
/// R-MAT / Kronecker edge generator (Chakrabarti et al., SDM'04) with the
/// Graph500 parameters (A=0.57, B=0.19, C=0.19, D=0.05) and a bijective
/// vertex-label permutation, so generated graphs are scale-free but labels
/// carry no locality — the property that makes BFS communication-bound.
///
/// Generation is deterministic and splittable: edge i depends only on
/// (seed, i), so any sub-range of edges can be produced independently.
/// rmat_edges uses that to fill contiguous edge ranges on the executor
/// pool; the output does not depend on how the range is split.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace numabfs::graph {

struct RmatParams {
  int scale = 16;          ///< log2(number of vertices)
  int edgefactor = 16;     ///< edges = edgefactor * 2^scale
  double a = 0.57, b = 0.19, c = 0.19;  ///< d = 1 - a - b - c
  std::uint64_t seed = 20120924;        ///< CLUSTER 2012 conference date
  bool permute_labels = true;

  std::uint64_t num_vertices() const { return 1ull << scale; }
  std::uint64_t num_edges() const {
    return static_cast<std::uint64_t>(edgefactor) << scale;
  }

  /// Check the parameters; returns an actionable error message, or empty
  /// when they are valid. The generators throw std::invalid_argument on a
  /// non-empty result.
  std::string validate() const;
};

/// Generate edges [first, first+count) of the R-MAT stream, serially (the
/// ingest generator draws one edge per call). Throws
/// std::invalid_argument on invalid parameters.
std::vector<Edge> rmat_edge_range(const RmatParams& p, std::uint64_t first,
                                  std::uint64_t count);

/// Generate the full edge list on the executor pool. Throws
/// std::invalid_argument on invalid parameters; must not be called from
/// inside a rank.
std::vector<Edge> rmat_edges(const RmatParams& p);

/// The label permutation used by the generator (exposed for tests:
/// it must be a bijection on [0, 2^scale)).
Vertex rmat_permute_label(const RmatParams& p, Vertex v);

/// SplitMix64: the statelessly splittable PRNG underneath the generator.
std::uint64_t splitmix64(std::uint64_t x);

}  // namespace numabfs::graph
