#pragma once
/// \file csr.hpp
/// Compressed-sparse-row adjacency for the full graph. The distributed BFS
/// uses per-rank slices (dist_graph.hpp); the full CSR serves the serial
/// reference BFS, validation and construction.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace numabfs::graph {

/// Duplicate-edge semantics and row order of Csr::from_edges (DESIGN.md
/// §5, §14). The CSR is the construction and reference format; the order
/// the bottom-up kernels read is the slices' (DistGraph::build lists every
/// row hub-first, whatever the policy).
///
/// The frozen Graph500 path keeps parallel edges exactly as generated
/// (`keep_multiplicity`): TEPS counts every adjacency entry, as in the
/// reference code, and rows list their entries in generation order.
///
/// The mutating path needs *set* semantics (`sorted_dedup`): rows are
/// sorted ascending and parallel edges collapse to one entry, so that
/// delete-then-reinsert of an edge round-trips every degree to its prior
/// value, and a delta-merged view is bit-identical to a from-scratch
/// rebuild (both order the same sorted, duplicate-free rows the same way —
/// parent selection in the kernels depends on row order, and the merge
/// finds entries by binary search).
enum class EdgePolicy {
  keep_multiplicity,  ///< Graph500 reference semantics (the default)
  sorted_dedup,       ///< canonical set semantics for the dynamic layer
};

class Csr {
 public:
  /// Build from an edge list. Undirected: every edge is stored in both
  /// directions. Self-loops are dropped (they cannot contribute to a BFS
  /// tree); duplicate edges and row order follow `policy` (by default
  /// duplicates are kept, as in the Graph500 reference code, and rows are
  /// in generation order).
  static Csr from_edges(std::uint64_t num_vertices, std::span<const Edge> edges,
                        EdgePolicy policy = EdgePolicy::keep_multiplicity);

  /// Adopt rows that are already canonical — exactly what `sorted_dedup`
  /// builds from their edge set — without re-sorting them: row v is
  /// adj[offsets[v] .. offsets[v+1]), its entries below n, strictly
  /// ascending and never v itself, and the rows are symmetric (u lists v
  /// iff v lists u). The dynamic layer's rebuild passes the merged rows of
  /// its epoch views. Throws std::invalid_argument when the offsets do not
  /// run nondecreasing from 0 to adj.size(); the rows themselves are the
  /// caller's contract (debug builds assert all but symmetry).
  static Csr from_canonical_rows(std::vector<std::uint64_t> offsets,
                                 std::vector<Vertex> adj);

  std::uint64_t num_vertices() const { return n_; }
  /// Directed adjacency entries stored (2x the undirected edge count).
  std::uint64_t num_directed_edges() const { return adj_.size(); }

  std::uint64_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }
  std::span<const Vertex> neighbors(Vertex v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  const std::vector<std::uint64_t>& offsets() const { return offsets_; }
  const std::vector<Vertex>& adj() const { return adj_; }

 private:
  std::uint64_t n_ = 0;
  std::vector<std::uint64_t> offsets_;  // size n+1
  std::vector<Vertex> adj_;
};

}  // namespace numabfs::graph
