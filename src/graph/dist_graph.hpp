#pragma once
/// \file dist_graph.hpp
/// Per-rank graph slices for the distributed BFS.
///
/// Each rank owns a contiguous vertex block and stores two views of the
/// edges incident to it (the graph is undirected, so these are the same
/// edge set, indexed two ways):
///  - bottom-up view: CSR over owned vertices v, listing global neighbors u
///    ("search for a parent", Beamer et al.), hub-first (below);
///  - top-down view: the same pairs grouped by the non-owned endpoint u,
///    so a frontier vertex u's owned children are found in one group scan.
///
/// Row order (DESIGN.md §5). A bottom-up search stops at its first
/// neighbour in the frontier, and hubs are the neighbours most likely to
/// be in it. So every bottom-up row holds its CSR row's entries by
/// descending class of the neighbour under a vertex ranking, CSR order
/// kept within a class; a ranking gives each vertex one class byte, by
/// default std::bit_width of its degree (degree_classes). The set of
/// vertices a BFS level discovers does not depend on which parent each
/// vertex takes, so levels, frontiers, directions and exchanged bytes are
/// those of any other row order; only the bottom-up probes, the parents
/// chosen and the time they take change. Top-down groups list their
/// targets ascending, whatever the CSR's order.
///
/// Construction is host work that no rank's virtual clock sees (Graph500
/// also excludes graph construction from TEPS). It is not only set-up: the
/// dynamic layer's compaction rebuilds the slices while queries are served
/// (DESIGN.md §14), so its host cost lands on the serving path.
///
/// Dynamic overlay (DESIGN.md §14). A LocalGraph can also be a *merged
/// epoch view* over an immutable base slice: `base` points at the frozen
/// slice, `dirty_words` marks the owned vertices whose adjacency the delta
/// store changed at or before the pinned epoch, and the patch arrays hold
/// the merged rows of exactly those vertices. Reads of clean rows forward
/// to the base; reads of dirty rows (and of patched top-down groups) go
/// through the patch storage and are counted in `patch_reads` — the
/// measured read amplification the kernels charge via
/// UnitCosts::delta_probe_ns. The accessors below are the ONLY read
/// interface the BFS/MS-BFS kernels use, so they run unmodified against
/// either a frozen slice or a merged view.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"

namespace numabfs::graph {

struct LocalGraph {
  std::uint64_t vbegin = 0;
  std::uint64_t vend = 0;

  // Bottom-up: row r is owned vertex (vbegin + r); entries are global ids.
  std::vector<std::uint64_t> bu_offsets;  // size owned+1
  std::vector<Vertex> bu_adj;

  // Top-down: group k covers source td_keys[k] (global, ascending) and its
  // owned targets td_adj[td_offsets[k] .. td_offsets[k+1]).
  std::vector<Vertex> td_keys;
  std::vector<std::uint64_t> td_offsets;  // size td_keys.size()+1
  std::vector<Vertex> td_adj;

  // --- dynamic overlay (unused when base == nullptr) --------------------
  /// Reference to one top-down group of a merged view: a range into either
  /// the base slice's td_adj (patched == false) or this view's
  /// patch_td_adj (patched == true). Offsets, not pointers, so a view can
  /// be moved or copied without dangling into its own storage.
  struct TdRef {
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    bool patched = false;
  };

  /// Frozen base slice this view overlays (nullptr: this IS a base slice).
  /// The base must outlive the view (the snapshot layer guarantees it by
  /// holding the owning BaseVersion alive).
  const LocalGraph* base = nullptr;
  std::vector<std::uint64_t> dirty_words;  ///< bitmap over owned vertices
  std::vector<std::uint64_t> dirty_rank;   ///< per-word dirty-popcount prefix
  std::vector<std::uint64_t> patch_offsets;  ///< size dirty_count+1
  std::vector<Vertex> patch_adj;             ///< merged rows, hub-first
  std::vector<TdRef> td_refs;         ///< one per merged td_keys entry
  std::vector<Vertex> patch_td_adj;   ///< patched group targets, sorted
  std::uint64_t merged_owned_edges = 0;
  /// Dirty-row / patched-group accesses since the last drain (measured
  /// read amplification). Mutated from const accessors; each LocalGraph
  /// has exactly one reading rank at a time (partition ownership, with
  /// barrier-ordered adoption hand-off), so no synchronization is needed.
  mutable std::uint64_t patch_reads = 0;

  std::uint64_t owned() const { return vend - vbegin; }
  std::uint64_t owned_edges() const {
    return base != nullptr ? merged_owned_edges : bu_adj.size();
  }

  bool is_dirty(std::uint64_t local_v) const {
    return base != nullptr &&
           ((dirty_words[local_v >> 6] >> (local_v & 63)) & 1ull) != 0;
  }
  std::uint64_t patch_row(std::uint64_t local_v) const {
    const std::uint64_t below =
        dirty_words[local_v >> 6] & ((1ull << (local_v & 63)) - 1);
    return dirty_rank[local_v >> 6] +
           static_cast<std::uint64_t>(std::popcount(below));
  }

  std::span<const Vertex> bu_neighbors(std::uint64_t local_v) const {
    if (base != nullptr) {
      if (is_dirty(local_v)) {
        ++patch_reads;
        const std::uint64_t r = patch_row(local_v);
        return {patch_adj.data() + patch_offsets[r],
                patch_adj.data() + patch_offsets[r + 1]};
      }
      return base->bu_neighbors(local_v);
    }
    return {bu_adj.data() + bu_offsets[local_v],
            bu_adj.data() + bu_offsets[local_v + 1]};
  }

  /// Degree of owned vertex (vbegin + local_v) under this view.
  std::uint64_t degree(std::uint64_t local_v) const {
    if (base != nullptr) {
      if (is_dirty(local_v)) {
        const std::uint64_t r = patch_row(local_v);
        return patch_offsets[r + 1] - patch_offsets[r];
      }
      return base->degree(local_v);
    }
    return bu_offsets[local_v + 1] - bu_offsets[local_v];
  }

  std::span<const Vertex> td_group(std::size_t k) const {
    if (base != nullptr) {
      const TdRef& t = td_refs[k];
      if (t.patched) {
        ++patch_reads;
        return {patch_td_adj.data() + t.off, patch_td_adj.data() + t.off + t.len};
      }
      return {base->td_adj.data() + t.off, base->td_adj.data() + t.off + t.len};
    }
    return {td_adj.data() + td_offsets[k], td_adj.data() + td_offsets[k + 1]};
  }

  /// Return and reset the dirty-read counter (called by the kernels right
  /// before they charge their modeled time, so merged-view amplification
  /// lands on the clock of the rank that did the reads).
  std::uint64_t take_patch_reads() const {
    const std::uint64_t r = patch_reads;
    patch_reads = 0;
    return r;
  }
};

/// One degree class per vertex: std::bit_width of its degree in `g`. The
/// ranking DistGraph::build orders rows by unless the caller supplies one.
std::vector<std::uint8_t> degree_classes(const Csr& g);

/// Working space of order_rows_hub_first for rows of up to `longest`
/// entries: the row's classes, and a copy of a row being placed.
struct RowOrderScratch {
  explicit RowOrderScratch(std::uint64_t longest = 0)
      : cls(longest), tmp(longest) {}
  std::vector<std::uint8_t> cls;
  std::vector<Vertex> tmp;
};

/// Order every row of (`offsets`, `adj`) hub-first under `ranking`: by
/// descending class of the neighbour, the current order kept within a
/// class. Rows up to 24 entries are ordered by insertion sort, longer ones
/// by a counting sort over their classes. `scratch` must hold the longest
/// row.
void order_rows_hub_first(std::span<const std::uint64_t> offsets,
                          std::span<Vertex> adj,
                          std::span<const std::uint8_t> ranking,
                          RowOrderScratch& scratch);

struct DistGraph {
  std::uint64_t n = 0;
  std::uint64_t directed_edges = 0;  ///< total adjacency entries (= 2m)
  Partition1D part{1, 1};
  std::vector<LocalGraph> locals;

  /// Slice `g` by `part`, ranks spread over the executor pool, every
  /// bottom-up row ordered hub-first under `ranking` (one class per
  /// vertex; see the file comment). Throws std::invalid_argument when the
  /// partition or the ranking and the CSR disagree on the vertex count.
  /// Must not be called from inside a rank.
  static DistGraph build(const Csr& g, const Partition1D& part,
                         std::span<const std::uint8_t> ranking);
  /// Ranked by `g`'s own degrees (degree_classes).
  static DistGraph build(const Csr& g, const Partition1D& part);
};

}  // namespace numabfs::graph
