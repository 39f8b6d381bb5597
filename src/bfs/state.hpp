#pragma once
/// \file state.hpp
/// Distributed BFS state: the queues/summaries of the paper's Fig. 1, with
/// ownership resolved by the sharing level (Fig. 5). The driver allocates
/// one `DistState` per run; ranks obtain views through the accessors
/// below, which hand back the private copy or the node-shared segment as
/// the configuration dictates.

#include <cstdint>
#include <span>
#include <vector>

#include "bfs/config.hpp"
#include "graph/bitmap.hpp"
#include "graph/dist_graph.hpp"
#include "graph/summary.hpp"

namespace numabfs::bfs {

class DistState {
 public:
  DistState(const graph::DistGraph& dg, const Config& cfg, int nodes, int ppn);

  /// Whether in_queue/in_queue_summary live in node-shared segments.
  bool shared_in() const { return shared_in_; }
  /// Whether out_queue/out_queue_summary live in node-shared segments.
  bool shared_out() const { return shared_out_; }

  const Config& config() const { return cfg_; }
  std::uint64_t padded_bits() const { return padded_bits_; }
  std::uint64_t summary_bits() const { return summary_bits_; }
  int nodes() const { return nodes_; }
  int ppn() const { return ppn_; }
  int node_of(int rank) const { return rank / ppn_; }

  // --- views (full padded-bit index space) ------------------------------
  graph::BitmapView in_queue(int rank) {
    return (shared_in_ ? node_in_queue_[node_of(rank)] : rank_in_queue_[rank])
        .view();
  }
  graph::SummaryView in_summary(int rank) {
    return (shared_in_ ? node_in_summary_[node_of(rank)]
                       : rank_in_summary_[rank])
        .view();
  }
  graph::BitmapView out_queue(int rank) {
    return (shared_out_ ? node_out_queue_[node_of(rank)]
                        : rank_out_queue_[rank])
        .view();
  }
  graph::SummaryView out_summary(int rank) {
    return (shared_out_ ? node_out_summary_[node_of(rank)]
                        : rank_out_summary_[rank])
        .view();
  }

  // --- owned-range structures (local index space) -----------------------
  graph::BitmapView visited(int rank) { return visited_[rank].view(); }
  std::span<graph::Vertex> pred(int rank) {
    return {pred_[rank].data(), pred_[rank].size()};
  }
  std::uint64_t& unvisited_edges(int rank) { return unvisited_edges_[rank]; }

  // --- sparse frontier (top-down levels) ---------------------------------
  /// The replicated global frontier list consumed by a top-down level
  /// (globally sorted: per-rank discoveries are sorted and rank blocks
  /// ascend). Rebuilt by the sparse exchange.
  std::vector<graph::Vertex>& frontier(int rank) { return frontier_[rank]; }
  /// Owned vertices discovered by this rank in the current level.
  std::vector<graph::Vertex>& discovered(int rank) { return discovered_[rank]; }

  // --- exchange codec scratch (DESIGN.md §10) ---------------------------
  /// Partition `part`'s encoded exchange contribution. Written by the
  /// partition's current owner (its rank, or the adopter after a crash)
  /// between the encode step and the assembly barrier; wire bytes are
  /// *measured* from its real size.
  std::vector<std::uint8_t>& enc_buf(int part) { return enc_buf_[part]; }

 private:
  Config cfg_;
  int nodes_;
  int ppn_;
  bool shared_in_;
  bool shared_out_;
  std::uint64_t padded_bits_;
  std::uint64_t summary_bits_;

  std::vector<graph::Bitmap> rank_in_queue_;
  std::vector<graph::Summary> rank_in_summary_;
  std::vector<graph::Bitmap> rank_out_queue_;
  std::vector<graph::Summary> rank_out_summary_;
  std::vector<graph::Bitmap> node_in_queue_;
  std::vector<graph::Summary> node_in_summary_;
  std::vector<graph::Bitmap> node_out_queue_;
  std::vector<graph::Summary> node_out_summary_;

  std::vector<graph::Bitmap> visited_;
  std::vector<std::vector<graph::Vertex>> pred_;
  std::vector<std::uint64_t> unvisited_edges_;
  std::vector<std::vector<graph::Vertex>> frontier_;
  std::vector<std::vector<graph::Vertex>> discovered_;
  std::vector<std::vector<std::uint8_t>> enc_buf_;
};

}  // namespace numabfs::bfs
