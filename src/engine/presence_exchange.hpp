#pragma once
/// \file presence_exchange.hpp
/// The per-level exchange of MS-BFS waves and frontier programs (DESIGN.md
/// §9). A partition's chunk is a presence bitmap (one bit per vertex of the
/// block), the block's out summary and a payload per nonzero vertex; it
/// rides the 1-D BFS's collective-plan core (bfs/exchange.hpp). The
/// presence bitmap rides coded only when the measured dense encodings beat
/// raw on average (§10); ring time is bound by the fullest chunk.

#include <cstdint>
#include <functional>
#include <span>

#include "bfs/config.hpp"
#include "bfs/costs.hpp"
#include "graph/summary.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::engine {

/// One partition's out block as the caller measured it.
struct Presence {
  std::uint64_t nnz = 0;  ///< vertices that carry a payload
  /// The block's presence bitmap, one bit per vertex; read only when the
  /// codec is on (`scan` was asked for it).
  std::span<const std::uint64_t> bits;
  std::uint64_t scan_words = 0;  ///< words the measuring pass streamed
};

/// The caller's side of one presence exchange.
struct PresenceBlocks {
  const char* trace_name = "";  ///< the exchange's trace instant
  std::uint64_t block = 0;  ///< vertices per partition (a multiple of 64)
  std::uint64_t payload_bytes = 0;  ///< wire bytes per nonzero vertex
  graph::SummaryView replica_summary;  ///< the caller's frontier summary
  /// Measure partition `part`'s out block; build its presence bitmap only
  /// when `coded` (so the uncoded path pays no extra host pass).
  std::function<Presence(int part, bool coded)> scan;
  /// Copy partition `part`'s out block into the caller's replica.
  std::function<void(int part)> copy;
  /// Partition `part`'s out block words and out summary (wiped afterwards).
  std::function<std::span<std::uint64_t>(int part)> out;
  std::function<graph::SummaryView(int part)> out_summary;
};

/// Exchange the out blocks of `parts` (the caller's own partition plus any
/// it adopted) into every replica, then wipe them for the next level.
/// SPMD: every live rank calls. Charges Phase::bu_comm.
void presence_exchange(rt::Proc& p, const bfs::Config& cfg,
                       const bfs::UnitCosts& u, std::span<const int> parts,
                       const PresenceBlocks& b);

}  // namespace numabfs::engine
