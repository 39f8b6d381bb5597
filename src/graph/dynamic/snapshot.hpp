#pragma once
/// \file snapshot.hpp
/// Epoch-stamped snapshot management of the dynamic graph layer
/// (DESIGN.md §14). The manager owns the current immutable base version
/// (canonical CSR + its per-rank slices) and one DeltaStore per rank;
/// writers ingest epoch batches, readers pin an epoch and get a merged
/// DistGraph view that satisfies the exact read interface the BFS / MS-BFS
/// kernels use — so the kernels run unmodified against it. Compaction
/// rebuilds the base at the current epoch and drops the folded deltas;
/// snapshots pinned earlier stay valid because they hold their BaseVersion
/// alive via shared_ptr.
///
/// Determinism contract: the base CSR is canonical (rows sorted, parallel
/// edges collapsed — EdgePolicy::sorted_dedup), merged rows are sorted
/// set-merges of base ⊕ deltas, and rebuild_csr() adopts those same
/// canonical rows as a CSR. The slices order those rows hub-first under
/// one ranking, fixed when the manager is constructed (ranking()): the
/// bases, the compactions and the merged views all use it. A pinned view
/// at epoch E therefore equals DistGraph::build(rebuild_csr(E), part(),
/// ranking()) row for row, and a BFS over it is bit-identical to one over
/// those slices; the only difference is the *measured* read amplification
/// (delta probes) the merged view charges.
///
/// All costs are modeled in virtual time and returned to the caller (the
/// serving driver decides which clock they land on); obs spans
/// (`ingest.append`, `snapshot.pin`, `compact.merge`) and
/// numabfs.metrics.v1 counters (`dyn.*`) are emitted when a Tracer /
/// Registry is attached.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "graph/dynamic/delta_store.hpp"
#include "graph/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::dyn {

/// Trace category of the dynamic layer's host-side spans.
inline constexpr const char* kCatDyn = "dyn";

/// One immutable base generation: the canonical CSR compacted at `epoch`
/// plus the frozen per-rank slices built from it under the manager's
/// ranking. Held via shared_ptr so merged views created before a
/// compaction keep their base alive.
struct BaseVersion {
  std::uint64_t epoch = 0;
  graph::Csr csr;
  graph::DistGraph dg;
};

/// A pinned, immutable view of the graph at one epoch. `graph` is either
/// the base itself (no deltas at this epoch) or a merged overlay whose
/// locals forward clean reads to `base->dg`.
struct Snapshot {
  std::uint64_t epoch = 0;
  std::shared_ptr<const BaseVersion> base;
  std::shared_ptr<const graph::DistGraph> graph;
  std::uint64_t deltas_applied = 0;  ///< records resolved into this view
  std::uint64_t patched_rows = 0;    ///< dirty bottom-up rows
  std::uint64_t patched_groups = 0;  ///< re-materialized top-down groups
  double pin_ns = 0;                 ///< modeled materialization cost

  const graph::DistGraph& dg() const { return *graph; }
};

struct IngestStats {
  std::uint64_t epoch = 0;       ///< the epoch this batch sealed
  std::uint64_t ops = 0;         ///< accepted EdgeOps
  std::uint64_t records = 0;     ///< routed records appended (<= 2 * ops)
  std::uint64_t tombstones = 0;  ///< delete records among them
  double route_ns = 0;           ///< writers -> owners alltoallv
  double append_ns = 0;          ///< memtable sort+merge, max over ranks
  double total_ns() const { return route_ns + append_ns; }
};

struct CompactionStats {
  std::uint64_t epoch = 0;           ///< base epoch after the rebuild
  std::uint64_t records_folded = 0;  ///< delta records retired
  std::uint64_t bytes_merged = 0;    ///< adjacency + delta bytes streamed
  /// Background-overlappable merge work (max over ranks): old and new runs
  /// streamed through the per-rank rebuild. Serving continues on the old
  /// base while this runs.
  double merge_ns = 0;
  /// Stop-the-world base swap: the epoch-agreement barrier during which
  /// admission is paused.
  double pause_ns = 0;
};

class SnapshotManager {
 public:
  /// `base_csr` must be canonical (rows sorted and duplicate-free; build it
  /// with EdgePolicy::sorted_dedup) — verified on construction. Its degree
  /// classes become the manager's ranking for its lifetime. The cluster
  /// provides topology and cost parameters for the virtual-time model;
  /// tracer/metrics are optional sinks.
  SnapshotManager(const rt::Cluster& cluster, graph::Csr base_csr,
                  const graph::Partition1D& part,
                  obs::Tracer* tracer = nullptr,
                  obs::Registry* metrics = nullptr);

  /// Latest sealed epoch (initially the base epoch, 0).
  std::uint64_t epoch() const { return epoch_; }
  const BaseVersion& base() const { return *base_; }
  std::shared_ptr<const BaseVersion> base_ptr() const { return base_; }
  const graph::Partition1D& part() const { return part_; }
  /// The ranking every slice and view orders its bottom-up rows by: the
  /// degree classes of the construction-time base (graph::degree_classes).
  /// It is not updated as degrees drift, so that a view is a function of
  /// its epoch alone, whenever compaction ran.
  std::span<const std::uint8_t> ranking() const { return ranking_; }

  std::uint64_t live_records() const;
  std::uint64_t live_bytes() const;
  /// Delta-store fill: live records relative to the base's directed edges.
  double fill() const;

  /// Seal the next epoch with this batch: route each accepted op to both
  /// endpoint owners and merge the per-rank batches into the memtables.
  /// Self-loops and out-of-range endpoints are dropped. `now_ns` stamps the
  /// obs span (virtual time of the serving driver).
  IngestStats ingest(std::span<const EdgeOp> ops, double now_ns = 0);

  /// Pin an immutable view at `epoch` (base()->epoch <= epoch <= epoch()).
  /// Throws std::out_of_range outside that window (epochs older than the
  /// current base were compacted away).
  ///
  /// Reuse: while `epoch`, the latest sealed epoch and the base are all
  /// unchanged since the last pin that built a view, and a caller still
  /// holds that snapshot, pin returns the same object (its read counters
  /// drained) instead of building it again. The manager holds it only
  /// weakly, so a dropped snapshot is never kept alive, and the next pin
  /// builds afresh. A reused snapshot carries the `pin_ns` its build
  /// charged — exactly what a fresh build would charge — so reuse saves
  /// host time only. `dyn.pins` and the `snapshot.pin` span fire on every
  /// call.
  ///
  /// A fresh pin resolves and materializes the ranks' views on the
  /// executor pool, so pin is host work: it throws std::logic_error when
  /// called inside a rank (a `Cluster::run` body).
  std::shared_ptr<const Snapshot> pin(std::uint64_t epoch, double now_ns = 0);

  /// Fold every live delta into a new base at the current epoch and drop
  /// the folded records. Existing snapshots are unaffected.
  CompactionStats compact(double now_ns = 0);

  /// Canonical CSR at `epoch`: the base rows set-merged with the deltas
  /// visible there, adopted as the CSR's rows without re-sorting. The
  /// input of compaction and of the 2-D path (DistGraph2d::build consumes
  /// a Csr), and the reference the validators check served answers
  /// against.
  graph::Csr rebuild_csr(std::uint64_t epoch) const;

  const DeltaStore& store(int rank) const {
    return stores_[static_cast<std::size_t>(rank)];
  }
  std::uint64_t compactions() const { return compactions_; }

 private:
  /// Build the view at `epoch` on the executor pool.
  std::shared_ptr<const Snapshot> build_snapshot(std::uint64_t epoch) const;

  const rt::Cluster& cluster_;
  graph::Partition1D part_;
  std::vector<std::uint8_t> ranking_;
  std::shared_ptr<const BaseVersion> base_;
  std::vector<DeltaStore> stores_;
  std::uint64_t epoch_ = 0;
  std::uint64_t compactions_ = 0;
  /// The last snapshot pin() built, and the sealed epoch it was built
  /// under: the reuse key (with its own epoch and base).
  std::weak_ptr<const Snapshot> last_pin_;
  std::uint64_t last_pin_sealed_ = 0;
  obs::Tracer* tracer_;
  obs::Registry* metrics_;
};

}  // namespace numabfs::dyn
