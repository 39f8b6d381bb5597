#include "graph/dynamic/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "runtime/coll_model.hpp"

namespace numabfs::dyn {

namespace {

/// One resolved (last-wins at the pinned epoch) membership override.
/// For bottom-up rows: key = owned vertex, val = neighbor. For top-down
/// groups the roles are swapped (key = source, val = owned target).
struct Override {
  graph::Vertex key = 0;
  graph::Vertex val = 0;
  bool present = false;
};

/// Collapse a rank's delta records at `epoch` to one override per distinct
/// edge, in (owned, nbr) order. Records after `epoch` are invisible; the
/// temporally last record at or before it wins.
std::vector<Override> resolve_rank(const DeltaStore& st, std::uint64_t epoch) {
  std::vector<Override> out;
  const auto recs = st.records();
  std::size_t i = 0;
  while (i < recs.size()) {
    std::size_t j = i;
    int last = -1;
    while (j < recs.size() && recs[j].owned == recs[i].owned &&
           recs[j].nbr == recs[i].nbr) {
      if (recs[j].epoch <= epoch) last = static_cast<int>(j);
      ++j;
    }
    if (last >= 0)
      out.push_back({recs[i].owned, recs[i].nbr,
                     !recs[static_cast<std::size_t>(last)].tombstone});
    i = j;
  }
  return out;
}

/// Sorted set-merge of one canonical base row with its overrides: present
/// overrides insert, absent ones delete, everything else passes through.
/// Both inputs are ascending and duplicate-free, so the output is the
/// canonical row of the merged edge set.
void merge_row(std::span<const graph::Vertex> base,
               std::span<const Override> ovr,
               std::vector<graph::Vertex>& out) {
  std::size_t bi = 0;
  std::size_t oi = 0;
  while (bi < base.size() || oi < ovr.size()) {
    if (oi == ovr.size() || (bi < base.size() && base[bi] < ovr[oi].val)) {
      out.push_back(base[bi++]);
    } else if (bi == base.size() || ovr[oi].val < base[bi]) {
      if (ovr[oi].present) out.push_back(ovr[oi].val);
      ++oi;
    } else {  // same endpoint: the override decides membership
      if (ovr[oi].present) out.push_back(base[bi]);
      ++bi;
      ++oi;
    }
  }
}

/// Build one merged LocalGraph view over frozen slice `b` from the rank's
/// resolved overrides (sorted by (key, val)). Returns the count of
/// re-materialized top-down groups via `patched_groups`.
void build_merged_local(const graph::LocalGraph& b,
                        const std::vector<Override>& ovr,
                        graph::LocalGraph& lg,
                        std::uint64_t& patched_groups) {
  lg.vbegin = b.vbegin;
  lg.vend = b.vend;
  lg.base = &b;
  const std::uint64_t owned = b.owned();
  const std::uint64_t words = (owned + 63) / 64;
  lg.dirty_words.assign(words, 0);
  for (const Override& o : ovr) {
    const std::uint64_t lv = o.key - b.vbegin;
    lg.dirty_words[lv >> 6] |= 1ull << (lv & 63);
  }
  lg.dirty_rank.assign(words, 0);
  std::uint64_t dirty = 0;
  for (std::uint64_t w = 0; w < words; ++w) {
    lg.dirty_rank[w] = dirty;
    dirty += static_cast<std::uint64_t>(std::popcount(lg.dirty_words[w]));
  }

  // Bottom-up patches: one merged row per dirty vertex, in vertex order.
  lg.patch_offsets.assign(dirty + 1, 0);
  lg.patch_adj.clear();
  std::uint64_t row = 0;
  std::uint64_t base_dirty_edges = 0;
  std::size_t oi = 0;
  while (oi < ovr.size()) {
    const graph::Vertex v = ovr[oi].key;
    const std::uint64_t lv = v - b.vbegin;
    std::size_t oj = oi;
    while (oj < ovr.size() && ovr[oj].key == v) ++oj;
    lg.patch_offsets[row] = lg.patch_adj.size();
    merge_row(b.bu_neighbors(lv),
              std::span<const Override>(ovr).subspan(oi, oj - oi),
              lg.patch_adj);
    base_dirty_edges += b.degree(lv);
    ++row;
    oi = oj;
  }
  lg.patch_offsets[row] = lg.patch_adj.size();
  lg.merged_owned_edges =
      b.bu_adj.size() - base_dirty_edges + lg.patch_adj.size();

  // Top-down patches: re-key the overrides by source and merge the
  // affected groups; untouched groups stay offset references into the base.
  // Groups that merge to empty are dropped, so the merged td_keys equal a
  // from-scratch rebuild's.
  std::vector<Override> tdo;
  tdo.reserve(ovr.size());
  for (const Override& o : ovr) tdo.push_back({o.val, o.key, o.present});
  std::sort(tdo.begin(), tdo.end(), [](const Override& a, const Override& b2) {
    return a.key != b2.key ? a.key < b2.key : a.val < b2.val;
  });

  lg.td_keys.clear();
  lg.td_refs.clear();
  lg.patch_td_adj.clear();
  std::size_t k = 0;
  std::size_t t = 0;
  while (k < b.td_keys.size() || t < tdo.size()) {
    const bool has_base =
        k < b.td_keys.size() &&
        (t >= tdo.size() || b.td_keys[k] <= tdo[t].key);
    const graph::Vertex key = has_base ? b.td_keys[k] : tdo[t].key;
    std::size_t tj = t;
    while (tj < tdo.size() && tdo[tj].key == key) ++tj;
    if (has_base && tj == t) {  // untouched: reference the base range
      lg.td_keys.push_back(key);
      lg.td_refs.push_back({b.td_offsets[k],
                            b.td_offsets[k + 1] - b.td_offsets[k], false});
      ++k;
      continue;
    }
    const std::uint64_t off = lg.patch_td_adj.size();
    std::span<const graph::Vertex> bg{};
    if (has_base) {
      bg = {b.td_adj.data() + b.td_offsets[k],
            b.td_adj.data() + b.td_offsets[k + 1]};
      ++k;
    }
    merge_row(bg, std::span<const Override>(tdo).subspan(t, tj - t),
              lg.patch_td_adj);
    t = tj;
    const std::uint64_t len = lg.patch_td_adj.size() - off;
    if (len != 0) {
      lg.td_keys.push_back(key);
      lg.td_refs.push_back({off, len, true});
      ++patched_groups;
    }
  }
  lg.td_offsets.clear();  // unused by the merged-view accessors
}

/// A merged overlay plus the base generation its locals point into. The
/// published DistGraph pointer aliases `dg`, so any holder of the view —
/// even one that dropped the Snapshot, like a serving tier's failover
/// unit — keeps the frozen base slices alive across compactions.
struct MergedView {
  std::shared_ptr<const BaseVersion> base;
  graph::DistGraph dg;
};

}  // namespace

SnapshotManager::SnapshotManager(const rt::Cluster& cluster,
                                 graph::Csr base_csr,
                                 const graph::Partition1D& part,
                                 obs::Tracer* tracer, obs::Registry* metrics)
    : cluster_(cluster), part_(part), tracer_(tracer), metrics_(metrics) {
  if (part_.np() != cluster_.nranks())
    throw std::invalid_argument(
        "SnapshotManager: partition width must match the cluster");
  for (std::uint64_t v = 0; v < base_csr.num_vertices(); ++v) {
    const auto nb = base_csr.neighbors(static_cast<graph::Vertex>(v));
    for (std::size_t i = 1; i < nb.size(); ++i)
      if (nb[i] <= nb[i - 1])
        throw std::invalid_argument(
            "SnapshotManager: base CSR must be canonical (build it with "
            "EdgePolicy::sorted_dedup)");
  }
  auto base = std::make_shared<BaseVersion>();
  base->epoch = 0;
  base->dg = graph::DistGraph::build(base_csr, part_);
  base->csr = std::move(base_csr);
  base_ = std::move(base);
  stores_.reserve(static_cast<std::size_t>(part_.np()));
  for (int r = 0; r < part_.np(); ++r)
    stores_.emplace_back(part_.begin(r), part_.end(r));
}

std::uint64_t SnapshotManager::live_records() const {
  std::uint64_t n = 0;
  for (const DeltaStore& s : stores_) n += s.size();
  return n;
}

std::uint64_t SnapshotManager::live_bytes() const {
  return live_records() * sizeof(DeltaRec);
}

double SnapshotManager::fill() const {
  const auto m = static_cast<double>(base_->csr.num_directed_edges());
  return m > 0 ? static_cast<double>(live_records()) / m : 0.0;
}

IngestStats SnapshotManager::ingest(std::span<const EdgeOp> ops,
                                    double now_ns) {
  IngestStats s;
  s.epoch = ++epoch_;
  const int np = part_.np();
  const int ppn = cluster_.ppn();
  const int nnodes = cluster_.topo().nodes();
  const std::uint64_t n = base_->csr.num_vertices();
  const auto& cp = cluster_.params();

  std::vector<std::vector<DeltaRec>> batches(static_cast<std::size_t>(np));
  std::vector<std::uint64_t> intra(static_cast<std::size_t>(nnodes), 0);
  std::vector<std::uint64_t> inter(static_cast<std::size_t>(nnodes), 0);
  std::uint64_t idx = 0;
  for (const EdgeOp& op : ops) {
    // Writers are striped over the serving ranks; each accepted op fans out
    // to both endpoint owners (possibly the same rank, twice).
    const int writer = static_cast<int>(idx++ % static_cast<std::uint64_t>(np));
    if (op.u == op.v || op.u >= n || op.v >= n) continue;
    const graph::Vertex ends[2][2] = {{op.u, op.v}, {op.v, op.u}};
    for (const auto& e : ends) {
      const int dest = part_.owner(e[0]);
      batches[static_cast<std::size_t>(dest)].push_back(
          {e[0], e[1], epoch_, op.remove});
      const auto node = static_cast<std::size_t>(dest / ppn);
      if (dest / ppn == writer / ppn)
        intra[node] += sizeof(DeltaRec);
      else
        inter[node] += sizeof(DeltaRec);
    }
    ++s.ops;
    s.records += 2;
    if (op.remove) s.tombstones += 2;
  }

  std::uint64_t max_intra = 0;
  std::uint64_t max_inter = 0;
  for (std::size_t nd = 0; nd < intra.size(); ++nd) {
    max_intra = std::max(max_intra, intra[nd]);
    max_inter = std::max(max_inter, inter[nd]);
  }
  if (s.records > 0)
    s.route_ns = rt::coll_model::hier_alltoallv_ns(
                     cluster_, nnodes, ppn, max_intra, max_inter,
                     rt::coll_model::HierLevel::node)
                     .total_ns;

  for (int r = 0; r < np; ++r) {
    auto& batch = batches[static_cast<std::size_t>(r)];
    if (batch.empty()) continue;
    const auto bsz = static_cast<double>(batch.size());
    const double sort_ns =
        bsz * std::max(1.0, std::log2(bsz)) * cp.probe_work_ns;
    stores_[static_cast<std::size_t>(r)].append(std::move(batch));
    // The memtable merge streams the whole (flat, sorted) run — the cost
    // that grows with fill and motivates compaction.
    const double merge_ns =
        static_cast<double>(stores_[static_cast<std::size_t>(r)].bytes()) /
        8.0 * cp.stream_word_ns;
    s.append_ns = std::max(s.append_ns, sort_ns + merge_ns);
  }

  if (metrics_ != nullptr) {
    metrics_->counter("dyn.deltas_applied").add(s.records);
    metrics_->counter("dyn.tombstones").add(s.tombstones);
  }
  if (tracer_ != nullptr)
    tracer_->span(tracer_->host_track(), kCatDyn, "ingest.append", now_ns,
                  now_ns + s.total_ns(),
                  obs::kv("epoch", s.epoch) + "," + obs::kv("ops", s.ops) +
                      "," + obs::kv("records", s.records) + "," +
                      obs::kv("tombstones", s.tombstones));
  return s;
}

std::shared_ptr<const Snapshot> SnapshotManager::pin(std::uint64_t epoch,
                                                     double now_ns) {
  if (epoch < base_->epoch || epoch > epoch_)
    throw std::out_of_range(
        "SnapshotManager::pin: epoch outside [base, current] — epochs below "
        "the base were compacted away");
  const int np = part_.np();
  const auto& cp = cluster_.params();

  auto snap = std::make_shared<Snapshot>();
  snap->epoch = epoch;
  snap->base = base_;

  std::vector<std::vector<Override>> ovr(static_cast<std::size_t>(np));
  bool any = false;
  double max_rank_ns = 0;
  for (int r = 0; r < np; ++r) {
    const DeltaStore& st = stores_[static_cast<std::size_t>(r)];
    std::uint64_t visible = 0;
    for (const DeltaRec& rec : st.records())
      if (rec.epoch <= epoch) ++visible;
    snap->deltas_applied += visible;
    ovr[static_cast<std::size_t>(r)] = resolve_rank(st, epoch);
    any = any || !ovr[static_cast<std::size_t>(r)].empty();
    max_rank_ns = std::max(
        max_rank_ns, static_cast<double>(st.size()) * cp.probe_work_ns);
  }

  if (!any) {
    // Clean pin: the base itself is the view (no read amplification).
    snap->graph = std::shared_ptr<const graph::DistGraph>(base_, &base_->dg);
    snap->pin_ns = rt::coll_model::allreduce_ns(cluster_, cluster_.world());
  } else {
    auto mv = std::make_shared<MergedView>();
    mv->base = base_;
    graph::DistGraph& g = mv->dg;
    g.n = base_->dg.n;
    g.part = part_;
    g.locals.resize(static_cast<std::size_t>(np));
    std::uint64_t directed = 0;
    for (int r = 0; r < np; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      build_merged_local(base_->dg.locals[ri], ovr[ri], g.locals[ri],
                         snap->patched_groups);
      directed += g.locals[ri].merged_owned_edges;
      snap->patched_rows += g.locals[ri].patch_offsets.size() - 1;
      const double words =
          static_cast<double>(g.locals[ri].patch_adj.size() +
                              g.locals[ri].patch_td_adj.size()) *
              sizeof(graph::Vertex) / 8.0 +
          static_cast<double>(g.locals[ri].dirty_words.size());
      max_rank_ns = std::max(
          max_rank_ns,
          static_cast<double>(ovr[ri].size()) * cp.probe_work_ns +
              words * cp.stream_word_ns);
    }
    g.directed_edges = directed;
    snap->graph = std::shared_ptr<const graph::DistGraph>(std::move(mv), &g);
    snap->pin_ns =
        rt::coll_model::allreduce_ns(cluster_, cluster_.world()) + max_rank_ns;
  }

  if (metrics_ != nullptr) metrics_->counter("dyn.pins").add(1);
  if (tracer_ != nullptr)
    tracer_->span(tracer_->host_track(), kCatDyn, "snapshot.pin", now_ns,
                  now_ns + snap->pin_ns,
                  obs::kv("epoch", epoch) + "," +
                      obs::kv("deltas", snap->deltas_applied) + "," +
                      obs::kv("patched_rows", snap->patched_rows));
  return snap;
}

graph::Csr SnapshotManager::rebuild_csr(std::uint64_t epoch) const {
  if (epoch < base_->epoch || epoch > epoch_)
    throw std::out_of_range("SnapshotManager::rebuild_csr: epoch outside "
                            "[base, current]");
  const graph::Csr& b = base_->csr;
  const std::uint64_t n = b.num_vertices();
  std::vector<graph::Edge> edges;
  edges.reserve(b.num_directed_edges() / 2 + live_records());
  std::vector<graph::Vertex> row;
  for (int r = 0; r < part_.np(); ++r) {
    const auto ovr = resolve_rank(stores_[static_cast<std::size_t>(r)], epoch);
    std::size_t oi = 0;
    for (std::uint64_t v = part_.begin(r); v < part_.end(r); ++v) {
      std::size_t oj = oi;
      while (oj < ovr.size() && ovr[oj].key == v) ++oj;
      row.clear();
      merge_row(b.neighbors(static_cast<graph::Vertex>(v)),
                std::span<const Override>(ovr).subspan(oi, oj - oi), row);
      oi = oj;
      // Routed records cover every edge at both endpoints, so emitting the
      // u < v half once reconstructs the undirected set exactly.
      for (graph::Vertex nb : row)
        if (v < nb) edges.push_back({static_cast<graph::Vertex>(v), nb});
    }
  }
  return graph::Csr::from_edges(n, edges, graph::EdgePolicy::sorted_dedup);
}

CompactionStats SnapshotManager::compact(double now_ns) {
  CompactionStats cs;
  cs.epoch = epoch_;
  cs.records_folded = live_records();
  if (cs.records_folded == 0 && epoch_ == base_->epoch) return cs;

  const auto& cp = cluster_.params();
  graph::Csr nc = rebuild_csr(epoch_);

  double max_rank_ns = 0;
  for (int r = 0; r < part_.np(); ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const std::uint64_t old_e = base_->dg.locals[ri].owned_edges();
    const std::uint64_t new_e =
        nc.offsets()[part_.end(r)] - nc.offsets()[part_.begin(r)];
    // Both adjacency runs are streamed twice (bottom-up slice plus the
    // top-down regroup), and the rank's delta run once.
    const double words =
        2.0 * static_cast<double>(old_e + new_e) * sizeof(graph::Vertex) /
            8.0 +
        static_cast<double>(stores_[ri].bytes()) / 8.0;
    max_rank_ns = std::max(max_rank_ns, words * cp.stream_word_ns);
  }
  cs.merge_ns = max_rank_ns;
  cs.pause_ns = rt::coll_model::allreduce_ns(cluster_, cluster_.world());
  cs.bytes_merged =
      (base_->csr.num_directed_edges() + nc.num_directed_edges()) *
          sizeof(graph::Vertex) +
      cs.records_folded * sizeof(DeltaRec);

  auto nb = std::make_shared<BaseVersion>();
  nb->epoch = epoch_;
  nb->dg = graph::DistGraph::build(nc, part_);
  nb->csr = std::move(nc);
  base_ = std::move(nb);
  for (DeltaStore& st : stores_) st.truncate_through(epoch_);
  ++compactions_;

  if (metrics_ != nullptr) {
    metrics_->counter("dyn.compactions").add(1);
    metrics_->counter("dyn.bytes_merged").add(cs.bytes_merged);
  }
  if (tracer_ != nullptr) {
    tracer_->span(tracer_->host_track(), kCatDyn, "compact.merge", now_ns,
                  now_ns + cs.merge_ns,
                  obs::kv("epoch", cs.epoch) + "," +
                      obs::kv("records", cs.records_folded) + "," +
                      obs::kv("bytes_merged", cs.bytes_merged));
    tracer_->span(tracer_->host_track(), kCatDyn, "compact.pause",
                  now_ns + cs.merge_ns, now_ns + cs.merge_ns + cs.pause_ns);
  }
  return cs;
}

}  // namespace numabfs::dyn
