#include "graph/dynamic/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "runtime/coll_model.hpp"
#include "runtime/executor.hpp"

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
/// edge, in (owned, nbr) order, appended to `out`. Records after `epoch`
/// are invisible; the temporally last record at or before it wins.
void resolve_rank(const DeltaStore& st, std::uint64_t epoch,
                  std::vector<Override>& out) {
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
}

/// Sorted set-merge of one canonical base row with its overrides: present
/// overrides insert, absent ones delete, and the base entries between them
/// pass through as whole runs. Both inputs are ascending and
/// duplicate-free, so the output is the canonical row of the merged edge
/// set.
void merge_row(std::span<const graph::Vertex> base,
               std::span<const Override> ovr,
               std::vector<graph::Vertex>& out) {
  auto it = base.begin();
  for (const Override& o : ovr) {
    const auto at = std::lower_bound(it, base.end(), o.val);
    out.insert(out.end(), it, at);
    it = at != base.end() && *at == o.val ? at + 1 : at;
    if (o.present) out.push_back(o.val);
  }
  out.insert(out.end(), it, base.end());
}

/// One rank's share of a pin: its resolved overrides in both keyings, the
/// counts the calling thread sizes the rank's merged view from, and what
/// the view cost to build. Workers fill these; every buffer is allocated
/// by the calling thread (see SnapshotManager::pin).
struct RankPin {
  std::vector<Override> ovr;  ///< (owned, nbr) order: bottom-up rows
  std::vector<Override> tdo;  ///< (nbr, owned) order: top-down groups
  std::uint64_t visible = 0;  ///< records at or before the epoch
  std::uint64_t dirty = 0;    ///< distinct owned vertices among ovr
  std::uint64_t bu_cap = 0;   ///< bound on the merged dirty rows' entries
  std::uint64_t longest = 0;  ///< bound on one merged dirty row's entries
  std::uint64_t td_cap = 0;   ///< bound on the patched groups' entries
  std::uint64_t patched_groups = 0;
  graph::RowOrderScratch order;  ///< the merged rows' hub-first pass
  double ns = 0;  ///< the rank's modeled pin work
};

/// First pass of a pin on rank `b`'s slice: count the records visible at
/// `epoch`, resolve them, re-key the overrides by source for the top-down
/// groups, and bound the merged view's patch storage.
void resolve_pin(const DeltaStore& st, const graph::LocalGraph& b,
                 std::uint64_t epoch, double probe_work_ns, RankPin& rp) {
  for (const DeltaRec& rec : st.records())
    if (rec.epoch <= epoch) ++rp.visible;
  rp.ns = static_cast<double>(st.size()) * probe_work_ns;
  resolve_rank(st, epoch, rp.ovr);
  std::uint64_t row = 0;  // bound on the current dirty row's entries
  for (std::size_t i = 0; i < rp.ovr.size(); ++i) {
    const Override& o = rp.ovr[i];
    if (i == 0 || o.key != rp.ovr[i - 1].key) {
      ++rp.dirty;
      row = b.degree(o.key - b.vbegin);
      rp.bu_cap += row;
    }
    if (o.present) {
      ++rp.bu_cap;
      ++row;
    }
    rp.longest = std::max(rp.longest, row);
    rp.tdo.push_back({o.val, o.key, o.present});
  }
  std::sort(rp.tdo.begin(), rp.tdo.end(),
            [](const Override& x, const Override& y) {
              return x.key != y.key ? x.key < y.key : x.val < y.val;
            });
  // Both key lists ascend: one walk finds the base groups the overrides
  // touch.
  std::size_t k = 0;
  for (std::size_t i = 0; i < rp.tdo.size(); ++i) {
    const Override& o = rp.tdo[i];
    if (i == 0 || o.key != rp.tdo[i - 1].key) {
      while (k < b.td_keys.size() && b.td_keys[k] < o.key) ++k;
      if (k < b.td_keys.size() && b.td_keys[k] == o.key)
        rp.td_cap += b.td_offsets[k + 1] - b.td_offsets[k];
    }
    if (o.present) ++rp.td_cap;
  }
}

/// Second pass: materialize rank `b`'s merged view `lg` from its resolved
/// overrides. Each dirty row merges into its canonical row of the base CSR
/// `csr` (ascending, as merge_row needs), then takes the slices' hub-first
/// order under `ranking`. `lg`'s bitmaps and patch offsets are sized, and
/// its patch and group arrays and `rp.order` reserved, from `rp`'s counts,
/// so nothing here allocates.
void build_merged_local(const graph::LocalGraph& b, const graph::Csr& csr,
                        std::span<const std::uint8_t> ranking, RankPin& rp,
                        graph::LocalGraph& lg, const sim::CostParams& cp) {
  const std::vector<Override>& ovr = rp.ovr;
  lg.vbegin = b.vbegin;
  lg.vend = b.vend;
  lg.base = &b;
  const std::uint64_t words = lg.dirty_words.size();
  for (const Override& o : ovr) {
    const std::uint64_t lv = o.key - b.vbegin;
    lg.dirty_words[lv >> 6] |= 1ull << (lv & 63);
  }
  std::uint64_t dirty = 0;
  for (std::uint64_t w = 0; w < words; ++w) {
    lg.dirty_rank[w] = dirty;
    dirty += static_cast<std::uint64_t>(std::popcount(lg.dirty_words[w]));
  }

  // Bottom-up patches: one merged row per dirty vertex, in vertex order.
  std::uint64_t row = 0;
  std::uint64_t base_dirty_edges = 0;
  std::size_t oi = 0;
  while (oi < ovr.size()) {
    const graph::Vertex v = ovr[oi].key;
    const std::uint64_t lv = v - b.vbegin;
    std::size_t oj = oi;
    while (oj < ovr.size() && ovr[oj].key == v) ++oj;
    lg.patch_offsets[row] = lg.patch_adj.size();
    merge_row(csr.neighbors(v),
              std::span<const Override>(ovr).subspan(oi, oj - oi),
              lg.patch_adj);
    base_dirty_edges += b.degree(lv);
    ++row;
    oi = oj;
  }
  lg.patch_offsets[row] = lg.patch_adj.size();
  graph::order_rows_hub_first(lg.patch_offsets, lg.patch_adj, ranking,
                              rp.order);
  lg.merged_owned_edges =
      b.bu_adj.size() - base_dirty_edges + lg.patch_adj.size();

  // Top-down patches: merge the groups the re-keyed overrides touch;
  // untouched groups stay offset references into the base. Groups that
  // merge to empty are dropped, so the merged td_keys equal a from-scratch
  // rebuild's.
  const std::vector<Override>& tdo = rp.tdo;
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
      ++rp.patched_groups;
    }
  }

  const double stream_words =
      static_cast<double>(lg.patch_adj.size() + lg.patch_td_adj.size()) *
          sizeof(graph::Vertex) / 8.0 +
      static_cast<double>(words);
  rp.ns = std::max(rp.ns, static_cast<double>(ovr.size()) * cp.probe_work_ns +
                              stream_words * cp.stream_word_ns);
}

/// Run `body(r)` for every rank on the executor pool, one contiguous range
/// of ranks per worker, as DistGraph::build does.
template <class Body>
void for_each_rank(int np, const Body& body) {
  const int nw = std::min(np, rt::exec::max_workers());
  rt::exec::run(nw, [&](int w) {
    for (int r = np * w / nw; r < np * (w + 1) / nw; ++r) body(r);
  });
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
  ranking_ = graph::degree_classes(base_csr);
  auto base = std::make_shared<BaseVersion>();
  base->epoch = 0;
  base->dg = graph::DistGraph::build(base_csr, part_, ranking_);
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
  if (rt::exec::self() != nullptr)
    throw std::logic_error(
        "SnapshotManager::pin: called inside a rank; pins are host work on "
        "the executor pool");
  if (epoch < base_->epoch || epoch > epoch_)
    throw std::out_of_range(
        "SnapshotManager::pin: epoch outside [base, current] — epochs below "
        "the base were compacted away");

  std::shared_ptr<const Snapshot> snap = last_pin_.lock();
  if (snap != nullptr && snap->epoch == epoch && snap->base == base_ &&
      last_pin_sealed_ == epoch_) {
    // The view a fresh build would make, still held: hand it out again,
    // drained of its read counters as a fresh view starts.
    for (const graph::LocalGraph& lg : snap->dg().locals)
      (void)lg.take_patch_reads();
  } else {
    snap = build_snapshot(epoch);
    last_pin_ = snap;
    last_pin_sealed_ = epoch_;
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

std::shared_ptr<const Snapshot> SnapshotManager::build_snapshot(
    std::uint64_t epoch) const {
  const int np = part_.np();
  const auto& cp = cluster_.params();
  const auto& locals = base_->dg.locals;

  auto snap = std::make_shared<Snapshot>();
  snap->epoch = epoch;
  snap->base = base_;

  // Every buffer a worker fills is allocated here, on the calling thread:
  // memory allocated on a pool worker stays in that worker's malloc arena
  // (see DistGraph::build). A rank resolves at most one override per
  // record.
  std::vector<RankPin> rp(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    rp[ri].ovr.reserve(stores_[ri].size());
    rp[ri].tdo.reserve(stores_[ri].size());
  }
  for_each_rank(np, [&](int r) {
    const auto ri = static_cast<std::size_t>(r);
    resolve_pin(stores_[ri], locals[ri], epoch, cp.probe_work_ns, rp[ri]);
  });

  bool any = false;
  for (const RankPin& p : rp) {
    snap->deltas_applied += p.visible;
    any = any || !p.ovr.empty();
  }
  if (!any) {
    // Clean pin: the base itself is the view (no read amplification).
    snap->graph = std::shared_ptr<const graph::DistGraph>(base_, &base_->dg);
    snap->pin_ns = rt::coll_model::allreduce_ns(cluster_, cluster_.world());
    return snap;
  }

  auto mv = std::make_shared<MergedView>();
  mv->base = base_;
  graph::DistGraph& g = mv->dg;
  g.n = base_->dg.n;
  g.part = part_;
  g.locals.resize(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const graph::LocalGraph& b = locals[ri];
    graph::LocalGraph& lg = g.locals[ri];
    const std::uint64_t words = (b.owned() + 63) / 64;
    lg.dirty_words.assign(words, 0);
    lg.dirty_rank.assign(words, 0);
    lg.patch_offsets.assign(rp[ri].dirty + 1, 0);
    lg.patch_adj.reserve(rp[ri].bu_cap);
    lg.td_keys.reserve(b.td_keys.size() + rp[ri].tdo.size());
    lg.td_refs.reserve(b.td_keys.size() + rp[ri].tdo.size());
    lg.patch_td_adj.reserve(rp[ri].td_cap);
    rp[ri].order = graph::RowOrderScratch(rp[ri].longest);
  }
  for_each_rank(np, [&](int r) {
    const auto ri = static_cast<std::size_t>(r);
    build_merged_local(locals[ri], base_->csr, ranking_, rp[ri],
                       g.locals[ri], cp);
  });

  // Per-rank outputs reduced in rank order.
  std::uint64_t directed = 0;
  double max_rank_ns = 0;
  for (int r = 0; r < np; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    directed += g.locals[ri].merged_owned_edges;
    snap->patched_rows += rp[ri].dirty;
    snap->patched_groups += rp[ri].patched_groups;
    max_rank_ns = std::max(max_rank_ns, rp[ri].ns);
  }
  g.directed_edges = directed;
  snap->graph = std::shared_ptr<const graph::DistGraph>(std::move(mv), &g);
  snap->pin_ns =
      rt::coll_model::allreduce_ns(cluster_, cluster_.world()) + max_rank_ns;
  return snap;
}

graph::Csr SnapshotManager::rebuild_csr(std::uint64_t epoch) const {
  if (epoch < base_->epoch || epoch > epoch_)
    throw std::out_of_range("SnapshotManager::rebuild_csr: epoch outside "
                            "[base, current]");
  // The merged rows are the canonical rows of the epoch's edge set
  // (sorted set-merges of canonical base rows; the routed records keep
  // them symmetric), so the CSR adopts them as they are. Between two
  // overridden vertices the base rows pass through unchanged, so each
  // such run is copied whole.
  const graph::Csr& b = base_->csr;
  const auto& boff = b.offsets();
  const graph::Vertex* badj = b.adj().data();
  std::vector<std::uint64_t> offsets(b.num_vertices() + 1, 0);
  std::vector<graph::Vertex> adj;
  adj.reserve(b.num_directed_edges() + live_records());
  std::vector<Override> ovr;
  for (int r = 0; r < part_.np(); ++r) {
    ovr.clear();
    resolve_rank(stores_[static_cast<std::size_t>(r)], epoch, ovr);
    const std::uint64_t end = part_.end(r);
    std::uint64_t v = part_.begin(r);
    std::size_t oi = 0;
    for (;;) {
      const std::uint64_t dirty = oi < ovr.size() ? ovr[oi].key : end;
      const std::uint64_t at = adj.size();
      adj.insert(adj.end(), badj + boff[v], badj + boff[dirty]);
      for (std::uint64_t u = v; u < dirty; ++u)
        offsets[u + 1] = at + (boff[u + 1] - boff[v]);
      if (dirty == end) break;
      std::size_t oj = oi;
      while (oj < ovr.size() && ovr[oj].key == dirty) ++oj;
      merge_row(b.neighbors(static_cast<graph::Vertex>(dirty)),
                std::span<const Override>(ovr).subspan(oi, oj - oi), adj);
      offsets[dirty + 1] = adj.size();
      v = dirty + 1;
      oi = oj;
    }
  }
  return graph::Csr::from_canonical_rows(std::move(offsets), std::move(adj));
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
  nb->dg = graph::DistGraph::build(nc, part_, ranking_);
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
