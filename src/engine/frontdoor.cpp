#include "engine/frontdoor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <stdexcept>
#include <utility>

#include "harness/graph500.hpp"
#include "obs/trace.hpp"

namespace numabfs::engine {

const char* to_string(SloClass c) {
  switch (c) {
    case SloClass::full_distance: return "full";
    case SloClass::k_hop: return "khop";
    case SloClass::reachability: return "reach";
    case SloClass::analytics: return "analytics";
    case SloClass::kCount: break;
  }
  return "?";
}

SloClass slo_class_of(QueryKind k) {
  switch (k) {
    case QueryKind::full_distances: return SloClass::full_distance;
    case QueryKind::k_hop: return SloClass::k_hop;
    case QueryKind::st_reachability: return SloClass::reachability;
    case QueryKind::sssp:
    case QueryKind::pagerank:
    case QueryKind::components:
    case QueryKind::triangles:
      return SloClass::analytics;
  }
  return SloClass::full_distance;
}

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::pending: return "pending";
    case Outcome::served: return "served";
    case Outcome::failed_over: return "failed_over";
    case Outcome::degraded: return "degraded";
    case Outcome::shed: return "shed";
    case Outcome::lost: return "lost";
  }
  return "?";
}

double heartbeat_detect_ns(double outage_ns, double period_ns,
                           double backoff_ns, int threshold) {
  const double inf = std::numeric_limits<double>::infinity();
  if (!(outage_ns < inf)) return inf;
  // First unanswered probe: the earliest multiple of the period at or
  // after the outage (a probe sent exactly at the outage instant is lost —
  // heartbeat_ok is `now < outage`).
  const double t0 = std::ceil(std::max(0.0, outage_ns) / period_ns) *
                    period_ns;
  // threshold-1 backoff re-probes at b, 2b, 4b, ... after the first loss.
  const double extra =
      backoff_ns *
      static_cast<double>((1ull << static_cast<unsigned>(threshold - 1)) - 1);
  return t0 + extra;
}

namespace {

constexpr std::size_t kNoQuery = static_cast<std::size_t>(-1);

/// The exact-answer degradation cache fed by completed full-distance
/// lanes. The graph is undirected, so a drained full-distance BFS visits
/// its source's entire connected component — which makes both lookups
/// exact, not approximate. Entries carry the virtual instant they became
/// available; lookups at time T ignore anything newer (replica waves
/// overlap in virtual time, so "already computed" is a T-relative fact).
///
/// Entries are additionally keyed by the dynamic-graph epoch they were
/// harvested from: a distance array (or component labeling) computed
/// against an older snapshot is stale the moment the serving epoch moves —
/// an edge added since can merge components or shorten k-hop balls, so a
/// stale "exact" answer would silently be wrong. The cache keeps one
/// epoch's worth of answers and resets wholesale when a harvest or lookup
/// arrives from a newer epoch (epochs only move forward).
class DegradeCache {
 public:
  explicit DegradeCache(const graph::DistGraph& dg)
      : n_(dg.n),
        comp_(dg.n, -1),
        comp_avail_(dg.n, 0.0) {}

  void harvest(const graph::DistGraph& dg, WaveState& ws, int lane,
               graph::Vertex source, double avail_ns, std::uint64_t epoch) {
    roll_to(epoch);
    auto d = gather_lane_distances(dg, ws, lane);
    int c = comp_[source];
    if (c < 0) c = next_comp_++;
    for (graph::Vertex v = 0; v < n_; ++v) {
      if (d[v] == kUnreached || comp_[v] >= 0) continue;
      comp_[v] = c;
      comp_avail_[v] = avail_ns;
    }
    dists_.try_emplace(source, avail_ns, std::move(d));
  }

  /// Exact s-t reachability at time T against snapshot `epoch`, when some
  /// completed full-distance BFS of that same epoch has labeled either
  /// endpoint's component by then.
  bool try_reach(graph::Vertex s, graph::Vertex t, double T,
                 std::uint64_t epoch, bool& reached) const {
    if (epoch != epoch_) return false;  // cached answers predate the snapshot
    if (comp_[s] >= 0 && comp_avail_[s] <= T) {
      reached = comp_[t] == comp_[s];
      return true;
    }
    if (comp_[t] >= 0 && comp_avail_[t] <= T) {
      reached = comp_[s] == comp_[t];
      return true;
    }
    return false;
  }

  /// Exact k-hop neighborhood size at time T against snapshot `epoch`,
  /// when this exact source has a same-epoch cached distance array by then.
  bool try_khop(graph::Vertex s, int k, double T, std::uint64_t epoch,
                std::uint64_t& visited) const {
    if (epoch != epoch_) return false;
    const auto it = dists_.find(s);
    if (it == dists_.end() || it->second.first > T) return false;
    std::uint64_t n = 0;
    for (const Dist d : it->second.second)
      n += d != kUnreached && d <= static_cast<Dist>(k);
    visited = n;
    return true;
  }

 private:
  void roll_to(std::uint64_t epoch) {
    if (epoch == epoch_) return;
    epoch_ = epoch;
    std::fill(comp_.begin(), comp_.end(), -1);
    std::fill(comp_avail_.begin(), comp_avail_.end(), 0.0);
    next_comp_ = 0;
    dists_.clear();
  }

  graph::Vertex n_;
  std::uint64_t epoch_ = 0;  ///< snapshot the cached answers were computed on
  std::vector<int> comp_;
  std::vector<double> comp_avail_;
  int next_comp_ = 0;
  std::map<graph::Vertex, std::pair<double, std::vector<Dist>>> dists_;
};

}  // namespace

std::string FrontDoorConfig::validate() const {
  if (max_batch < 1 || max_batch > kMaxLanes)
    return "max_batch must be in [1, " + std::to_string(kMaxLanes) +
           "] (one lane word per wave)";
  if (queue_depth < 1) return "queue_depth must be >= 1";
  if (hb_period_ns <= 0)
    return "hb_period_ns must be positive (heartbeat probes need a period)";
  if (hb_backoff_ns <= 0)
    return "hb_backoff_ns must be positive (re-probe backoff doubles from it)";
  if (hb_threshold < 1)
    return "hb_threshold must be >= 1 consecutive losses";
  if (export_every < 1)
    return "export_every must be >= 1 (checkpoint epoch stride in levels)";
  if (est_window < 1)
    return "est_window must be >= 1 trailing waves";
  return {};
}

FrontDoor::FrontDoor(const bfs::Config& cfg, FrontDoorConfig fdc,
                     std::vector<ReplicaHandle> replicas)
    : cfg_(cfg), fdc_(std::move(fdc)), replicas_(std::move(replicas)) {
  if (replicas_.empty())
    throw std::invalid_argument("FrontDoor: need at least one replica");
  if (const std::string err = fdc_.validate(); !err.empty())
    throw std::invalid_argument("FrontDoor: " + err);
  if (const std::string err = cfg_.validate(); !err.empty())
    throw std::invalid_argument("FrontDoor: " + err);
  const ReplicaHandle& r0 = replicas_.front();
  for (const ReplicaHandle& r : replicas_) {
    if (r.cluster == nullptr || r.dg == nullptr)
      throw std::invalid_argument("FrontDoor: null replica handle");
    if (r.cluster->nranks() != r0.cluster->nranks() ||
        r.cluster->ppn() != r0.cluster->ppn() || r.dg->n != r0.dg->n)
      throw std::invalid_argument(
          "FrontDoor: replicas must share cluster shape and graph");
  }
  states_.reserve(replicas_.size());
  for (const ReplicaHandle& r : replicas_)
    states_.emplace_back(*r.dg, cfg_, r.cluster->topo().nodes(),
                         r.cluster->ppn(), fdc_.track_parents);
}

FrontDoorReport FrontDoor::serve(std::span<const Query> queries) {
  const auto nq = queries.size();
  for (std::size_t i = 1; i < nq; ++i)
    if (queries[i].arrival_ns < queries[i - 1].arrival_ns)
      throw std::invalid_argument("serve: queries not sorted by arrival");

  FrontDoorReport rep;
  rep.results.assign(nq, ServedQuery{});
  for (std::size_t i = 0; i < nq; ++i) {
    auto& r = rep.results[i];
    r.id = queries[i].id;
    r.kind = queries[i].kind;
    r.cls = slo_class_of(queries[i].kind);
    r.arrival_ns = queries[i].arrival_ns;
  }
  if (nq == 0) return rep;

  const int R = static_cast<int>(replicas_.size());
  const double inf = std::numeric_limits<double>::infinity();

  // Per-replica health + checkpoint slot. `outage_ns` is tier-absolute
  // virtual time (unlike the plan's windowed events, which restart with
  // each wave); `detect_ns` is when the door confirms the death — the
  // heartbeat closed form, possibly advanced by a data-path timeout.
  struct RepState {
    double free_ns = 0;
    double outage_ns = std::numeric_limits<double>::infinity();
    double detect_ns = std::numeric_limits<double>::infinity();
    WaveCheckpoint ckpt;
    ProgramCheckpoint pckpt;  ///< analytics dispatches export here
  };
  std::vector<RepState> reps(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    const faults::FaultInjector* inj = replicas_[r].cluster->injector();
    auto& rs = reps[static_cast<std::size_t>(r)];
    rs.outage_ns = inj != nullptr ? inj->outage_at_ns() : inf;
    rs.detect_ns = heartbeat_detect_ns(rs.outage_ns, fdc_.hb_period_ns,
                                       fdc_.hb_backoff_ns, fdc_.hb_threshold);
  }

  // A failover unit: the surviving work of an aborted wave, ready for
  // re-dispatch once the death is detected. When the dead replica exported
  // a valid epoch the unit resumes from it; otherwise the unfinished
  // lanes re-run from scratch on the healthy replica.
  struct Failover {
    std::vector<WaveQuery> batch;   // the original wave's lanes
    std::vector<std::size_t> idx;   // lane -> query index
    WaveCheckpoint ckpt;
    std::uint64_t resume_mask = 0;
    // Analytics units: one program query, resumed from its own checkpoint
    // kind (batch/ckpt/resume_mask stay empty).
    bool is_program = false;
    ProgramCheckpoint pckpt;
    double ready_ns = 0;   // detection instant
    double abort_abs = 0;  // tier-absolute abort time
    // The aborted wave's pinned snapshot (dynamic graphs): the resume runs
    // against the SAME epoch on the healthy replica — the checkpointed lane
    // state is only meaningful relative to that adjacency. Holding the
    // shared_ptr keeps the snapshot alive across background compactions.
    PinnedGraph pg;
  };
  std::vector<Failover> pending;

  DegradeCache cache(*replicas_.front().dg);
  const int ncls = static_cast<int>(SloClass::kCount);
  std::vector<std::deque<std::size_t>> queues(static_cast<std::size_t>(ncls));
  std::size_t next = 0;
  std::size_t queued = 0;
  std::size_t unresolved = nq;
  double last_dequeue = 0;
  double now = 0;
  double end_ns = 0;

  // Trailing wave-time history for the admission estimate: only waves
  // whose completion the door has *observed* by time t count.
  struct WaveDone {
    double complete_ns;
    double dur_ns;
  };
  std::vector<WaveDone> history;
  const auto est_wave_ns = [&](double t) {
    double sum = 0;
    int cnt = 0;
    for (auto it = history.rbegin();
         it != history.rend() && cnt < fdc_.est_window; ++it) {
      if (it->complete_ns > t) continue;
      sum += it->dur_ns;
      ++cnt;
    }
    return cnt > 0 ? sum / cnt : 0.0;
  };

  const auto admit = [&](double t) {
    while (next < nq && queries[next].arrival_ns <= t &&
           queued < static_cast<std::size_t>(fdc_.queue_depth)) {
      const double adm = std::max(queries[next].arrival_ns, last_dequeue);
      if (adm > queries[next].arrival_ns) ++rep.backpressured;
      rep.results[next].admit_ns = adm;
      queues[static_cast<std::size_t>(
                 static_cast<int>(slo_class_of(queries[next].kind)))]
          .push_back(next);
      ++queued;
      ++next;
    }
  };

  const auto resolve_degraded = [&](std::size_t qi, double t, bool reached,
                                    std::uint64_t visited) {
    auto& res = rep.results[qi];
    res.outcome = Outcome::degraded;
    res.start_ns = t;
    res.complete_ns = t;
    res.reached = reached;
    res.visited = visited;
    ++rep.degraded;
    --unresolved;
    end_ns = std::max(end_ns, t);
  };
  const auto resolve_dropped = [&](std::size_t qi, Outcome o) {
    rep.results[qi].outcome = o;
    rep.results[qi].complete_ns =
        std::numeric_limits<double>::quiet_NaN();
    ++rep.shed;
    --unresolved;
  };

  // Deadline-aware batch formation, most-critical class first. A k-hop or
  // reachability query that cannot meet its deadline (by the trailing
  // estimate) is degraded to an exact cached answer when possible, shed
  // otherwise; full-distance queries always ride a wave. Cache lookups are
  // made against `epoch` — the snapshot pinned for this dispatch — so a
  // degraded answer is always consistent with the graph the query would
  // have been served on. Analytics queries are background work: when no
  // wave query is dispatchable, exactly one is popped and returned (it owns
  // the whole dispatch); they are never shed or degraded.
  const auto form_batch = [&](double t, std::uint64_t epoch,
                              std::vector<WaveQuery>& batch,
                              std::vector<std::size_t>& idx) -> std::size_t {
    const double est = est_wave_ns(t);
    for (int c = 0; c < ncls; ++c) {
      if (static_cast<SloClass>(c) == SloClass::analytics) continue;
      auto& q = queues[static_cast<std::size_t>(c)];
      while (!q.empty() &&
             batch.size() < static_cast<std::size_t>(fdc_.max_batch)) {
        const std::size_t qi = q.front();
        const Query& query = queries[qi];
        const auto cls = static_cast<SloClass>(c);
        if (cls != SloClass::full_distance && est > 0 &&
            t + est > query.arrival_ns + fdc_.slo.deadline_ns(cls)) {
          q.pop_front();
          --queued;
          bool reached = false;
          std::uint64_t visited = 0;
          if (fdc_.degrade && cls == SloClass::reachability &&
              cache.try_reach(query.source, query.target, t, epoch,
                              reached)) {
            resolve_degraded(qi, t, reached, 0);
          } else if (fdc_.degrade && cls == SloClass::k_hop &&
                     cache.try_khop(query.source, query.k, t, epoch,
                                    visited)) {
            resolve_degraded(qi, t, false, visited);
          } else {
            resolve_dropped(qi, Outcome::shed);
          }
          continue;
        }
        q.pop_front();
        --queued;
        rep.results[qi].start_ns = t;
        batch.push_back({query.kind, query.source, query.target, query.k});
        idx.push_back(qi);
      }
    }
    auto& aq = queues[static_cast<std::size_t>(
        static_cast<int>(SloClass::analytics))];
    if (batch.empty() && !aq.empty()) {
      const std::size_t qi = aq.front();
      aq.pop_front();
      --queued;
      rep.results[qi].start_ns = t;
      return qi;
    }
    return kNoQuery;
  };

  // Run one wave on replica `r` at tier time `start` and account for it:
  // settle finished lanes (feeding the degradation cache), and turn an
  // abort into a pending failover unit. Shared by fresh, resumed and
  // re-run dispatches.
  const auto launch = [&](int r, double start, std::vector<WaveQuery> batch,
                          std::vector<std::size_t> idx,
                          const WaveCheckpoint* resume,
                          std::uint64_t resume_mask, bool after_failover,
                          PinnedGraph pg) {
    auto& rs = reps[static_cast<std::size_t>(r)];
    rt::Cluster& c = *replicas_[static_cast<std::size_t>(r)].cluster;
    // Snapshot acquisition is on the serving path: the pin delays the wave
    // (a failover re-dispatch carries pin_ns = 0 — it already holds the
    // snapshot). Replicas are content-identical, so one pinned view stands
    // in for each replica's local copy of the same epoch.
    start += pg.pin_ns;
    const graph::DistGraph& dg =
        pg.graph != nullptr ? *pg.graph
                            : *replicas_[static_cast<std::size_t>(r)].dg;
    WaveState& ws = states_[static_cast<std::size_t>(r)];

    WaveOptions o;
    o.epoch = pg.epoch;
    if (rs.outage_ns < inf) o.abort_at_ns = rs.outage_ns - start;
    o.export_every = fdc_.export_every;
    if (fdc_.checkpoint_waves) o.export_to = &rs.ckpt;
    o.resume_from = resume;
    o.resume_active = resume_mask;

    obs::Tracer* tr = c.tracer();
    if (tr != nullptr) tr->set_base_ns(start);
    const WaveResult wr = run_wave(c, dg, ws, batch, o);
    if (tr != nullptr) {
      tr->set_base_ns(0);
      tr->instant(tr->host_track(), obs::kCatEngine,
                  after_failover ? "wave.failover" : "wave.dispatch", start,
                  obs::kv("replica", r) + "," +
                      obs::kv("batch", static_cast<int>(batch.size())));
    }

    ++rep.waves;
    rep.levels += wr.levels;
    rep.recoveries += wr.recoveries;
    rep.ranks_lost = std::max(rep.ranks_lost, wr.ranks_lost);
    rep.busy_ns += wr.wave_ns;
    rep.counters += wr.profile_avg.counters();
    rs.free_ns = start + wr.wave_ns;
    end_ns = std::max(end_ns, rs.free_ns);
    history.push_back({rs.free_ns, wr.wave_ns});

    for (std::size_t l = 0; l < idx.size(); ++l) {
      const std::size_t qi = idx[l];
      if (qi == kNoQuery) continue;
      auto& res = rep.results[qi];
      if (res.outcome != Outcome::pending) continue;
      const LaneResult& lr = wr.lanes[l];
      if (!lr.finished) continue;  // aborted first; the failover unit below
      res.outcome = after_failover ? Outcome::failed_over : Outcome::served;
      res.replica = r;
      res.epoch = wr.epoch;
      res.complete_ns = start + lr.complete_ns;
      res.complete_level = lr.complete_level;
      res.reached = lr.reached;
      res.visited = lr.visited;
      --unresolved;
      end_ns = std::max(end_ns, res.complete_ns);
      if (fdc_.degrade && batch[l].kind == QueryKind::full_distances)
        cache.harvest(dg, ws, static_cast<int>(l), batch[l].source,
                      res.complete_ns, wr.epoch);
    }
    if (fdc_.sink) fdc_.sink(r, batch, wr, ws);

    if (wr.aborted) {
      // The batch timed out at the door: a data-path detection signal,
      // often well ahead of the heartbeat prober. Either way, the replica
      // is out and the surviving lanes become a failover unit.
      const double abort_abs = start + wr.abort_ns;
      rs.detect_ns =
          std::min(rs.detect_ns, abort_abs + fdc_.hb_backoff_ns);
      Failover fo;
      fo.batch = std::move(batch);
      fo.idx = std::move(idx);
      fo.ckpt = std::move(rs.ckpt);
      rs.ckpt = WaveCheckpoint{};
      fo.resume_mask = fo.ckpt.valid ? (wr.unfinished & fo.ckpt.active)
                                     : wr.unfinished;
      fo.ready_ns = rs.detect_ns;
      fo.abort_abs = abort_abs;
      fo.pg = std::move(pg);
      fo.pg.pin_ns = 0;  // the snapshot is already held; no re-pin charge
      pending.push_back(std::move(fo));
    }
  };

  // Analytics program instances, for the length of this serve() call.
  ProgramCache prog_cache(fdc_.programs);

  // Dispatch one analytics query through run_program on replica `r`: the
  // program owns the whole cluster for its duration, exports failover
  // checkpoints like a wave, and an outage-aborted run becomes a program
  // failover unit that resumes (or re-runs) on a healthy replica.
  const auto launch_program = [&](int r, double start, std::size_t qi,
                                  const ProgramCheckpoint* resume,
                                  bool after_failover, PinnedGraph pg) {
    auto& rs = reps[static_cast<std::size_t>(r)];
    rt::Cluster& c = *replicas_[static_cast<std::size_t>(r)].cluster;
    start += pg.pin_ns;
    const graph::DistGraph& dg =
        pg.graph != nullptr ? *pg.graph
                            : *replicas_[static_cast<std::size_t>(r)].dg;
    const Query& query = queries[qi];
    const FrontierProgram& prog =
        prog_cache.get(workload_of(query.kind), dg, pg.epoch);
    ProgramState pstate(dg, cfg_, c.topo().nodes(), c.ppn(),
                        prog.with_values());

    ProgramOptions o;
    o.epoch = pg.epoch;
    o.max_levels = fdc_.programs.max_levels;
    if (rs.outage_ns < inf) o.abort_at_ns = rs.outage_ns - start;
    o.export_every = fdc_.export_every;
    if (fdc_.checkpoint_waves) o.export_to = &rs.pckpt;
    o.resume_from = resume;

    obs::Tracer* tr = c.tracer();
    if (tr != nullptr) tr->set_base_ns(start);
    const ProgramResult res =
        run_program(c, dg, pstate, prog,
                    ProgramQuery{query.source, query.target}, o);
    if (tr != nullptr) {
      tr->set_base_ns(0);
      tr->instant(tr->host_track(), obs::kCatEngine,
                  after_failover ? "program.failover" : "program.dispatch",
                  start,
                  obs::kv("replica", r) + "," + obs::kv("query", query.id) +
                      "," + obs::kv("workload", prog.name()));
    }

    ++rep.program_runs;
    rep.levels += res.levels;
    rep.recoveries += res.recoveries;
    rep.ranks_lost = std::max(rep.ranks_lost, res.ranks_lost);
    rep.busy_ns += res.total_ns;
    rep.counters += res.profile_avg.counters();
    rs.free_ns = start + res.total_ns;
    end_ns = std::max(end_ns, rs.free_ns);
    // Program runs deliberately do NOT feed the wave-time estimate: they
    // run far longer than a wave, and counting them would make the
    // admission policy shed interactive queries after every analytics job.

    if (res.aborted) {
      const double abort_abs = start + res.abort_ns;
      rs.detect_ns = std::min(rs.detect_ns, abort_abs + fdc_.hb_backoff_ns);
      Failover fo;
      fo.is_program = true;
      fo.idx.assign(1, qi);
      fo.pckpt = std::move(rs.pckpt);
      rs.pckpt = ProgramCheckpoint{};
      fo.ready_ns = rs.detect_ns;
      fo.abort_abs = abort_abs;
      fo.pg = std::move(pg);
      fo.pg.pin_ns = 0;  // the snapshot is already held; no re-pin charge
      pending.push_back(std::move(fo));
      return;
    }

    auto& sq = rep.results[qi];
    sq.outcome = after_failover ? Outcome::failed_over : Outcome::served;
    sq.replica = r;
    sq.epoch = res.epoch;
    sq.complete_ns = start + res.total_ns;
    sq.complete_level = res.levels;
    sq.value = res.value;
    --unresolved;
    end_ns = std::max(end_ns, sq.complete_ns);
  };

  while (unresolved > 0) {
    admit(now);

    bool launched = false;
    for (int r = 0; r < R; ++r) {
      auto& rs = reps[static_cast<std::size_t>(r)];
      if (now >= rs.detect_ns) continue;  // confirmed down
      if (rs.free_ns > now) continue;     // mid-wave

      // Failover units outrank fresh batches: their queries are the
      // oldest in the system and already paid the detection blip.
      int fi = -1;
      for (std::size_t i = 0; i < pending.size(); ++i)
        if (pending[i].ready_ns <= now) {
          fi = static_cast<int>(i);
          break;
        }
      if (fi >= 0) {
        Failover fo = std::move(pending[static_cast<std::size_t>(fi)]);
        pending.erase(pending.begin() + fi);
        ++rep.failovers;
        rep.failover_blip_ns =
            std::max(rep.failover_blip_ns, now - fo.abort_abs);
        if (fo.is_program) {
          // One analytics query: resume from the exported program epoch
          // when the dead replica managed to ship one, re-run otherwise.
          const std::size_t qi = fo.idx.front();
          if (rep.results[qi].outcome == Outcome::pending)
            launch_program(r, now, qi, fo.pckpt.valid ? &fo.pckpt : nullptr,
                           true, std::move(fo.pg));
        } else if (fo.ckpt.valid && fo.resume_mask != 0) {
          launch(r, now, std::move(fo.batch), std::move(fo.idx), &fo.ckpt,
                 fo.resume_mask, true, std::move(fo.pg));
        } else {
          // No usable epoch (death before the first export): re-run the
          // unfinished lanes from scratch.
          std::vector<WaveQuery> batch;
          std::vector<std::size_t> idx;
          for (std::size_t l = 0; l < fo.idx.size(); ++l) {
            if (!(fo.resume_mask >> l & 1) || fo.idx[l] == kNoQuery)
              continue;
            if (rep.results[fo.idx[l]].outcome != Outcome::pending) continue;
            batch.push_back(fo.batch[l]);
            idx.push_back(fo.idx[l]);
          }
          // The from-scratch re-run still serves the original epoch: the
          // query was admitted against that snapshot, and the unit holds it.
          if (!batch.empty())
            launch(r, now, std::move(batch), std::move(idx), nullptr, 0,
                   true, std::move(fo.pg));
        }
        launched = true;
        continue;
      }

      // The snapshot is pinned BEFORE the batch forms: degradation-cache
      // lookups inside form_batch answer against the epoch this dispatch
      // would serve, never against a stale labeling from an older snapshot.
      PinnedGraph pg;
      if (fdc_.graph_source) pg = fdc_.graph_source(now);
      std::vector<WaveQuery> batch;
      std::vector<std::size_t> idx;
      const std::size_t pqi = form_batch(now, pg.epoch, batch, idx);
      if (pqi != kNoQuery) {
        launch_program(r, now, pqi, nullptr, false, std::move(pg));
        last_dequeue = now;
        admit(now);
        launched = true;
        continue;
      }
      if (batch.empty()) continue;  // everything degraded or shed
      launch(r, now, std::move(batch), std::move(idx), nullptr, 0, false,
             std::move(pg));
      last_dequeue = now;
      admit(now);  // freed queue slots let door-blocked arrivals in
      launched = true;
    }
    if (launched) continue;

    // Advance virtual time to the next event: a replica freeing up, the
    // next admissible arrival, or a failover unit becoming ready.
    double tnext = inf;
    for (int r = 0; r < R; ++r) {
      const auto& rs = reps[static_cast<std::size_t>(r)];
      if (rs.free_ns > now && rs.free_ns < rs.detect_ns)
        tnext = std::min(tnext, rs.free_ns);
    }
    if (next < nq && queued < static_cast<std::size_t>(fdc_.queue_depth))
      tnext = std::min(tnext, queries[next].arrival_ns);
    for (const Failover& fo : pending)
      if (fo.ready_ns > now) tnext = std::min(tnext, fo.ready_ns);

    if (!(tnext < inf)) {
      // No event can ever serve the remainder: every replica is down.
      for (auto& q : queues)
        for (const std::size_t qi : q) resolve_dropped(qi, Outcome::lost);
      for (const Failover& fo : pending)
        for (const std::size_t qi : fo.idx)
          if (qi != kNoQuery &&
              rep.results[qi].outcome == Outcome::pending)
            resolve_dropped(qi, Outcome::lost);
      while (next < nq) resolve_dropped(next++, Outcome::lost);
      break;
    }
    now = std::max(now, tnext);
  }
  end_ns = std::max(end_ns, now);

  // Aggregate per class.
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(ncls));
  for (auto& res : rep.results) {
    auto& cs = rep.cls[static_cast<int>(res.cls)];
    ++cs.submitted;
    const double deadline = fdc_.slo.deadline_ns(res.cls);
    switch (res.outcome) {
      case Outcome::served:
      case Outcome::failed_over:
        ++cs.served;
        res.slo_met = res.latency_ns() <= deadline;
        lat[static_cast<std::size_t>(static_cast<int>(res.cls))].push_back(
            res.latency_ns());
        break;
      case Outcome::degraded:
        ++cs.degraded;
        res.slo_met = res.latency_ns() <= deadline;
        lat[static_cast<std::size_t>(static_cast<int>(res.cls))].push_back(
            res.latency_ns());
        break;
      case Outcome::shed:
      case Outcome::lost:
      case Outcome::pending:
        ++cs.shed;
        res.slo_met = false;
        break;
    }
  }
  for (int c = 0; c < ncls; ++c) {
    auto& cs = rep.cls[c];
    const auto& v = lat[static_cast<std::size_t>(c)];
    if (!v.empty()) {
      cs.mean_ns = harness::mean(v);
      cs.p50_ns = harness::percentile(v, 50);
      cs.p95_ns = harness::percentile(v, 95);
      cs.p99_ns = harness::percentile(v, 99);
    }
    int met = 0;
    for (const auto& res : rep.results)
      if (static_cast<int>(res.cls) == c && res.slo_met) ++met;
    cs.attainment = cs.submitted > 0
                        ? static_cast<double>(met) / cs.submitted
                        : 1.0;
  }
  rep.total_ns = end_ns;
  rep.shed_rate = static_cast<double>(rep.shed) / static_cast<double>(nq);
  for (int r = 0; r < R; ++r)
    if (reps[static_cast<std::size_t>(r)].detect_ns <= end_ns)
      ++rep.replicas_lost;
  return rep;
}

}  // namespace numabfs::engine
