#include "bfs/level_loop.hpp"

#include <algorithm>
#include <vector>

#include "faults/errors.hpp"
#include "obs/trace.hpp"

namespace numabfs::bfs {

LevelLoop::LevelLoop(rt::Cluster& c, Options opt)
    : c_(c),
      inj_(c.injector()),
      opt_(opt),
      checkpointing_(inj_ != nullptr && inj_->checkpointing()) {
  // A scheduled crash without checkpointing cannot be survived: refuse it
  // up front (the fault plan is known before the run starts).
  if (inj_ != nullptr && inj_->has_crashes() && !inj_->checkpointing())
    throw faults::FaultError(
        std::string(opt_.who) +
        ": the fault plan schedules rank crashes but checkpointing is "
        "disabled (checkpoint:off); the run could not be recovered");
  opt_.export_every = std::max(1, opt_.export_every);
}

int LevelLoop::recorder() const {
  return inj_ != nullptr ? inj_->lowest_live() : 0;
}

void LevelLoop::run(rt::Proc& p, int level, const LevelHooks& h, bool more) {
  rt::Comm& world = c_.world();
  std::vector<int> parts{p.rank};
  std::vector<std::uint64_t> stats(h.stats.size());
  int handled_dead = 0;
  bool is_recorder = p.rank == recorder();
  const auto hit_horizon = [&] {
    if (!is_recorder) return;
    aborted_ = true;
    abort_ns_ = p.clock.now_ns();
  };

  while (more) {
    Level lv{level, p.clock.now_ns(), parts, is_recorder, stats};

    // Replica-outage horizon: checked only at clock-aligned points (level
    // entry, and the retirement boundary below), so every rank observes the
    // abort at the same level and the run stays bit-deterministic.
    if (lv.t0 >= opt_.abort_at_ns) {
      hit_horizon();
      break;
    }
    if (level > opt_.max_level) break;

    // Cross-replica epoch export. Its closing barrier runs before the crash
    // point below, so an exported epoch always describes a fully pre-death
    // state, even when the exporting rank is the one dying.
    if (h.export_shared &&
        (level - opt_.level_base) % opt_.export_every == 0) {
      for (int q : parts) h.export_part(q);
      std::string args;
      if (is_recorder) args = h.export_shared(level);
      p.barrier(world, sim::Phase::stall);
      if (is_recorder)
        p.trace_instant(opt_.trace_cat, opt_.export_instant, std::move(args));
    }

    // Level boundary: checkpoint every owned partition, *then* die if this
    // rank's crash is scheduled here. The fail-stop model is "the boundary
    // checkpoint completed, the crash hit afterwards", so an adopter always
    // finds start-of-level state.
    if (checkpointing_)
      for (int q : parts) h.save(q);
    if (inj_ != nullptr &&
        inj_->crash_level(p.rank) == level - opt_.level_base) {
      inj_->mark_dead(p.rank);
      c_.retire_rank(p);  // survivors' barriers stop expecting us
      return;
    }

    std::fill(stats.begin(), stats.end(), 0);
    h.kernel(lv);
    lv.reduce_ns = rt::allreduce(p, world, stats, h.stats, sim::Phase::stall);

    // Crash detection point. A rank dies at the start of a level, before
    // contributing to its kernels or reductions; the level's reduction
    // above cannot complete before the dead rank retired, so every survivor
    // leaves it with the same view of the death. Recover by adopting the
    // dead partitions, rolling every owned partition back to the boundary
    // checkpoint, and re-running the level.
    if (inj_ != nullptr && inj_->dead_count() > handled_dead) {
      handled_dead = inj_->dead_count();
      const std::size_t owned_before = parts.size();
      parts = inj_->parts_of(p.rank);
      if (parts.size() > owned_before)
        p.prof.counters().adoptions += parts.size() - owned_before;
      for (int q : parts) h.restore(q);
      if (p.rank == inj_->lowest_live())
        recoveries_.fetch_add(1, std::memory_order_relaxed);
      p.barrier(world, sim::Phase::stall);  // rollback complete everywhere
      // Recorded before the hook, so the spans the hook records (the 2-D
      // input rebuild) follow it on the rank's track.
      p.trace_span(opt_.trace_cat, "recovery.rollback", lv.t0,
                   p.clock.now_ns(),
                   obs::kv("level", level) + "," +
                       obs::kv("parts", static_cast<int>(parts.size())));
      if (h.after_rollback) h.after_rollback(parts);
      continue;  // re-run the level
    }
    is_recorder = p.rank == recorder();
    lv.recorder = is_recorder;

    // Retirement-boundary horizon: a death mid-level voids this level's
    // results — they would have completed after the replica stopped
    // answering, so the serving tier must re-run that work.
    if (p.clock.now_ns() >= opt_.abort_at_ns) {
      hit_horizon();
      break;
    }

    if (!h.finish(lv)) break;
    ++level;
  }

  p.barrier(world, sim::Phase::stall);
}

LoopTotals LevelLoop::totals(std::span<const int> directions) const {
  LoopTotals t;
  const auto& profiles = c_.profiles();
  sim::PhaseProfile sum;
  for (const auto& pr : profiles) {
    t.time_ns = std::max(t.time_ns, pr.total_ns());
    sum += pr;
    t.profile_max.max_with(pr);
  }
  t.profile_avg = sum.scaled(1.0 / static_cast<double>(profiles.size()));
  // scaled() multiplies times only; counters in profile_avg stay summed.
  t.profile_avg.counters() = sum.counters();
  t.levels = static_cast<int>(directions.size());
  for (int d : directions) (d == 0 ? t.td_levels : t.bu_levels)++;
  t.recoveries = recoveries_.load(std::memory_order_relaxed);
  t.ranks_lost = inj_ != nullptr ? inj_->dead_count() : 0;
  return t;
}

}  // namespace numabfs::bfs
