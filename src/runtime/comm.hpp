#pragma once
/// \file comm.hpp
/// Communicators and virtual-time barriers.
///
/// A `Comm` is an ordered group of world ranks (like an MPI communicator).
/// Ranks of the simulated cluster are fibers of this process (see
/// executor.hpp), so a barrier both synchronizes them *and* aligns their
/// virtual clocks to the group maximum — the difference is the
/// load-imbalance "stall" the paper breaks out in Fig. 11. Comms also carry
/// small publish/read slot arrays used by collectives to exchange pointers
/// and scalar values, the result of the current allreduce, and their shape
/// (nodes spanned, members per node) for the cost model.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "numasim/vclock.hpp"
#include "runtime/executor.hpp"

namespace numabfs::rt {

/// Reusable group barrier that aligns virtual clocks. One rendezvous per
/// phase: members park on it, each worker adds up the arrivals of the
/// members it hosts, and whoever publishes the last arrival completes the
/// phase with the group max and releases the waiters, one batch per
/// worker. A phase costs O(n) in total and takes the shared lock once per
/// worker, not once per member.
class VBarrier final : public Batched {
 public:
  explicit VBarrier(int n)
      : n_(n),
        expected_(n),
        slots_(static_cast<size_t>(exec::max_workers())) {}

  /// Arrive with clock `clk`; park until every member has arrived; return
  /// the group's maximum virtual time and advance `clk` to it. The caller
  /// decides which phase the (max - own) stall is charged to.
  double sync(sim::VClock& clk) {
    Slot& s = slots_[static_cast<size_t>(exec::worker())];
    const double t = clk.now_ns();
    if (s.arrived == 0 || t > s.max) s.max = t;
    ++s.arrived;
    s.waiters.push_back(exec::self());
    if (!s.deferred) {
      s.deferred = true;
      exec::defer(this);
    }
    exec::park();
    // The next phase cannot complete before this member arrives again.
    clk.advance_to_ns(released_);
    return released_;
  }

  /// Permanently remove one member (rank crash in chaos mode): lowers the
  /// expected count of the current and every later phase, completing the
  /// current one if the retiring member was the last one awaited. Must be
  /// called by a member that is not inside a sync, which holds for crashes
  /// at BFS level boundaries. A retired member no longer contributes to the
  /// group maximum.
  void retire() {
    std::lock_guard<SpinLock> lk(mu_);
    --expected_;
    if (arrived_ > 0 && arrived_ == expected_) complete();
  }

  /// Restore full membership (between runs, when no member is inside).
  void rearm() {
    std::lock_guard<SpinLock> lk(mu_);
    expected_ = n_;
  }

  void flush(int w) override {
    Slot& s = slots_[static_cast<size_t>(w)];
    s.deferred = false;
    std::lock_guard<SpinLock> lk(mu_);
    if (arrived_ == 0 || s.max > max_) max_ = s.max;
    arrived_ += s.arrived;
    s.arrived = 0;
    if (arrived_ == expected_) complete();
  }

 private:
  /// One worker's arrivals in the current phase, written only by fibers of
  /// that worker until it flushes them.
  struct alignas(64) Slot {
    int arrived = 0;
    bool deferred = false;  ///< a flush is pending on the worker
    double max = 0.0;
    std::vector<Fiber*> waiters;
  };

  /// Close the phase (under mu_): publish its max, release every waiter.
  void complete() {
    released_ = max_;
    arrived_ = 0;
    for (size_t w = 0; w < slots_.size(); ++w)
      exec::release(static_cast<int>(w), slots_[w].waiters);
  }

  const int n_;
  SpinLock mu_;  ///< guards the fields below
  int expected_;
  int arrived_ = 0;        ///< arrivals flushed this phase
  double max_ = 0.0;       ///< their max clock
  double released_ = 0.0;  ///< max of the last completed phase
  std::vector<Slot> slots_;
};

/// Ordered group of world ranks with a barrier and exchange slots.
class Comm {
 public:
  /// Most words one allreduce carries: one cache line, one eager message.
  static constexpr std::size_t kMaxReduceWords = 8;

  /// `per_node` is the shape the cost model reads: the members on each
  /// node the comm spans (Cluster's comms are regular; a comm built
  /// without it counts every member as its own node). It must divide the
  /// member count.
  explicit Comm(std::vector<int> world_ranks, int per_node = 1);

  int size() const { return static_cast<int>(members_.size()); }
  /// Distinct nodes the comm spans, and its members on each of them.
  int nodes() const { return size() / per_node_; }
  int per_node() const { return per_node_; }
  int world_rank(int idx) const { return members_[static_cast<size_t>(idx)]; }
  const std::vector<int>& members() const { return members_; }
  /// Index of `world_rank` in this comm, or -1 if not a member. O(1).
  int index_of(int world_rank) const {
    return world_rank >= 0 && world_rank < static_cast<int>(index_.size())
               ? index_[static_cast<size_t>(world_rank)]
               : -1;
  }

  VBarrier& barrier() { return *barrier_; }
  /// Retire member `world_rank` from this comm's barrier (VBarrier::retire).
  void retire(int world_rank);
  /// Restore the barrier to full membership. Retirement lowers the
  /// expected count for good, so after a run with crashes the next run
  /// (which revives every rank) needs this; called by Cluster::run between
  /// runs, never while ranks are inside.
  void rearm() { barrier_->rearm(); }

  // --- exchange slots (publish before a barrier, read after) -----------
  void publish_ptr(int idx, const void* p) {
    ptr_slots_[static_cast<size_t>(idx)] = p;
  }
  const void* ptr(int idx) const { return ptr_slots_[static_cast<size_t>(idx)]; }
  void publish_val(int idx, std::uint64_t v) {
    val_slots_[static_cast<size_t>(idx)] = v;
  }
  std::uint64_t val(int idx) const { return val_slots_[static_cast<size_t>(idx)]; }
  /// Payload checksum slot (fault-tolerant collectives verify copies
  /// against it and retransmit on mismatch).
  void publish_chk(int idx, std::uint64_t v) {
    chk_slots_[static_cast<size_t>(idx)] = v;
  }
  std::uint64_t chk(int idx) const { return chk_slots_[static_cast<size_t>(idx)]; }
  /// Result of the current allreduce: one member writes it between the
  /// reduction's two barriers, every member reads it after the second.
  std::array<std::uint64_t, kMaxReduceWords>& reduced() { return reduced_; }

 private:
  std::vector<int> members_;
  int per_node_;
  std::vector<int> index_;  ///< world rank -> member index, or -1
  std::unique_ptr<VBarrier> barrier_;
  std::vector<const void*> ptr_slots_;
  std::vector<std::uint64_t> val_slots_;
  std::vector<std::uint64_t> chk_slots_;
  std::array<std::uint64_t, kMaxReduceWords> reduced_{};
};

}  // namespace numabfs::rt
