#pragma once
/// \file executor.hpp
/// The host executor that runs simulated ranks, and the host-side graph
/// builders' parallel loops.
///
/// Every rank of a `Cluster::run` is a user-space fiber on a process-wide
/// pool of worker threads: one worker per CPU the process may run on,
/// created on first use and parked between runs. Rank `r` of an n-rank run
/// always runs on worker `r * W / n` (W = min(CPUs, n)), so the ranks of a
/// node share a worker, and each worker has its own run queue; the caller
/// of `run` serves as worker 0. A fiber gives up its worker only by
/// parking inside a runtime primitive (a barrier or a receive) and is
/// resumed by whoever completes that wait. Switches are `_setjmp` /
/// `_longjmp` (no system call); `ucontext` only creates a fiber. Fibers and
/// their stacks are pooled across runs.
///
/// Quiescence — every unfinished fiber parked — is detected exactly. The
/// executor then interrupts the fibers parked in an *interruptible* wait
/// (a receive), which lets a receive with no possible sender time out
/// deterministically; with none to interrupt, the run is deadlocked and
/// the process aborts with a diagnostic instead of hanging.
///
/// Fiber switches are annotated for ASan and TSan, so sanitizer builds run
/// the same code path as every other build.
///
/// The graph builders (`rmat_edges`, `DistGraph::build`,
/// `DistGraph2d::build`) use the same pool outside any simulation: each
/// calls `run(min(tasks, max_workers()), ...)` and hands every fiber one
/// contiguous range of edges, ranks or row bands. Such a body never parks,
/// so each fiber runs start to finish on its own worker.

#include <atomic>
#include <functional>
#include <mutex>
#include <vector>

namespace numabfs::rt {

/// Lock for the runtime's short critical sections (barrier phases,
/// mailboxes). Holders never park while holding it, so waiting spins
/// instead of sleeping in the kernel.
class SpinLock {
 public:
  void lock() noexcept {
    for (int spins = 0; flag_.exchange(true, std::memory_order_acquire);) {
      while (flag_.load(std::memory_order_relaxed)) relax(++spins);
    }
  }
  void unlock() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  static void relax(int spins) noexcept;
  std::atomic<bool> flag_{false};
};

/// A simulated rank's execution context (defined in executor.cpp).
struct Fiber;

/// A wait whose arrivals each worker batches: the fibers of one worker run
/// one at a time, so they record their arrivals in that worker's slot of
/// the wait without locking, and the worker publishes the slot once, via
/// flush(), when its run queue drains.
class Batched {
 public:
  /// Publish worker `w`'s recorded arrivals. Runs on worker `w`, outside
  /// any fiber.
  virtual void flush(int w) = 0;

 protected:
  ~Batched() = default;
};

namespace exec {

/// Run `body(r)` for every r in [0, n) as n fibers on the worker pool and
/// return once all have returned. Runs are serialized; calling run() from
/// inside a fiber throws std::logic_error. An exception escaping `body`
/// aborts the process, naming the rank.
void run(int n, const std::function<void(int)>& body);

/// The calling fiber, or nullptr on a host thread.
Fiber* self() noexcept;

/// Index of the worker running the calling fiber; below max_workers().
/// Throws std::logic_error on a host thread.
int worker();

/// Upper bound on worker indices (the pool's size).
int max_workers();

/// Have this worker call `b->flush(worker())` once its run queue drains.
void defer(Batched* b);

/// Park the calling fiber in a batched wait until release()d. Throws
/// std::logic_error on a host thread, where there is nothing to switch to.
void park();

/// Park the calling fiber. The caller has registered self() with a wait
/// object guarded by the lock `lk` holds; park() marks the fiber parked,
/// releases `lk` and switches away until a wake() (or, for an
/// `interruptible` wait, quiescence). Returns true when the wait was
/// interrupted at quiescence. `lk` is unlocked on return. Throws
/// std::logic_error on a host thread.
bool park(std::unique_lock<SpinLock>& lk, bool interruptible);

/// Make `f` runnable if it is parked; returns false if it was already
/// woken or interrupted. Call under the lock of the wait object `f` parked
/// on.
bool wake(Fiber* f);

/// Make the parked fibers in `fs`, all hosted by worker `w`, runnable as
/// one batch, and clear `fs`. `fs` is cleared before any of them can run,
/// so it may be the buffer they will append to when they wait again.
void release(int w, std::vector<Fiber*>& fs);

}  // namespace exec
}  // namespace numabfs::rt
