// Fibers switch with _setjmp/_longjmp. Fortified builds route _longjmp
// through __longjmp_chk, which aborts on any jump to a lower stack address,
// as a jump into another fiber's stack often is.
#ifdef _FORTIFY_SOURCE
#undef _FORTIFY_SOURCE
#endif

#include "runtime/executor.hpp"

#include <sched.h>
#include <setjmp.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#if defined(__SANITIZE_ADDRESS__)
#define NUMABFS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NUMABFS_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define NUMABFS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NUMABFS_TSAN 1
#endif
#endif
#ifdef NUMABFS_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef NUMABFS_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace numabfs::rt {

namespace {

/// Usable stack per fiber, the size of a default thread stack. Mapped
/// MAP_NORESERVE and never pre-touched: only the pages a rank uses count.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;
/// How long a waiting worker (or the caller, at the end of a run) polls
/// before it sleeps. Barrier phases and back-to-back runs usually turn
/// around within this, and a futex wake costs as much again.
constexpr auto kIdleSpin = std::chrono::microseconds(50);

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Poll `ready` for up to kIdleSpin; returns whether it became true.
template <class Pred>
bool spin_until(Pred ready) {
  const auto deadline = std::chrono::steady_clock::now() + kIdleSpin;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    if (i % 64 == 0 && std::chrono::steady_clock::now() > deadline)
      return false;
    cpu_relax();
  }
}

}  // namespace

void SpinLock::relax(int spins) noexcept {
  if (spins < 64)
    cpu_relax();
  else
    std::this_thread::yield();  // the holder may have been preempted
}

struct Worker;

namespace {
void fiber_main();
}  // namespace

struct Fiber {
  enum class State { runnable, parked, done };

  /// Maps the stack (guard page below, top staggered by `index`) and
  /// prepares the first entry into fiber_main.
  explicit Fiber(std::size_t index);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  jmp_buf ctx{};       ///< where a started fiber resumes
  ucontext_t entry{};  ///< first entry into fiber_main
  bool started = false;
  char* stack_lo = nullptr;  ///< lowest usable byte, above the guard page
  void* tsan = nullptr;
  void* asan_fake = nullptr;

  // Set for each run.
  int rank = 0;
  Worker* worker = nullptr;
  State state = State::runnable;
  bool interruptible = false;  ///< parked in a wait quiescence may end
  bool interrupted = false;    ///< that wait was ended by quiescence
};

struct Worker {
  int index = 0;
  jmp_buf sched{};  ///< the scheduler loop, while a fiber runs
  Fiber* current = nullptr;
  bool exited = false;  ///< `current` returned from its rank function
  // Owner only: the run queue, and the batched waits to flush once it
  // drains.
  std::vector<Fiber*> ready;
  std::size_t head = 0;
  std::vector<Batched*> deferred;
  std::vector<Batched*> flushing;
  // The host stack the scheduler runs on, for the sanitizers.
  void* tsan = nullptr;
  const void* stack_lo = nullptr;
  std::size_t stack_size = 0;
  void* asan_fake = nullptr;
  // Shared with the other workers, under mu.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Fiber*> inbox;
  bool idle = false;      ///< not counted in Executor::busy_
  bool sleeping = false;  ///< blocked on cv
  std::atomic<bool> mail{false};
  std::thread thread;  ///< the pool thread; none for worker 0, the caller
};

Fiber::Fiber(std::size_t index) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  void* base = mmap(nullptr, kStackBytes + page, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  if (base == MAP_FAILED) throw std::runtime_error("rt: cannot map a rank stack");
  // The lowest page is a guard: an overflow faults instead of running into
  // the next mapping.
  if (mprotect(base, page, PROT_NONE) != 0 || getcontext(&entry) != 0) {
    munmap(base, kStackBytes + page);
    throw std::runtime_error("rt: cannot set up a rank stack");
  }
  stack_lo = static_cast<char*>(base) + page;
  // Stagger the stack tops by cache lines so the hot frames of many fibers
  // do not all map to the same cache sets.
  entry.uc_stack.ss_sp = stack_lo;
  entry.uc_stack.ss_size = kStackBytes - (index % 1024) * 64;
  entry.uc_link = nullptr;
  makecontext(&entry, fiber_main, 0);
#ifdef NUMABFS_TSAN
  tsan = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef NUMABFS_TSAN
  __tsan_destroy_fiber(tsan);
#endif
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  munmap(stack_lo - page, kStackBytes + page);
}

namespace {

thread_local Worker* tl_worker = nullptr;

/// Stack and sanitizer identity of the context being switched to.
struct Target {
  void* tsan;
  const void* stack_lo;
  std::size_t stack_size;
};

/// Save the current context in `save`, then continue at `to`, or at
/// `entry` for a fiber's first run. Returns when something jumps back to
/// `save`. Out of line so that nothing is live across the _setjmp.
[[gnu::noinline]] void switch_to(jmp_buf save, void** fake_save,
                                 const Target& t, jmp_buf to,
                                 const ucontext_t* entry) {
  if (_setjmp(save) != 0) return;
#ifdef NUMABFS_TSAN
  __tsan_switch_to_fiber(t.tsan, 0);
#endif
#ifdef NUMABFS_ASAN
  __sanitizer_start_switch_fiber(fake_save, t.stack_lo, t.stack_size);
#endif
  (void)fake_save;
  (void)t;
  if (entry != nullptr) setcontext(entry);
  _longjmp(to, 1);
}

/// Completes a switch on the side that was switched to; reports the stack
/// that was left when `lo`/`size` are given.
void switch_done(void* fake, const void** lo, std::size_t* size) {
#ifdef NUMABFS_ASAN
  __sanitizer_finish_switch_fiber(fake, lo, size);
#else
  (void)fake;
  (void)lo;
  (void)size;
#endif
}

/// Park the running fiber `f` until its worker resumes it.
void suspend(Fiber& f) {
  Worker& w = *f.worker;
  switch_to(f.ctx, &f.asan_fake, Target{w.tsan, w.stack_lo, w.stack_size},
            w.sched, nullptr);
  switch_done(f.asan_fake, &f.worker->stack_lo, &f.worker->stack_size);
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
    return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

class Executor {
 public:
  /// The process-wide pool.
  static Executor& get() {
    static Executor e;
    return e;
  }
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  ~Executor();

  void run(int n, const std::function<void(int)>& body);
  const std::function<void(int)>& body() const { return *body_; }
  int max_workers() const { return ncpu_; }
  /// Make the parked fibers in `fs`, all hosted by worker `w`, runnable
  /// and clear `fs`.
  void release(int w, std::vector<Fiber*>& fs);

 private:
  Executor();

  void worker_main(Worker& w);
  void schedule(Worker& w);
  Fiber* next(Worker& w);
  bool wait_for_mail(Worker& w);
  void deliver(Worker& to, std::vector<Fiber*>& fs);
  void on_quiescent();
  [[noreturn]] void deadlock() const;
  void finish_run();

  const int ncpu_;
  const pid_t pid_;
  std::mutex run_mu_;  ///< one run at a time
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<Fiber>> fibers_;  ///< fiber r hosts rank r

  // The current run.
  const std::function<void(int)>* body_ = nullptr;
  int nfibers_ = 0;
  int nworkers_ = 0;
  std::atomic<int> busy_{0};  ///< workers that are not idle
  std::atomic<int> finished_{0};
  std::atomic<bool> done_{false};

  // Hands runs to the pool threads. The atomics are polled; the mutex
  // and condition variables serve threads that have gone to sleep.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;  ///< a run started
  std::condition_variable left_cv_;  ///< the run's pool threads left it
  /// Runs started (high bits) and the workers taking part in the latest
  /// (low kWorkerBits), published together so no pool thread can pair one
  /// run's worker count with another run's number.
  std::atomic<std::uint64_t> run_word_{0};
  static constexpr int kWorkerBits = 20;
  std::atomic<int> in_run_{0};  ///< pool threads still inside the current run
  std::atomic<bool> shutdown_{false};  ///< the process is exiting
};

/// The pool threads start here, once per process; runs only wake them.
Executor::Executor() : ncpu_(cpu_count()), pid_(getpid()) {
  for (int i = 0; i < ncpu_; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    Worker* w = workers_.back().get();
    w->index = i;
    if (i > 0) w->thread = std::thread([this, w] { worker_main(*w); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    shutdown_.store(true);
  }
  pool_cv_.notify_all();
  // A forked child inherited these handles but none of the threads.
  const bool forked = getpid() != pid_;
  for (auto& w : workers_) {
    if (!w->thread.joinable()) continue;
    if (forked)
      w->thread.detach();
    else
      w->thread.join();
  }
}

void run_rank(const Fiber& f) {
  try {
    Executor::get().body()(f.rank);
  } catch (const std::exception& e) {
    // The rank's peers would wait for it forever; fail loudly instead.
    std::fprintf(stderr, "numabfs: rank %d threw: %s\n", f.rank, e.what());
    std::abort();
  } catch (...) {
    std::fprintf(stderr, "numabfs: rank %d threw unknown exception\n", f.rank);
    std::abort();
  }
}

/// Entry of every fiber. A fiber serves one rank per run and then parks
/// as done; the next run that needs it resumes it here with a new rank.
void fiber_main() {
  Fiber* f = tl_worker->current;
  switch_done(nullptr, &f->worker->stack_lo, &f->worker->stack_size);
  for (;;) {
    run_rank(*f);
    f->state = Fiber::State::done;
    f->worker->exited = true;
    suspend(*f);
  }
}

/// Run `f` on `w` until it parks or finishes.
void resume(Worker& w, Fiber& f) {
  w.current = &f;
  const ucontext_t* entry = f.started ? nullptr : &f.entry;
  f.started = true;
  switch_to(w.sched, &w.asan_fake, Target{f.tsan, f.stack_lo, kStackBytes},
            f.ctx, entry);
  switch_done(w.asan_fake, nullptr, nullptr);
  w.current = nullptr;
}

void Executor::run(int n, const std::function<void(int)>& body) {
  if (n <= 0) return;
  if (exec::self() != nullptr)
    throw std::logic_error("Cluster::run: called from inside a rank");
  std::lock_guard<std::mutex> run_lock(run_mu_);
  // A forked child inherits the pool's bookkeeping but not its threads.
  const int cap = getpid() == pid_ ? ncpu_ : 1;
  const int nw = std::min(cap, n);
  while (static_cast<int>(fibers_.size()) < n)
    fibers_.push_back(std::make_unique<Fiber>(fibers_.size()));

  body_ = &body;
  nfibers_ = n;
  nworkers_ = nw;
  busy_.store(nw);
  finished_.store(0);
  done_.store(false);
  for (int i = 0; i < nw; ++i) {
    Worker& w = *workers_[static_cast<std::size_t>(i)];
    w.ready.clear();
    w.head = 0;
    w.idle = false;
    w.sleeping = false;
    w.mail.store(false);
  }
  for (int r = 0; r < n; ++r) {
    Fiber& f = *fibers_[static_cast<std::size_t>(r)];
    f.rank = r;
    const auto wi = static_cast<std::int64_t>(r) * nw / n;
    f.worker = workers_[static_cast<std::size_t>(wi)].get();
    f.state = Fiber::State::runnable;
    f.interruptible = false;
    f.interrupted = false;
    f.worker->ready.push_back(&f);
  }
  in_run_.store(nw - 1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    const std::uint64_t runs = (run_word_.load() >> kWorkerBits) + 1;
    run_word_.store(runs << kWorkerBits | static_cast<std::uint64_t>(nw),
                    std::memory_order_release);
  }
  pool_cv_.notify_all();
  schedule(*workers_[0]);  // the caller is worker 0
  const auto left = [&] { return in_run_.load(std::memory_order_acquire) == 0; };
  if (!spin_until(left)) {
    std::unique_lock<std::mutex> lk(pool_mu_);
    left_cv_.wait(lk, left);
  }
  body_ = nullptr;
}

void Executor::worker_main(Worker& w) {
  std::uint64_t seen = 0;  ///< the last run this thread took part in
  std::uint64_t word = 0;
  const auto started = [&] {
    if (shutdown_.load(std::memory_order_acquire)) return true;
    word = run_word_.load(std::memory_order_acquire);
    const auto workers = word & ((std::uint64_t{1} << kWorkerBits) - 1);
    return (word >> kWorkerBits) != seen &&
           static_cast<std::uint64_t>(w.index) < workers;
  };
  for (;;) {
    if (!spin_until(started)) {
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_cv_.wait(lk, started);
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
    seen = word >> kWorkerBits;
    schedule(w);
    if (in_run_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(pool_mu_);
      left_cv_.notify_one();
    }
  }
}

void Executor::schedule(Worker& w) {
  tl_worker = &w;
#ifdef NUMABFS_TSAN
  w.tsan = __tsan_get_current_fiber();
#endif
  while (Fiber* f = next(w)) {
    resume(w, *f);
    // Not f->state: a parked fiber's state belongs to whoever wakes it.
    if (w.exited) {
      w.exited = false;
      if (finished_.fetch_add(1, std::memory_order_acq_rel) + 1 == nfibers_)
        finish_run();
    }
  }
  tl_worker = nullptr;
}

Fiber* Executor::next(Worker& w) {
  for (;;) {
    if (w.head < w.ready.size()) return w.ready[w.head++];
    w.ready.clear();
    w.head = 0;
    if (!w.deferred.empty()) {
      // Publish this worker's batched arrivals; completing a wait may
      // queue fibers here.
      w.flushing.swap(w.deferred);
      for (Batched* b : w.flushing) b->flush(w.index);
      w.flushing.clear();
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(w.mu);
      if (!w.inbox.empty()) {
        w.ready.swap(w.inbox);
        w.mail.store(false, std::memory_order_relaxed);
        continue;
      }
      w.idle = true;
    }
    // Only running fibers wake fibers, so the last worker to go idle sees
    // every unfinished fiber parked.
    if (busy_.fetch_sub(1, std::memory_order_acq_rel) == 1) on_quiescent();
    if (!wait_for_mail(w)) return nullptr;
  }
}

bool Executor::wait_for_mail(Worker& w) {
  spin_until([&] {
    return w.mail.load(std::memory_order_acquire) ||
           done_.load(std::memory_order_acquire);
  });
  std::unique_lock<std::mutex> lk(w.mu);
  w.sleeping = true;
  w.cv.wait(lk, [&] {
    return !w.inbox.empty() || done_.load(std::memory_order_acquire);
  });
  w.sleeping = false;
  return !w.inbox.empty();
}

void Executor::deliver(Worker& to, std::vector<Fiber*>& fs) {
  bool notify = false;
  {
    std::lock_guard<std::mutex> lk(to.mu);
    to.inbox.insert(to.inbox.end(), fs.begin(), fs.end());
    // Cleared while `to` cannot yet run them: a released fiber may arrive
    // at the wait that owns `fs` again as soon as `to` picks it up.
    fs.clear();
    to.mail.store(true, std::memory_order_release);
    if (to.idle) {
      to.idle = false;
      busy_.fetch_add(1, std::memory_order_acq_rel);
    }
    notify = to.sleeping;
  }
  if (notify) to.cv.notify_one();
}

void Executor::release(int w, std::vector<Fiber*>& fs) {
  for (Fiber* f : fs) f->state = Fiber::State::runnable;
  Worker& to = *workers_[static_cast<std::size_t>(w)];
  // A busy worker runs nothing new until its caller yields, so it queues
  // its own fibers directly; an idle one must be counted busy again.
  if (&to == tl_worker && !to.idle) {
    to.ready.insert(to.ready.end(), fs.begin(), fs.end());
    fs.clear();
  } else {
    deliver(to, fs);
  }
}

void Executor::on_quiescent() {
  if (finished_.load(std::memory_order_acquire) == nfibers_) return;
  std::vector<std::vector<Fiber*>> stuck(static_cast<std::size_t>(nworkers_));
  bool any = false;
  for (int r = 0; r < nfibers_; ++r) {
    Fiber* f = fibers_[static_cast<std::size_t>(r)].get();
    if (f->state == Fiber::State::parked && f->interruptible) {
      f->interrupted = true;
      stuck[static_cast<std::size_t>(f->worker->index)].push_back(f);
      any = true;
    }
  }
  if (!any) deadlock();
  for (int w = 0; w < nworkers_; ++w) release(w, stuck[static_cast<std::size_t>(w)]);
}

void Executor::deadlock() const {
  int parked = 0, first = -1;
  for (int r = 0; r < nfibers_; ++r) {
    if (fibers_[static_cast<std::size_t>(r)]->state != Fiber::State::parked)
      continue;
    if (first < 0) first = r;
    ++parked;
  }
  std::fprintf(stderr,
               "numabfs: deadlock: %d of %d ranks wait in barriers that can "
               "never complete (first: rank %d); %d ranks have returned\n",
               parked, nfibers_, first, finished_.load());
  std::abort();
}

void Executor::finish_run() {
  done_.store(true, std::memory_order_release);
  for (int i = 0; i < nworkers_; ++i) {
    Worker& w = *workers_[static_cast<std::size_t>(i)];
    { std::lock_guard<std::mutex> lk(w.mu); }
    w.cv.notify_one();
  }
}

}  // namespace

namespace exec {

void run(int n, const std::function<void(int)>& body) {
  Executor::get().run(n, body);
}

Fiber* self() noexcept {
  const Worker* w = tl_worker;
  return w != nullptr ? w->current : nullptr;
}

int worker() {
  if (self() == nullptr)
    throw std::logic_error("rt: a blocking wait outside Cluster::run");
  return tl_worker->index;
}

int max_workers() { return Executor::get().max_workers(); }

void defer(Batched* b) { tl_worker->deferred.push_back(b); }

namespace {

Fiber& parking_self() {
  worker();  // throws on a host thread
  Fiber* f = self();
  f->state = Fiber::State::parked;
  return *f;
}

}  // namespace

void park() { suspend(parking_self()); }

bool park(std::unique_lock<SpinLock>& lk, bool interruptible) {
  Fiber& f = parking_self();
  f.interruptible = interruptible;
  lk.unlock();
  suspend(f);
  const bool interrupted = f.interrupted;
  f.interruptible = false;
  f.interrupted = false;
  return interrupted;
}

bool wake(Fiber* f) {
  if (f->state != Fiber::State::parked) return false;
  std::vector<Fiber*> one{f};
  Executor::get().release(f->worker->index, one);
  return true;
}

void release(int w, std::vector<Fiber*>& fs) {
  if (!fs.empty()) Executor::get().release(w, fs);
}

}  // namespace exec
}  // namespace numabfs::rt
