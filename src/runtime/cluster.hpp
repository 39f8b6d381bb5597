#pragma once
/// \file cluster.hpp
/// SPMD launcher for the simulated NUMA cluster.
///
/// `Cluster` fixes a topology, cost parameters and a process-per-node count
/// (the paper's `ppn`), builds the standard communicators (world, per-node,
/// leaders, per-local-index subgroups), and `run()` executes a rank function
/// once per simulated MPI process. Ranks are user-space fibers of this
/// process, multiplexed on a persistent pool of worker threads (one per
/// CPU; executor.hpp); their address spaces are private *by convention*
/// and node-shared structures are simply buffers every rank of a node can
/// see — exactly the effect the paper achieves with `mmap`.
///
/// The executor's contract for rank code:
/// - A rank blocks only through runtime primitives (barriers, collectives,
///   `PostOffice::recv`), never by spinning on another rank's memory: a
///   spinning rank would hold its worker, and the ranks it waits for may be
///   queued on that very worker.
/// - A rank never parks inside a `catch` handler. libstdc++ keeps the stack
///   of caught exceptions per host thread, and other ranks run on the same
///   thread while one is parked.
/// - Rank code uses no `thread_local`: a worker thread hosts many ranks,
///   and one rank may run on different workers in different runs.
/// - A rank holds no lock across a runtime primitive.

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "faults/injector.hpp"
#include "numasim/cost_params.hpp"
#include "numasim/link_model.hpp"
#include "numasim/mem_model.hpp"
#include "numasim/phase_profile.hpp"
#include "numasim/topology.hpp"
#include "numasim/vclock.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"

namespace numabfs::rt {

class Cluster;

/// Per-rank execution context handed to the SPMD function.
struct Proc {
  int rank = 0;    ///< world rank
  int node = 0;    ///< node index
  int local = 0;   ///< index within the node [0, ppn)
  int socket = 0;  ///< first socket of this rank's binding domain
  int nranks = 1;
  int ppn = 1;
  int threads = 1;  ///< modeled OpenMP threads available to this rank

  sim::VClock clock;
  sim::PhaseProfile prof;
  Cluster* cluster = nullptr;
  /// Event tracer, or nullptr when tracing is off. Writes only this rank's
  /// track, and never charges the clock: tracing on/off is bit-identical.
  obs::Tracer* tracer = nullptr;
  /// Per-rank collective sequence number (SPMD-deterministic); keys the
  /// fault coins of the data-moving collectives.
  std::uint64_t coll_seq = 0;

  /// Charge modeled time to the clock and attribute it to `phase`. In
  /// chaos mode an active straggler event on this rank inflates the charge
  /// (the whole rank — compute, copies, NIC — runs slow); defined
  /// out-of-line because it consults the cluster's fault injector.
  void charge(sim::Phase phase, double ns);

  /// Barrier on `c`, charging the wait (group max - own arrival) to `phase`.
  void barrier(Comm& c, sim::Phase phase) {
    const double before = clock.now_ns();
    const double mx = c.barrier().sync(clock);
    prof.add(phase, mx - before);
    if (tracer != nullptr && mx > before) {
      tracer->span(rank, obs::kCatTime, sim::to_string(phase), before, mx,
                   "\"op\":\"barrier\"");
    }
  }

  /// Semantic instant on this rank's track (no-op when tracing is off).
  void trace_instant(const char* cat, std::string name, std::string args = {}) {
    if (tracer != nullptr)
      tracer->instant(rank, cat, std::move(name), clock.now_ns(),
                      std::move(args));
  }

  /// Semantic span [t0_ns, t1_ns] on this rank's track (no-op when off).
  void trace_span(const char* cat, std::string name, double t0_ns,
                  double t1_ns, std::string args = {}) {
    if (tracer != nullptr)
      tracer->span(rank, cat, std::move(name), t0_ns, t1_ns, std::move(args));
  }

  bool is_node_leader() const { return local == 0; }
};

class Cluster {
 public:
  /// `ppn` must be 1 or divide sockets_per_node; each rank is bound to a
  /// contiguous block of sockets_per_node/ppn sockets.
  Cluster(sim::Topology topo, sim::CostParams params, int ppn);

  int nranks() const { return nranks_; }
  int ppn() const { return ppn_; }
  int sockets_per_rank() const { return sockets_per_rank_; }
  int node_of(int rank) const { return rank / ppn_; }
  int local_of(int rank) const { return rank % ppn_; }

  const sim::Topology& topo() const { return topo_; }
  const sim::CostParams& params() const { return params_; }
  const sim::MemModel& mem() const { return mem_; }
  const sim::LinkModel& link() const { return link_; }

  /// Attach a fault injector ("chaos mode"); nullptr disables. The
  /// injector's dynamic liveness state is reset at the start of each run().
  void set_fault_injector(std::shared_ptr<faults::FaultInjector> inj) {
    injector_ = std::move(inj);
  }
  /// The active fault injector, or nullptr when chaos mode is off.
  const faults::FaultInjector* injector() const { return injector_.get(); }
  faults::FaultInjector* injector() { return injector_.get(); }

  /// Attach an event tracer; nullptr disables tracing. Each rank of the
  /// next run() gets `Proc::tracer` pointed at it. The tracer must have
  /// exactly nranks() rank tracks.
  void set_tracer(std::shared_ptr<obs::Tracer> tracer) {
    tracer_ = std::move(tracer);
  }
  obs::Tracer* tracer() { return tracer_.get(); }
  const obs::Tracer* tracer() const { return tracer_.get(); }

  /// Permanently remove a crashing rank from every communicator barrier it
  /// belongs to (world, node, its subgroup, leaders if applicable), so the
  /// surviving ranks keep synchronizing without it.
  void retire_rank(const Proc& p);

  Comm& world() { return *world_; }
  const Comm& world() const { return *world_; }
  Comm& node_comm(int node) { return *node_comms_[static_cast<size_t>(node)]; }
  /// One member per node: the ranks with local index 0.
  Comm& leaders() { return *leaders_; }
  /// Subgroup `local`: the ranks with that local index, one per node
  /// (the "colors" of the paper's Fig. 7).
  Comm& subgroup(int local) { return *subgroups_[static_cast<size_t>(local)]; }

  /// Run `fn` SPMD as nranks() fibers on the executor's worker pool; it
  /// spawns no threads. Profiles/clocks are reset first and collected into
  /// `profiles()` afterwards. Any exception escaping a rank aborts the
  /// process, naming the rank (rank functions are noexcept by contract;
  /// letting one rank die would deadlock the others at a barrier). If every
  /// unfinished rank waits in a barrier that can never complete, the
  /// process aborts with a diagnostic instead of hanging.
  void run(const std::function<void(Proc&)>& fn);

  const std::vector<sim::PhaseProfile>& profiles() const { return profiles_; }

 private:
  sim::Topology topo_;
  sim::CostParams params_;
  int ppn_;
  int nranks_;
  int sockets_per_rank_;
  sim::MemModel mem_;
  sim::LinkModel link_;

  std::unique_ptr<Comm> world_;
  std::vector<std::unique_ptr<Comm>> node_comms_;
  std::unique_ptr<Comm> leaders_;
  std::vector<std::unique_ptr<Comm>> subgroups_;
  std::shared_ptr<faults::FaultInjector> injector_;
  std::shared_ptr<obs::Tracer> tracer_;
  /// Set by retire_rank; tells the next run() to restore every barrier to
  /// full membership (retirement lasts until rearmed).
  std::atomic<bool> barriers_dirty_{false};

  std::vector<sim::PhaseProfile> profiles_;
};

}  // namespace numabfs::rt
