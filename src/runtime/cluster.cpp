#include "runtime/cluster.hpp"

#include <stdexcept>

#include "runtime/executor.hpp"

namespace numabfs::rt {

void Proc::charge(sim::Phase phase, double ns) {
  if (cluster != nullptr) {
    const faults::FaultInjector* inj = cluster->injector();
    if (inj != nullptr) ns *= inj->compute_factor(rank, clock.now_ns());
  }
  const double t0 = clock.now_ns();
  clock.charge_ns(ns);
  prof.add(phase, ns);
  if (tracer != nullptr && ns > 0)
    tracer->span(rank, obs::kCatTime, sim::to_string(phase), t0, t0 + ns);
}

void Cluster::retire_rank(const Proc& p) {
  world_->retire(p.rank);
  node_comms_[static_cast<size_t>(p.node)]->retire(p.rank);
  subgroups_[static_cast<size_t>(p.local)]->retire(p.rank);
  if (p.local == 0) leaders_->retire(p.rank);
  barriers_dirty_.store(true, std::memory_order_release);
}

Cluster::Cluster(sim::Topology topo, sim::CostParams params, int ppn)
    : topo_(std::move(topo)),
      params_(params),
      ppn_(ppn),
      nranks_(topo_.nodes() * ppn),
      sockets_per_rank_(1),
      mem_(params_, topo_),
      link_(params_, topo_) {
  if (ppn < 1) throw std::invalid_argument("Cluster: ppn must be >= 1");
  if (topo_.sockets_per_node() % ppn != 0)
    throw std::invalid_argument("Cluster: ppn must divide sockets per node");
  sockets_per_rank_ = topo_.sockets_per_node() / ppn;

  std::vector<int> all(static_cast<size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) all[static_cast<size_t>(r)] = r;
  world_ = std::make_unique<Comm>(all, ppn);

  node_comms_.reserve(static_cast<size_t>(topo_.nodes()));
  for (int n = 0; n < topo_.nodes(); ++n) {
    std::vector<int> m;
    m.reserve(static_cast<size_t>(ppn));
    for (int l = 0; l < ppn; ++l) m.push_back(n * ppn + l);
    node_comms_.push_back(std::make_unique<Comm>(std::move(m), ppn));
  }

  std::vector<int> lead;
  lead.reserve(static_cast<size_t>(topo_.nodes()));
  for (int n = 0; n < topo_.nodes(); ++n) lead.push_back(n * ppn);
  leaders_ = std::make_unique<Comm>(std::move(lead));  // one per node

  subgroups_.reserve(static_cast<size_t>(ppn));
  for (int l = 0; l < ppn; ++l) {
    std::vector<int> m;
    m.reserve(static_cast<size_t>(topo_.nodes()));
    for (int n = 0; n < topo_.nodes(); ++n) m.push_back(n * ppn + l);
    subgroups_.push_back(std::make_unique<Comm>(std::move(m)));
  }
}

void Cluster::run(const std::function<void(Proc&)>& fn) {
  // Replay chaos from a clean slate: deaths belong to one SPMD run, and a
  // prior run's barrier retirements must not leak into this one — a revived
  // rank that the barriers no longer wait for would let its peers read
  // slots it has not published yet. The dirty flag (not the injector, which
  // may have been detached since) decides whether a rearm is needed.
  if (injector_) injector_->reset_dynamic();
  if (barriers_dirty_.exchange(false, std::memory_order_acq_rel)) {
    world_->rearm();
    for (auto& nc : node_comms_) nc->rearm();
    leaders_->rearm();
    for (auto& sg : subgroups_) sg->rearm();
  }
  std::vector<Proc> procs(static_cast<size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    Proc& p = procs[static_cast<size_t>(r)];
    p.rank = r;
    p.node = node_of(r);
    p.local = local_of(r);
    p.socket = p.local * sockets_per_rank_;
    p.nranks = nranks_;
    p.ppn = ppn_;
    p.threads = sockets_per_rank_ * topo_.cores_per_socket();
    p.cluster = this;
    p.tracer = tracer_.get();
  }

  exec::run(nranks_, [&fn, &procs](int r) { fn(procs[static_cast<size_t>(r)]); });

  profiles_.clear();
  profiles_.reserve(static_cast<size_t>(nranks_));
  for (const Proc& p : procs) profiles_.push_back(p.prof);
}

}  // namespace numabfs::rt
