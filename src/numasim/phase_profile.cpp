#include "numasim/phase_profile.hpp"

#include <algorithm>
#include <sstream>

namespace numabfs::sim {

const char* to_string(Phase p) {
  switch (p) {
    case Phase::td_comp: return "td_comp";
    case Phase::td_comm: return "td_comm";
    case Phase::bu_comp: return "bu_comp";
    case Phase::bu_comm: return "bu_comm";
    case Phase::switch_conv: return "switch";
    case Phase::stall: return "stall";
    case Phase::other: return "other";
    case Phase::kCount: break;
  }
  return "?";
}

Counters& Counters::operator+=(const Counters& o) {
  edges_scanned += o.edges_scanned;
  summary_probes += o.summary_probes;
  summary_zero_skips += o.summary_zero_skips;
  inqueue_probes += o.inqueue_probes;
  frontier_hits += o.frontier_hits;
  queue_writes += o.queue_writes;
  bytes_intra_node += o.bytes_intra_node;
  bytes_inter_node += o.bytes_inter_node;
  bytes_raw_equiv += o.bytes_raw_equiv;
  vertices_visited += o.vertices_visited;
  retransmits += o.retransmits;
  recv_timeouts += o.recv_timeouts;
  adoptions += o.adoptions;
  delta_probes += o.delta_probes;
  reductions += o.reductions;
  return *this;
}

double PhaseProfile::total_ns() const {
  double t = 0.0;
  for (double v : ns_) t += v;
  return t;
}

void PhaseProfile::clear() {
  ns_.fill(0.0);
  counters_ = Counters{};
  overlap_saved_ns_ = 0.0;
}

PhaseProfile& PhaseProfile::operator+=(const PhaseProfile& o) {
  for (size_t i = 0; i < ns_.size(); ++i) ns_[i] += o.ns_[i];
  counters_ += o.counters_;
  overlap_saved_ns_ += o.overlap_saved_ns_;
  return *this;
}

void PhaseProfile::max_with(const PhaseProfile& o) {
  for (size_t i = 0; i < ns_.size(); ++i) ns_[i] = std::max(ns_[i], o.ns_[i]);
  counters_ += o.counters_;
  overlap_saved_ns_ = std::max(overlap_saved_ns_, o.overlap_saved_ns_);
}

PhaseProfile PhaseProfile::scaled(double f) const {
  PhaseProfile r = *this;
  for (double& v : r.ns_) v *= f;
  r.overlap_saved_ns_ *= f;
  return r;
}

std::string PhaseProfile::breakdown(double total_override_ns) const {
  const double tot = total_override_ns > 0.0 ? total_override_ns : total_ns();
  std::ostringstream os;
  os.precision(1);
  os << std::fixed;
  for (int i = 0; i < static_cast<int>(Phase::kCount); ++i) {
    const double v = ns_[i];
    if (v <= 0.0) continue;
    os << to_string(static_cast<Phase>(i)) << "=" << v / 1e6 << "ms("
       << (tot > 0 ? 100.0 * v / tot : 0.0) << "%) ";
  }
  if (overlap_saved_ns_ > 0.0)
    os << "overlap_saved=" << overlap_saved_ns_ / 1e6 << "ms ";
  return os.str();
}

}  // namespace numabfs::sim
