#include "runtime/p2p.hpp"

#include <algorithm>
#include <mutex>
#include <string>

#include "faults/errors.hpp"
#include "faults/hash.hpp"

namespace numabfs::rt {

namespace {

/// Retransmit timeout after attempt `attempt` (0-based): 4x the one-way
/// message latency, doubling per attempt, capped so a long fault burst
/// degrades gracefully instead of exploding the virtual clock.
double rto_ns(const sim::CostParams& cp, int attempt) {
  const int exp = std::min(attempt, 6);
  return 4.0 * cp.nic_msg_latency_ns * static_cast<double>(1u << exp);
}

}  // namespace

void PostOffice::send(Proc& from, int to, std::span<const std::uint64_t> payload,
                      sim::Phase phase, int flows) {
  const Cluster& c = *from.cluster;
  const faults::FaultInjector* inj = c.injector();
  const std::uint64_t bytes = payload.size() * sizeof(std::uint64_t);
  const bool inter = c.node_of(to) != from.node;

  const std::uint64_t seq =
      seq_[static_cast<size_t>(from.rank) * static_cast<size_t>(nranks_) +
           static_cast<size_t>(to)]++;
  const std::uint64_t checksum = faults::checksum64(payload);
  Box& box = boxes_[static_cast<size_t>(to)];

  for (int attempt = 0;; ++attempt) {
    // Per-attempt wire time. An active link-degradation event stretches the
    // bandwidth term of inter-node transfers; the latency term is physics.
    double ns;
    if (inter) {
      ns = c.link().nic_transfer_ns(bytes, flows, from.node, c.node_of(to));
      if (inj != nullptr) {
        const double lf = std::min(
            inj->link_factor(from.node, from.clock.now_ns()),
            inj->link_factor(c.node_of(to), from.clock.now_ns()));
        ns = c.params().nic_msg_latency_ns +
             (ns - c.params().nic_msg_latency_ns) / lf;
      }
      from.prof.counters().bytes_inter_node += bytes;
    } else {
      ns = c.params().cico_factor * static_cast<double>(bytes) /
           c.link().shm_flow_bw(flows);
      from.prof.counters().bytes_intra_node += bytes;
    }
    from.prof.counters().bytes_raw_equiv += bytes;

    // Drop/corrupt coins model the NIC; intra-node shared-memory copies are
    // reliable (the paper's mmap'd buffers don't traverse the fabric).
    faults::Verdict v = faults::Verdict::deliver;
    if (inj != nullptr && inter)
      v = inj->attempt_verdict(from.rank, to, seq, attempt, from.clock.now_ns());

    if (v == faults::Verdict::drop) {
      // The attempt burned wire time, then the sender sat out the
      // retransmit timeout waiting for an ACK that never came.
      from.trace_instant(obs::kCatFault, "p2p.drop",
                         obs::kv("to", to) + "," + obs::kv("seq", seq) + "," +
                             obs::kv("attempt", attempt));
      ++from.prof.counters().retransmits;
      from.charge(phase, ns + rto_ns(c.params(), attempt));
      if (attempt + 1 >= kMaxAttempts)
        throw faults::FaultError(
            "PostOffice::send: message " + std::to_string(seq) + " from rank " +
            std::to_string(from.rank) + " to rank " + std::to_string(to) +
            " dropped " + std::to_string(kMaxAttempts) + " times; giving up");
      continue;
    }

    from.charge(phase, ns);
    std::vector<std::uint64_t> data(payload.begin(), payload.end());
    if (v == faults::Verdict::corrupt && inj != nullptr)
      inj->corrupt_payload(data, from.rank, to, seq, attempt);
    {
      std::lock_guard<SpinLock> lock(box.mu);
      box.queue.push_back(Message{from.rank, from.clock.now_ns(), seq, checksum,
                                  std::move(data)});
      if (box.waiter != nullptr && box.waiting_from == from.rank) {
        exec::wake(box.waiter);
        box.waiter = nullptr;
      }
    }

    if (v == faults::Verdict::corrupt) {
      // The receiver's checksum check rejects this copy and NACKs; the
      // sender pays the NACK round trip before retransmitting.
      from.trace_instant(obs::kCatFault, "p2p.corrupt",
                         obs::kv("to", to) + "," + obs::kv("seq", seq) + "," +
                             obs::kv("attempt", attempt));
      ++from.prof.counters().retransmits;
      from.charge(phase, 2.0 * c.params().nic_msg_latency_ns);
      if (attempt + 1 >= kMaxAttempts)
        throw faults::FaultError(
            "PostOffice::send: message " + std::to_string(seq) + " from rank " +
            std::to_string(from.rank) + " to rank " + std::to_string(to) +
            " corrupted " + std::to_string(kMaxAttempts) + " times; giving up");
      continue;
    }
    from.trace_instant(obs::kCatP2p, "send",
                       obs::kv("to", to) + "," + obs::kv("bytes", bytes) +
                           "," + obs::kv("seq", seq));
    return;
  }
}

std::vector<std::uint64_t> PostOffice::recv(Proc& self, int from,
                                            sim::Phase phase,
                                            double timeout_ns) {
  const faults::FaultInjector* inj =
      self.cluster != nullptr ? self.cluster->injector() : nullptr;
  Box& box = boxes_[static_cast<size_t>(self.rank)];
  std::unique_lock<SpinLock> lock(box.mu);
  for (;;) {
    auto it = std::find_if(box.queue.begin(), box.queue.end(),
                           [from](const Message& m) { return m.from == from; });
    if (it != box.queue.end()) {
      Message m = std::move(*it);
      box.queue.erase(it);
      lock.unlock();
      if (m.arrival_ns > self.clock.now_ns()) {
        const double t0 = self.clock.now_ns();
        self.prof.add(phase, m.arrival_ns - t0);
        self.clock.advance_to_ns(m.arrival_ns);
        self.trace_span(obs::kCatTime, sim::to_string(phase), t0, m.arrival_ns,
                        "\"op\":\"recv_wait\"");
      }
      if (faults::checksum64(m.payload) != m.checksum) {
        // Damaged in flight: discard and NACK (one message latency); the
        // retransmission is (or will be) behind it in the queue.
        if (self.cluster != nullptr)
          self.charge(phase, self.cluster->params().nic_msg_latency_ns);
        lock.lock();
        continue;
      }
      return std::move(m.payload);
    }
    if (inj == nullptr || !inj->dead(from)) {
      box.waiter = exec::self();
      box.waiting_from = from;
      if (!exec::park(lock, /*interruptible=*/true)) {
        lock.lock();  // woken by the matching send
        continue;
      }
      // Quiescent: no rank can run, so nothing will ever arrive.
      lock.lock();
      box.waiter = nullptr;
    }
    lock.unlock();
    const bool dead = inj != nullptr && inj->dead(from);
    if (timeout_ns < kNoTimeout) {
      // Model the virtual wait as exactly the requested timeout.
      const double t0 = self.clock.now_ns();
      self.clock.charge_ns(timeout_ns);
      self.prof.add(phase, timeout_ns);
      ++self.prof.counters().recv_timeouts;
      self.trace_span(obs::kCatTime, sim::to_string(phase), t0,
                      t0 + timeout_ns, "\"op\":\"recv_timeout\"");
    }
    const std::string who = "PostOffice::recv: rank " +
                            std::to_string(self.rank) + " waiting on rank " +
                            std::to_string(from);
    if (dead)
      throw faults::TimeoutError(who +
                                 ", which has crashed; no message will arrive");
    if (timeout_ns < kNoTimeout)
      throw faults::TimeoutError(who + " timed out after " +
                                 std::to_string(timeout_ns) + " virtual ns");
    throw faults::TimeoutError(
        who + ": every rank is blocked, so no message can arrive");
  }
}

}  // namespace numabfs::rt
