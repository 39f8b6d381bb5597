#pragma once
/// \file p2p.hpp
/// Blocking point-to-point messaging between ranks, with modeled transfer
/// time. Used by the bandwidth microbenchmark (paper Fig. 4) and available
/// to applications; the BFS collectives use the shared-space primitives
/// instead.
///
/// Time semantics: the sender charges the modeled transfer time and stamps
/// the message with its completion time; the receiver's clock advances to
/// max(own, arrival) — i.e. a receive can wait, a send cannot (eager/RDMA
/// put model).
///
/// Fault tolerance: when the cluster carries a `faults::FaultInjector`,
/// every delivery attempt rolls deterministic drop/corrupt coins. Payloads
/// are checksummed (FNV-1a) at the sender; the receiver verifies and
/// discards corrupted arrivals, and the sender pays the NACK round-trip
/// plus an exponential virtual-time backoff before each retransmission.
/// Dropped attempts cost the sender the retransmit timeout. A message that
/// exhausts the attempt budget raises `faults::FaultError`; a receive from
/// a crashed peer, or one no rank can ever answer, raises
/// `faults::TimeoutError` instead of deadlocking.
///
/// A receive with no matching message parks the receiving fiber on its
/// mailbox; the matching send wakes it. Ranks are fibers (executor.hpp), so
/// a waiting receiver holds no worker thread.

#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <vector>

#include "numasim/phase_profile.hpp"
#include "runtime/cluster.hpp"
#include "runtime/executor.hpp"

namespace numabfs::rt {

class PostOffice {
 public:
  /// Sentinel timeout: wait forever (the pre-chaos-mode behavior).
  static constexpr double kNoTimeout = std::numeric_limits<double>::infinity();
  /// Delivery attempts per message before giving up with FaultError.
  static constexpr int kMaxAttempts = 20;

  explicit PostOffice(int nranks)
      : nranks_(nranks),
        boxes_(static_cast<size_t>(nranks)),
        seq_(static_cast<size_t>(nranks) * static_cast<size_t>(nranks), 0) {}

  /// Send `payload` to rank `to`. `flows` is the number of concurrent flows
  /// the caller knows are sharing the path (for NIC saturation modeling).
  /// Under an injected fault plan this is a *reliable* send: it charges the
  /// full retransmit history of the message (see file comment) and throws
  /// faults::FaultError if the attempt budget is exhausted.
  void send(Proc& from, int to, std::span<const std::uint64_t> payload,
            sim::Phase phase, int flows = 1);

  /// Blocking receive of the oldest intact message from `from`. Corrupted
  /// arrivals (checksum mismatch) are discarded after charging the NACK.
  ///
  /// `timeout_ns` bounds the *virtual* wait: on timeout, exactly
  /// `timeout_ns` is charged and faults::TimeoutError is thrown, so two
  /// runs with the same fault plan time out at bit-identical virtual
  /// times. The decision is deterministic too: a sender marked dead by the
  /// fault injector trips it at once, and otherwise it trips when the
  /// executor is quiescent — every unfinished rank parked, so no message
  /// can ever arrive. The same two conditions make a receive with the
  /// default infinite timeout throw (charging nothing): a diagnosable error
  /// beats a deadlock.
  std::vector<std::uint64_t> recv(Proc& self, int from, sim::Phase phase,
                                  double timeout_ns = kNoTimeout);

 private:
  struct Message {
    int from;
    double arrival_ns;
    std::uint64_t seq;
    std::uint64_t checksum;  ///< FNV-1a of the *intended* payload
    std::vector<std::uint64_t> payload;
  };
  struct Box {
    SpinLock mu;
    std::deque<Message> queue;
    Fiber* waiter = nullptr;  ///< the owner, parked until `waiting_from` sends
    int waiting_from = -1;
  };

  int nranks_;
  std::vector<Box> boxes_;
  /// Per-(from,to) message sequence numbers; each cell has a single writer
  /// (the sending rank), so plain words suffice.
  std::vector<std::uint64_t> seq_;
};

}  // namespace numabfs::rt
