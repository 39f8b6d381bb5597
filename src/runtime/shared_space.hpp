#pragma once
/// \file shared_space.hpp
/// Node-shared buffers — the simulator's stand-in for the paper's
/// mmap-shared segments (Section III.A).
///
/// All ranks of a node that ask for the same (node, key) receive the
/// same span. Callers are responsible for the phase discipline the paper
/// relies on: writers own disjoint regions, and reads of another rank's
/// region happen only after a barrier.

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace numabfs::rt {

class SharedSpace {
 public:
  /// Get-or-create the node-shared buffer `key` of exactly `words`
  /// uint64s (zero-initialized on creation). Throws if the key exists with
  /// a different size.
  std::span<std::uint64_t> node_words(int node, const std::string& key,
                                      std::size_t words) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = bufs_.try_emplace({node, key});
    if (inserted) {
      it->second.assign(words, 0);
    } else if (it->second.size() != words) {
      throw std::invalid_argument("SharedSpace: size mismatch for key " + key);
    }
    return {it->second.data(), it->second.size()};
  }

  /// Drop all buffers (between independent runs).
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.clear();
    claims_.clear();
  }

  // --- write discipline --------------------------------------------------
  // The phase discipline described in the file comment is a convention; in
  // a racy caller it fails silently. These hooks make it checkable: writers
  // declare the region they are about to write, and two ranks claiming
  // overlapping words of the same buffer within one phase is diagnosed as a
  // logic error instead of racing.

  /// Declare that `rank` will write words [lo, hi) of (node, key) during
  /// the current phase. Throws std::logic_error if the region overlaps a
  /// claim made by a *different* rank since the last begin_phase().
  void claim_write(int node, const std::string& key, std::size_t lo,
                   std::size_t hi, int rank) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Claim& c : claims_[{node, key}]) {
      if (c.rank != rank && lo < c.hi && c.lo < hi) {
        throw std::logic_error(
            "SharedSpace: out-of-phase write on node " + std::to_string(node) +
            " key '" + key + "': rank " + std::to_string(rank) + " words [" +
            std::to_string(lo) + ", " + std::to_string(hi) +
            ") overlap rank " + std::to_string(c.rank) + " words [" +
            std::to_string(c.lo) + ", " + std::to_string(c.hi) +
            ") claimed in the same phase");
      }
    }
    claims_[{node, key}].push_back(Claim{lo, hi, rank});
  }

  /// Forget all write claims. Call at phase boundaries (barriers), after
  /// which previously written regions are fair game again.
  void begin_phase() {
    std::lock_guard<std::mutex> lock(mu_);
    claims_.clear();
  }

 private:
  struct Claim {
    std::size_t lo, hi;
    int rank;
  };

  std::mutex mu_;
  std::map<std::pair<int, std::string>, std::vector<std::uint64_t>> bufs_;
  std::map<std::pair<int, std::string>, std::vector<Claim>> claims_;
};

}  // namespace numabfs::rt
