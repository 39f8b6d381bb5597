#pragma once
/// \file partition.hpp
/// 1-D block partition of the vertex set over ranks, as in the Graph500
/// reference code the paper builds on. Blocks are aligned to 64 bits so
/// every rank's frontier-bitmap chunk is word-disjoint and equally sized
/// (the final block is zero-padded), which is what the allgather exchanges.

#include <cassert>
#include <cstdint>

namespace numabfs::graph {

class Partition1D {
 public:
  /// Block alignment in bits. The exchanges rely on word-aligned blocks:
  /// every chunk lands with one memcpy, and a block's presence bitmap is
  /// exactly block / 8 bytes.
  static constexpr std::uint64_t kAlignBits = 64;

  /// Partition [0, n) into `np` blocks of equal padded size, each a
  /// multiple of kAlignBits.
  Partition1D(std::uint64_t n, int np) : n_(n), np_(np) {
    assert(np >= 1);
    const std::uint64_t raw = (n + static_cast<std::uint64_t>(np) - 1) /
                              static_cast<std::uint64_t>(np);
    block_ = (raw + kAlignBits - 1) / kAlignBits * kAlignBits;
    if (block_ == 0) block_ = kAlignBits;
  }

  std::uint64_t n() const { return n_; }
  int np() const { return np_; }
  /// Padded block size in bits; every rank's allgather chunk is this long.
  std::uint64_t block() const { return block_; }

  std::uint64_t begin(int r) const {
    const std::uint64_t b = static_cast<std::uint64_t>(r) * block_;
    return b < n_ ? b : n_;
  }
  std::uint64_t end(int r) const {
    const std::uint64_t e = (static_cast<std::uint64_t>(r) + 1) * block_;
    return e < n_ ? e : n_;
  }
  std::uint64_t size(int r) const { return end(r) - begin(r); }

  int owner(std::uint64_t v) const {
    assert(v < n_);
    const std::uint64_t r = v / block_;
    return static_cast<int>(r < static_cast<std::uint64_t>(np_) ? r
                                                                : np_ - 1);
  }

  /// Total padded bits = np * block (the allgathered bitmap length).
  std::uint64_t padded_bits() const {
    return static_cast<std::uint64_t>(np_) * block_;
  }

 private:
  std::uint64_t n_;
  int np_;
  std::uint64_t block_ = 0;
};

}  // namespace numabfs::graph
