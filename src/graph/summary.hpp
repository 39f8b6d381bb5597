#pragma once
/// \file summary.hpp
/// The `*_summary` bitmaps of the paper: one summary bit covers `g`
/// consecutive bits of a frontier bitmap (`g` = 64 in the Graph500
/// reference code; Section III.C studies raising it for cache locality).
/// A zero summary bit proves the covered frontier bits are all zero, which
/// lets the bottom-up kernel skip the (much larger, cache-hostile) frontier
/// probe.

#include <atomic>
#include <cassert>

#include "graph/bitmap.hpp"

namespace numabfs::graph {

class SummaryView {
 public:
  SummaryView() = default;
  /// `bits` must hold at least summary_bits_for(covered_bits, granularity).
  SummaryView(BitmapView bits, std::uint64_t covered_bits,
              std::uint64_t granularity)
      : bits_(bits), covered_(covered_bits), g_(granularity) {
    assert(granularity >= 1);
    assert(bits.size_bits() >= summary_bits_for(covered_bits, granularity));
  }

  static std::uint64_t summary_bits_for(std::uint64_t covered_bits,
                                        std::uint64_t granularity) {
    return (covered_bits + granularity - 1) / granularity;
  }

  std::uint64_t granularity() const { return g_; }
  std::uint64_t size_bits() const { return summary_bits_for(covered_, g_); }
  std::uint64_t size_bytes() const { return (size_bits() + 7) / 8; }
  BitmapView bits() { return bits_; }

  /// True if the summary admits any set bit in the block covering `pos`.
  bool covers(std::uint64_t pos) const { return bits_.get(pos / g_); }

  /// covers() on a map that other writers may be marking meanwhile: a
  /// relaxed atomic read of the summary word, to pair with mark(). The
  /// caller's own marks are settled; other writers' may not show yet.
  bool covers_atomic(std::uint64_t pos) const {
    const std::uint64_t bit = pos / g_;
    BitmapView bits = bits_;  // the view is const, not the words
    std::atomic_ref<std::uint64_t> ref(bits.words()[bit >> 6]);
    return (ref.load(std::memory_order_relaxed) >> (bit & 63)) & 1u;
  }

  /// Mark the block covering `pos`. Atomic: a summary word can straddle two
  /// writers' vertex ranges even when the ranges themselves are
  /// word-disjoint.
  void mark(std::uint64_t pos) {
    const std::uint64_t bit = pos / g_;
    std::atomic_ref<std::uint64_t> ref(bits_.words()[bit >> 6]);
    ref.fetch_or(1ull << (bit & 63), std::memory_order_relaxed);
  }

  /// Recompute the summary bits whose blocks intersect [begin, end) from
  /// the source bitmap (used after an allgather or a direction switch).
  /// Blocks are recomputed in full, so concurrent callers must cover
  /// disjoint block ranges or the same data.
  void rebuild_range(const BitmapView& src, std::uint64_t begin,
                     std::uint64_t end) {
    assert(end <= covered_ && src.size_bits() >= covered_);
    if (begin >= end) return;
    const std::uint64_t first_block = begin / g_;
    const std::uint64_t last_block = (end - 1) / g_;
    for (std::uint64_t b = first_block; b <= last_block; ++b) {
      const std::uint64_t lo = b * g_;
      const std::uint64_t hi = std::min(covered_, (b + 1) * g_);
      const bool any = src.count_range(lo, hi) != 0;
      // Full-block recompute: plain write is fine for disjoint block ranges,
      // but boundary *words* of the summary can be shared; merge atomically.
      std::atomic_ref<std::uint64_t> ref(bits_.words()[b >> 6]);
      if (any)
        ref.fetch_or(1ull << (b & 63), std::memory_order_relaxed);
      else
        ref.fetch_and(~(1ull << (b & 63)), std::memory_order_relaxed);
    }
  }

 private:
  BitmapView bits_;
  std::uint64_t covered_ = 0;
  std::uint64_t g_ = 64;
};

/// Owning summary bitmap.
class Summary {
 public:
  Summary() = default;
  Summary(std::uint64_t covered_bits, std::uint64_t granularity)
      : bits_(SummaryView::summary_bits_for(covered_bits, granularity)),
        covered_(covered_bits),
        g_(granularity) {}

  SummaryView view() { return SummaryView(bits_.view(), covered_, g_); }

 private:
  Bitmap bits_;
  std::uint64_t covered_ = 0;
  std::uint64_t g_ = 64;
};

}  // namespace numabfs::graph
