#include "graph/codec.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "graph/summary.hpp"

namespace numabfs::graph::codec {
namespace {

// Mode bytes: every encoding is self-describing so the receiver can decode
// whatever the sender's gate (or fallback) picked.
constexpr std::uint8_t kModeRawWords = 0;   // verbatim 8-byte words
constexpr std::uint8_t kModeTokens = 1;     // zero-run / literal-run stream
constexpr std::uint8_t kModePositions = 2;  // delta-varint set-bit positions
constexpr std::uint8_t kModeRawList = 3;    // verbatim 4-byte vertices
constexpr std::uint8_t kModeDeltaList = 4;  // zigzag-delta varint vertices

[[noreturn]] void malformed(const char* what) {
  throw std::invalid_argument(std::string("codec: malformed input: ") + what);
}

/// Replace everything appended past `base` with the raw-words fallback.
std::size_t emit_raw_words(std::span<const std::uint64_t> words,
                           std::vector<std::uint8_t>& out, std::size_t base) {
  out.resize(base);
  out.push_back(kModeRawWords);
  const std::size_t nbytes = words.size() * 8;
  out.resize(base + 1 + nbytes);
  std::memcpy(out.data() + base + 1, words.data(), nbytes);
  return out.size() - base;
}

/// True if the summary proves word `w` of the encoded span (absolute bits
/// [base + w*64, base + w*64 + 64)) is all zero, so the encoder may skip
/// reading it. The guide can be a node-shared map that sibling ranks are
/// still marking for their own ranges (the 1-D gate trial-encodes right
/// after a td -> bu switch's conversion, with no barrier between), so it
/// is read atomically. The encoded span's own marks are settled, and a
/// sibling's set bit only makes the encoder look, so the output does not
/// depend on the timing.
bool guide_says_zero(const SummaryView& guide, std::uint64_t base,
                     std::size_t w) {
  const std::uint64_t g = guide.granularity();
  if (guide.size_bits() == 0) return false;
  const std::uint64_t sb_lo = (base + w * 64) / g;
  std::uint64_t sb_hi = (base + w * 64 + 63) / g;
  if (sb_lo >= guide.size_bits()) return false;
  if (sb_hi >= guide.size_bits()) sb_hi = guide.size_bits() - 1;
  for (std::uint64_t sb = sb_lo; sb <= sb_hi; ++sb)
    if (guide.covers_atomic(sb * g)) return false;
  return true;
}

}  // namespace

const char* to_string(Kind k) {
  switch (k) {
    case Kind::raw:
      return "raw";
    case Kind::sparse_list:
      return "sparse";
    case Kind::dense_bitmap:
      return "dense";
  }
  return "?";
}

std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::size_t get_varint(std::span<const std::uint8_t> in, std::size_t pos,
                       std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= in.size()) malformed("truncated varint");
    const std::uint8_t b = in[pos++];
    // The 10th byte (shift 63) holds exactly one payload bit; a larger
    // value would shift bits past 2^64, which the unsigned shift silently
    // discards — corruption must be rejected, not rounded.
    if (shift == 63 && (b & 0x7f) > 1) malformed("varint exceeds 64 bits");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return pos;
  }
  malformed("varint exceeds 64 bits");
}

std::size_t encode_dense(std::span<const std::uint64_t> words,
                         std::vector<std::uint8_t>& out,
                         const SummaryView* guide,
                         std::uint64_t guide_base_bit) {
  const std::size_t base = out.size();
  const std::size_t raw_bytes = words.size() * 8;
  out.push_back(kModeTokens);
  std::size_t i = 0;
  const std::size_t n = words.size();
  while (i < n) {
    // Zero run: the summary guide lets us extend it without touching the
    // (cache-hostile) frontier words it proves zero.
    std::size_t zrun = 0;
    while (i + zrun < n &&
           ((guide && guide_says_zero(*guide, guide_base_bit, i + zrun)) ||
            words[i + zrun] == 0))
      ++zrun;
    put_varint(out, zrun);
    i += zrun;
    if (i == n) break;
    // Literal run: words[i] != 0 here.
    std::size_t lrun = 0;
    while (i + lrun < n && words[i + lrun] != 0)
      ++lrun;
    put_varint(out, lrun);
    for (std::size_t k = 0; k < lrun; ++k) {
      const std::uint64_t w = words[i + k];
      std::uint8_t mask = 0;
      std::uint8_t bytes[8];
      int nb = 0;
      for (int b = 0; b < 8; ++b) {
        const auto byte = static_cast<std::uint8_t>(w >> (8 * b));
        if (byte) {
          mask |= static_cast<std::uint8_t>(1u << b);
          bytes[nb++] = byte;
        }
      }
      out.push_back(mask);
      out.insert(out.end(), bytes, bytes + nb);
    }
    i += lrun;
    if (out.size() - base > raw_bytes) return emit_raw_words(words, out, base);
  }
  if (out.size() - base > raw_bytes + 1) return emit_raw_words(words, out, base);
  return out.size() - base;
}

std::size_t encode_bitmap_sparse(std::span<const std::uint64_t> words,
                                 std::vector<std::uint8_t>& out) {
  const std::size_t base = out.size();
  const std::size_t raw_bytes = words.size() * 8;
  out.push_back(kModePositions);
  std::uint64_t count = 0;
  for (const std::uint64_t w : words) count += std::popcount(w);
  put_varint(out, count);
  std::uint64_t prev = 0;
  bool first = true;
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::uint64_t w = words[i];
    while (w) {
      const std::uint64_t pos = (i << 6) + std::countr_zero(w);
      put_varint(out, first ? pos : pos - prev);
      first = false;
      prev = pos;
      w &= w - 1;
      if (out.size() - base > raw_bytes) return emit_raw_words(words, out, base);
    }
  }
  if (out.size() - base > raw_bytes + 1) return emit_raw_words(words, out, base);
  return out.size() - base;
}

std::size_t decode_bitmap(std::span<const std::uint8_t> in,
                          std::span<std::uint64_t> words) {
  if (in.empty()) malformed("empty bitmap encoding");
  const std::size_t n = words.size();
  std::size_t pos = 1;
  switch (in[0]) {
    case kModeRawWords: {
      if (in.size() < 1 + n * 8) malformed("truncated raw words");
      std::memcpy(words.data(), in.data() + 1, n * 8);
      return 1 + n * 8;
    }
    case kModeTokens: {
      std::size_t i = 0;
      while (i < n) {
        std::uint64_t zrun = 0;
        pos = get_varint(in, pos, zrun);
        if (zrun > n - i) malformed("zero run overflows bitmap");
        std::memset(words.data() + i, 0, zrun * 8);
        i += zrun;
        if (i == n) break;
        std::uint64_t lrun = 0;
        pos = get_varint(in, pos, lrun);
        // A valid encoder always emits >= 1 literal word here (the zero run
        // ended on a nonzero word); an empty run is corruption and would let
        // crafted zrun/lrun pairs spin over the input without producing
        // output.
        if (lrun == 0) malformed("empty literal run");
        if (lrun > n - i) malformed("literal run overflows bitmap");
        for (std::uint64_t k = 0; k < lrun; ++k) {
          if (pos >= in.size()) malformed("truncated literal mask");
          const std::uint8_t mask = in[pos++];
          std::uint64_t w = 0;
          for (int b = 0; b < 8; ++b) {
            if (!(mask & (1u << b))) continue;
            if (pos >= in.size()) malformed("truncated literal byte");
            w |= static_cast<std::uint64_t>(in[pos++]) << (8 * b);
          }
          words[i + k] = w;
        }
        i += lrun;
      }
      return pos;
    }
    case kModePositions: {
      std::memset(words.data(), 0, n * 8);
      std::uint64_t count = 0;
      pos = get_varint(in, pos, count);
      std::uint64_t cur = 0;
      for (std::uint64_t k = 0; k < count; ++k) {
        std::uint64_t d = 0;
        pos = get_varint(in, pos, d);
        // cur + d wrapping around 2^64 would sneak a huge corrupted gap
        // past the range check below and silently set a wrong bit.
        if (k != 0 && d > ~cur) malformed("set-bit position overflows");
        cur = (k == 0) ? d : cur + d;
        if (cur >= n * 64) malformed("set-bit position out of range");
        words[cur >> 6] |= 1ull << (cur & 63);
      }
      return pos;
    }
    default:
      malformed("unknown bitmap mode byte");
  }
}

std::size_t encode_list(std::span<const Vertex> list,
                        std::vector<std::uint8_t>& out) {
  const std::size_t base = out.size();
  const std::size_t raw_payload = list.size() * sizeof(Vertex);
  out.push_back(kModeDeltaList);
  put_varint(out, list.size());
  const std::size_t header = out.size() - base;
  std::uint64_t prev = 0;
  for (std::size_t k = 0; k < list.size(); ++k) {
    const auto v = static_cast<std::uint64_t>(list[k]);
    if (k == 0) {
      put_varint(out, v);
    } else {
      // Zigzag so backward jumps (top-down lists are grouped by frontier
      // key, not sorted) stay small varints.
      const auto d = static_cast<std::int64_t>(v) - static_cast<std::int64_t>(prev);
      put_varint(out, (static_cast<std::uint64_t>(d) << 1) ^
                          static_cast<std::uint64_t>(d >> 63));
    }
    prev = v;
    if (out.size() - base > header + raw_payload) break;
  }
  if (out.size() - base > header + raw_payload) {
    out.resize(base);
    out.push_back(kModeRawList);
    put_varint(out, list.size());
    const std::size_t off = out.size();
    out.resize(off + raw_payload);
    std::memcpy(out.data() + off, list.data(), raw_payload);
  }
  return out.size() - base;
}

std::size_t decode_list(std::span<const std::uint8_t> in,
                        std::vector<Vertex>& out) {
  if (in.empty()) malformed("empty list encoding");
  const std::uint8_t mode = in[0];
  std::uint64_t count = 0;
  std::size_t pos = get_varint(in, 1, count);
  if (count > in.size() * 8) malformed("list count exceeds encoding size");
  out.reserve(out.size() + count);
  if (mode == kModeRawList) {
    const std::size_t nbytes = count * sizeof(Vertex);
    if (in.size() < pos + nbytes) malformed("truncated raw list");
    const std::size_t off = out.size();
    out.resize(off + count);
    std::memcpy(out.data() + off, in.data() + pos, nbytes);
    return pos + nbytes;
  }
  if (mode != kModeDeltaList) malformed("unknown list mode byte");
  std::uint64_t prev = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    std::uint64_t d = 0;
    pos = get_varint(in, pos, d);
    std::uint64_t v;
    if (k == 0) {
      v = d;
    } else {
      const auto delta = static_cast<std::int64_t>((d >> 1) ^ (~(d & 1) + 1));
      v = static_cast<std::uint64_t>(static_cast<std::int64_t>(prev) + delta);
    }
    if (v > 0xffffffffull) malformed("decoded vertex exceeds 32 bits");
    out.push_back(static_cast<Vertex>(v));
    prev = v;
  }
  return pos;
}

std::uint64_t dense_estimate_bytes(std::uint64_t words,
                                   std::uint64_t set_bits) {
  const std::uint64_t raw_bound = words * 8 + 1;
  if (words == 0) return 1;
  const double d =
      std::min(1.0, static_cast<double>(set_bits) /
                        (static_cast<double>(words) * 64.0));
  const double p_word = 1.0 - std::pow(1.0 - d, 64.0);
  const double p_byte = 1.0 - std::pow(1.0 - d, 8.0);
  // Literal word = mask byte + its expected nonzero bytes; run boundaries
  // cost ~2 varint bytes each, and zero<->literal transitions happen with
  // probability p_word * (1 - p_word) per word.
  const double lit = static_cast<double>(words) * p_word * (1.0 + 8.0 * p_byte);
  const double runs =
      2.0 * (static_cast<double>(words) * p_word * (1.0 - p_word) + 1.0);
  const auto est = static_cast<std::uint64_t>(1.0 + lit + runs);
  return std::min(est, raw_bound);
}

std::uint64_t sparse_estimate_bytes(std::uint64_t set_bits,
                                    std::uint64_t covered_bits) {
  const std::uint64_t raw_bound = (covered_bits + 63) / 64 * 8 + 1;
  if (set_bits == 0) return std::min<std::uint64_t>(2, raw_bound);
  const std::uint64_t gap = std::max<std::uint64_t>(1, covered_bits / set_bits);
  const std::uint64_t est =
      1 + varint_len(set_bits) + set_bits * varint_len(gap);
  return std::min(est, raw_bound);
}

}  // namespace numabfs::graph::codec
