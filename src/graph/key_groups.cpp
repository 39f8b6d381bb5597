#include "graph/key_groups.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace numabfs::graph {

void sort_by_key(std::span<std::uint64_t> entries,
                 std::vector<std::uint64_t>& scratch, std::uint64_t base,
                 std::uint64_t span) {
  constexpr int kMaxDigitBits = 11;
  const std::size_t n = entries.size();
  const int bits = span > 1 ? std::bit_width(span - 1) : 0;
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  if (n < 2 || passes == 0) return;
  const int width = (bits + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << width;
  const auto digit = [&](std::uint64_t e, int pass) {
    return static_cast<std::size_t>((entry_key(e) - base) >> (pass * width)) &
           (buckets - 1);
  };

  // Every pass's histogram from one read of the input.
  std::vector<std::size_t> count(static_cast<std::size_t>(passes) * buckets);
  for (const std::uint64_t e : entries)
    for (int p = 0; p < passes; ++p) ++count[p * buckets + digit(e, p)];

  scratch.resize(n);
  std::uint64_t* src = entries.data();
  std::uint64_t* dst = scratch.data();
  for (int p = 0; p < passes; ++p) {
    std::size_t* c = count.data() + p * buckets;
    if (c[digit(src[0], p)] == n) continue;  // one bucket: nothing moves
    std::size_t sum = 0;
    for (std::size_t b = 0; b < buckets; ++b) sum += std::exchange(c[b], sum);
    for (std::size_t i = 0; i < n; ++i) dst[c[digit(src[i], p)]++] = src[i];
    std::swap(src, dst);
  }
  if (src != entries.data()) std::copy(src, src + n, entries.data());
}

void split_groups(std::span<const std::uint64_t> entries,
                  std::vector<Vertex>& keys,
                  std::vector<std::uint64_t>& offsets,
                  std::vector<Vertex>& values) {
  keys.clear();
  offsets.clear();
  values.resize(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Vertex key = entry_key(entries[i]);
    if (keys.empty() || keys.back() != key) {
      keys.push_back(key);
      offsets.push_back(i);
    }
    values[i] = entry_value(entries[i]);
  }
  offsets.push_back(entries.size());
}

}  // namespace numabfs::graph
