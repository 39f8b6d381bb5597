#include "graph/rmat.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "runtime/executor.hpp"

namespace numabfs::graph {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string RmatParams::validate() const {
  if (scale < 1 || scale > 31)
    return "scale must be in [1, 31]: vertex ids are 32-bit and 2^32-1 is "
           "the no-vertex sentinel; got " +
           std::to_string(scale);
  if (edgefactor < 1)
    return "edgefactor must be >= 1; got " + std::to_string(edgefactor);
  if (!(a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c < 1.0)) {
    std::ostringstream os;
    os << "a, b and c must be >= 0 with a + b + c < 1 (d = 1 - a - b - c); "
          "got a="
       << a << ", b=" << b << ", c=" << c;
    return os.str();
  }
  return {};
}

namespace {

constexpr std::uint64_t kLabelKeySalt = 0xfeedfacecafebeefull;
/// Edges per task of rmat_edges: enough to amortize a pool dispatch.
constexpr std::uint64_t kEdgesPerTask = std::uint64_t{1} << 14;

void check(const RmatParams& p) {
  if (const std::string err = p.validate(); !err.empty())
    throw std::invalid_argument("rmat: " + err);
}

/// Unbalanced Feistel network over `scale` bits: bijective for any round
/// count because each round (L,R) -> (R, L ^ F(R)) is invertible.
Vertex feistel(std::uint64_t key, int scale, Vertex v) {
  if (scale <= 1) return v;  // 0/1-bit domains: identity
  const int h2 = scale / 2;        // low half width
  const int h1 = scale - h2;       // high half width
  std::uint64_t l = static_cast<std::uint64_t>(v) >> h2;
  std::uint64_t r = v & ((1ull << h2) - 1);
  int wl = h1, wr = h2;
  for (int round = 0; round < 4; ++round) {
    const std::uint64_t f =
        splitmix64(key ^ (r << 8) ^ static_cast<std::uint64_t>(round)) &
        ((1ull << wl) - 1);
    const std::uint64_t nl = r;
    const std::uint64_t nr = l ^ f;
    l = nl;
    r = nr;
    std::swap(wl, wr);
  }
  // After an even number of rounds the widths are back to (h1, h2).
  return static_cast<Vertex>((l << h2) | r);
}

/// The constants of one R-MAT stream, derived once per call instead of
/// once per edge.
class Stream {
 public:
  explicit Stream(const RmatParams& p)
      : seed_(p.seed),
        scale_(p.scale),
        permute_(p.permute_labels),
        key_(splitmix64(p.seed ^ kLabelKeySalt)),
        ta_(threshold(p.a)),
        tab_(threshold(p.a + p.b)),
        tabc_(threshold(p.a + p.b + p.c)) {}

  /// Edge i: `scale` quadrant choices, each from a uniform draw in [0,1)
  /// against the cumulative a, a+b, a+b+c; then both labels permuted.
  Edge edge(std::uint64_t i) const {
    const std::uint64_t eseed = splitmix64(seed_ + i);
    std::uint64_t u = 0, v = 0;
    for (int level = 0; level < scale_; ++level) {
      const std::uint64_t k =
          splitmix64(eseed ^ static_cast<std::uint64_t>(level) *
                                 0x2545f4914f6cdd1dull) >>
          11;
      // Quadrants a, b, c, d set the bits (u, v) = 00, 01, 10, 11. Without
      // branches: the draws are unpredictable by design.
      const std::uint64_t ge_a = k >= ta_, ge_ab = k >= tab_,
                          ge_abc = k >= tabc_;
      u = u << 1 | ge_ab;
      v = v << 1 | (ge_a ^ ge_ab ^ ge_abc);
    }
    return Edge{label(static_cast<Vertex>(u)), label(static_cast<Vertex>(v))};
  }

  Vertex label(Vertex v) const {
    return permute_ ? feistel(key_, scale_, v) : v;
  }

 private:
  /// The draw is x = k * 2^-53 for a 53-bit integer k, and both sides of
  /// x < t scale by 2^53 exactly, so x < t is exactly k < ceil(t * 2^53).
  static std::uint64_t threshold(double t) {
    return static_cast<std::uint64_t>(std::ceil(t * 0x1p53));
  }

  std::uint64_t seed_;
  int scale_;
  bool permute_;
  std::uint64_t key_;
  std::uint64_t ta_, tab_, tabc_;
};

}  // namespace

Vertex rmat_permute_label(const RmatParams& p, Vertex v) {
  return Stream(p).label(v);
}

std::vector<Edge> rmat_edge_range(const RmatParams& p, std::uint64_t first,
                                  std::uint64_t count) {
  check(p);
  const Stream s(p);
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::uint64_t i = first; i < first + count; ++i)
    edges.push_back(s.edge(i));
  return edges;
}

std::vector<Edge> rmat_edges(const RmatParams& p) {
  check(p);
  const Stream s(p);
  const std::uint64_t m = p.num_edges();
  std::vector<Edge> edges(m);
  const std::uint64_t tasks = (m + kEdgesPerTask - 1) / kEdgesPerTask;
  const int nw = static_cast<int>(
      std::min<std::uint64_t>(tasks, static_cast<std::uint64_t>(
                                         rt::exec::max_workers())));
  rt::exec::run(nw, [&](int w) {
    const auto bound = [&](int k) {
      return m * static_cast<std::uint64_t>(k) / static_cast<std::uint64_t>(nw);
    };
    for (std::uint64_t i = bound(w); i < bound(w + 1); ++i)
      edges[i] = s.edge(i);
  });
  return edges;
}

}  // namespace numabfs::graph
