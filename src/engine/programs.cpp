#include "engine/programs.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace numabfs::engine {

const char* to_string(ProgramWorkload w) {
  switch (w) {
    case ProgramWorkload::sssp: return "sssp";
    case ProgramWorkload::pagerank: return "pagerank";
    case ProgramWorkload::components: return "components";
    case ProgramWorkload::triangles: return "triangles";
  }
  return "?";
}

namespace {

/// Set out bit `lv` (and its summary group); true if newly set, so callers
/// count distinct next-frontier members.
inline bool set_out(PartCtx& ctx, std::uint64_t lv) {
  std::uint64_t& w = ctx.out_bits[lv >> 6];
  const std::uint64_t m = 1ull << (lv & 63);
  if ((w & m) != 0) return false;
  w |= m;
  ctx.out_summary.mark(lv);
  return true;
}

/// Frontier membership of global vertex u. Blocks are 64-aligned
/// (Partition1D), so a vertex's frontier bit position IS its global id.
inline bool in_frontier(const PartCtx& ctx, graph::Vertex u) {
  return ProgramState::test(ctx.frontier, u);
}

/// Visit the owned frontier members of this partition (local ids).
template <class F>
void for_owned_frontier(const PartCtx& ctx, F&& f) {
  const std::uint64_t w0 = ctx.vbegin >> 6;
  const std::uint64_t nw = ctx.block >> 6;
  const std::uint64_t owned = ctx.lg.owned();
  for (std::uint64_t w = 0; w < nw; ++w) {
    std::uint64_t bits = ctx.frontier[w0 + w];
    while (bits) {
      const std::uint64_t lv =
          w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (lv < owned) f(lv);
    }
  }
}

// ---------------------------------------------------------------- SSSP --

class SsspProgram final : public FrontierProgram {
 public:
  SsspProgram(const graph::DistGraph& dg, const ProgramParams& pp)
      : dg_(dg),
        w_{pp.weight_seed, pp.sssp_max_weight},
        delta_(std::max<std::uint64_t>(1, pp.sssp_delta)) {}

  const char* name() const override { return "sssp"; }
  int scalar_count() const override { return 2; }  // [bucket, mode]

  ProgStats seed(const ProgramQuery& q, PartCtx& ctx) const override {
    ProgStats st;
    std::fill(ctx.val_out.begin(), ctx.val_out.end(), kProgInf);
    if (q.source >= ctx.vbegin && q.source < ctx.lg.vend) {
      const std::uint64_t lv = q.source - ctx.vbegin;
      ctx.val_out[lv] = 0;
      set_out(ctx, lv);
      st.changed = 1;
      st.frontier_edges = ctx.lg.degree(lv);
    }
    return st;
  }

  ProgStats advance(const ProgramQuery&, PartCtx& ctx,
                    std::span<const std::uint64_t> scalars, int /*level*/,
                    int /*dir*/, bool /*use_summary*/) const override {
    ProgStats st;
    const std::uint64_t lo = scalars[0] * delta_;
    std::uint64_t hi = lo + delta_;
    if (hi < lo) hi = kProgInf;  // bucket at the range end

    if (scalars[1] == 0) {
      // Relax level: push the bucket's frontier members' edges. A source is
      // relaxed iff its (replicated) distance sits in the current bucket —
      // out-of-bucket improvements wait in the owned arrays for a reseed.
      const auto& keys = ctx.lg.td_keys;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        const graph::Vertex u = keys[k];
        if (!in_frontier(ctx, u)) continue;
        const std::uint64_t du = ctx.values[u];
        if (du < lo || du >= hi) continue;
        ++st.sources;
        const auto group = ctx.lg.td_group(k);
        st.scanned += group.size();
        for (graph::Vertex v : group) {
          const std::uint64_t nd = du + w_(u, v);
          const std::uint64_t lv = v - ctx.vbegin;
          if (nd < ctx.val_out[lv]) {
            ctx.val_out[lv] = nd;
            if (set_out(ctx, lv)) ++st.changed;
            if (nd < hi) st.flags |= 1;  // intra-bucket progress
          }
        }
      }
      st.frontier_edges = st.scanned;
    } else {
      // Reseed level: re-ship the new bucket's members from the owned
      // distances (no relaxation; the exchange re-creates their frontier).
      const std::uint64_t owned = ctx.lg.owned();
      for (std::uint64_t lv = 0; lv < owned; ++lv) {
        const std::uint64_t d = ctx.val_out[lv];
        if (d >= lo && d < hi) {
          if (set_out(ctx, lv)) ++st.changed;
          st.frontier_edges += ctx.lg.degree(lv);
        }
      }
    }

    // Min unsettled distance (>= the bucket's upper bound): the next bucket
    // when this one drains, kProgInf when the computation is done.
    const std::uint64_t owned = ctx.lg.owned();
    for (std::uint64_t lv = 0; lv < owned; ++lv) {
      const std::uint64_t d = ctx.val_out[lv];
      if (d >= hi && d < st.min_word) st.min_word = d;
    }
    return st;
  }

  bool post_level(std::span<std::uint64_t> scalars, const ProgStats& rs,
                  int /*level*/) const override {
    if (scalars[1] == 1) {  // the reseed just ran; relax next
      scalars[1] = 0;
      return false;
    }
    if ((rs.flags & 1) != 0) return false;  // bucket still relaxing
    if (rs.min_word == kProgInf) return true;  // no unsettled vertex left
    scalars[0] = rs.min_word / delta_;
    scalars[1] = 1;  // reseed the new bucket next level
    return false;
  }

  double final_value(const ProgramQuery& q, const graph::DistGraph& dg,
                     ProgramState& ps, const ProgStats&) const override {
    const int owner = dg.part.owner(q.target);
    const std::uint64_t d =
        ps.val_out(owner)[q.target - dg.part.begin(owner)];
    return d == kProgInf ? std::numeric_limits<double>::infinity()
                         : static_cast<double>(d);
  }

 private:
  const graph::DistGraph& dg_;
  graph::EdgeWeights w_;
  std::uint64_t delta_;
};

// ------------------------------------------------------------ PageRank --

class PageRankProgram final : public FrontierProgram {
 public:
  PageRankProgram(const graph::DistGraph& dg, const ProgramParams& pp)
      : dg_(dg),
        d_(static_cast<float>(pp.pr_damping)),
        eps_(static_cast<float>(pp.pr_eps)),
        deg_(dg.n, 0) {
    for (int r = 0; r < dg.part.np(); ++r) {
      const auto& lg = dg.locals[static_cast<std::size_t>(r)];
      for (std::uint64_t lv = 0; lv < lg.owned(); ++lv)
        deg_[lg.vbegin + lv] = lg.degree(lv);
    }
  }

  const char* name() const override { return "pagerank"; }
  bool direction_optimizing() const override { return true; }

  ProgStats seed(const ProgramQuery&, PartCtx& ctx) const override {
    ProgStats st;
    const float r0 = 1.0f - d_;
    const std::uint64_t owned = ctx.lg.owned();
    std::fill(ctx.val_out.begin(), ctx.val_out.end(), pack_pr(0.0f, 0.0f));
    for (std::uint64_t lv = 0; lv < owned; ++lv) {
      ctx.val_out[lv] = pack_pr(0.0f, r0);
      if (r0 > eps_) {
        set_out(ctx, lv);
        ++st.changed;
        st.frontier_edges += ctx.lg.degree(lv);
      }
    }
    st.needy = owned;
    st.mu = ctx.lg.owned_edges();
    return st;
  }

  ProgStats advance(const ProgramQuery&, PartCtx& ctx,
                    std::span<const std::uint64_t>, int /*level*/, int dir,
                    bool use_summary) const override {
    ProgStats st;
    const std::uint64_t owned = ctx.lg.owned();
    if (dir == 0) {
      // Push. Commit the owned frontier members' residuals into their rank
      // first (the spread below reads the pre-level residuals from the
      // replica, so commit order cannot affect what gets spread) ...
      for_owned_frontier(ctx, [&](std::uint64_t lv) {
        const Value v = ctx.val_out[lv];
        ctx.val_out[lv] = pack_pr(pr_rank(v) + pr_residual(v), 0.0f);
        st.frontier_edges += ctx.lg.degree(lv);
      });
      // ... then scatter every frontier source's share to its owned
      // destinations through the top-down groups.
      const auto& keys = ctx.lg.td_keys;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        const graph::Vertex u = keys[k];
        if (!in_frontier(ctx, u) || deg_[u] == 0) continue;
        const float share =
            d_ * pr_residual(ctx.values[u]) / static_cast<float>(deg_[u]);
        ++st.sources;
        const auto group = ctx.lg.td_group(k);
        st.scanned += group.size();
        for (graph::Vertex v : group) {
          const std::uint64_t lv = v - ctx.vbegin;
          const Value val = ctx.val_out[lv];
          ctx.val_out[lv] = pack_pr(pr_rank(val), pr_residual(val) + share);
        }
      }
      for (std::uint64_t lv = 0; lv < owned; ++lv) {
        if (pr_residual(ctx.val_out[lv]) > eps_) {
          set_out(ctx, lv);
          ++st.changed;
        }
      }
    } else {
      // Pull: gather every owned vertex's incoming shares from its frontier
      // in-neighbors (optionally skipping summary-empty groups).
      for (std::uint64_t lv = 0; lv < owned; ++lv) {
        const graph::Vertex v = static_cast<graph::Vertex>(ctx.vbegin + lv);
        float acc = 0.0f;
        for (graph::Vertex u : ctx.lg.bu_neighbors(lv)) {
          ++st.scanned;
          if (use_summary && !ctx.fsummary.covers(u)) continue;
          if (in_frontier(ctx, u) && deg_[u] != 0)
            acc += d_ * pr_residual(ctx.values[u]) /
                   static_cast<float>(deg_[u]);
        }
        const Value val = ctx.val_out[lv];
        float pv = pr_rank(val);
        float rv = pr_residual(val);
        if (in_frontier(ctx, v)) {
          pv += rv;
          rv = 0.0f;
          st.frontier_edges += ctx.lg.degree(lv);
        }
        rv += acc;
        ctx.val_out[lv] = pack_pr(pv, rv);
        if (rv > eps_) {
          set_out(ctx, lv);
          ++st.changed;
        }
      }
    }
    st.needy = owned;
    st.mu = ctx.lg.owned_edges();
    return st;
  }

  bool post_level(std::span<std::uint64_t>, const ProgStats& rs,
                  int /*level*/) const override {
    return rs.changed == 0;  // every residual fell under eps
  }

  double final_value(const ProgramQuery& q, const graph::DistGraph& dg,
                     ProgramState& ps, const ProgStats&) const override {
    const int owner = dg.part.owner(q.source);
    const Value v = ps.val_out(owner)[q.source - dg.part.begin(owner)];
    // Fold the sub-eps leftover residual in: tightens the estimate at no
    // cost (the true rank differs from p by at most the undistributed mass).
    return static_cast<double>(pr_rank(v)) +
           static_cast<double>(pr_residual(v));
  }

 private:
  const graph::DistGraph& dg_;
  float d_;
  float eps_;
  std::vector<std::uint64_t> deg_;
};

// -------------------------------------------------- Connected components --

class ComponentsProgram final : public FrontierProgram {
 public:
  explicit ComponentsProgram(const graph::DistGraph& dg) : dg_(dg) {}

  const char* name() const override { return "components"; }
  bool direction_optimizing() const override { return true; }

  ProgStats seed(const ProgramQuery&, PartCtx& ctx) const override {
    ProgStats st;
    const std::uint64_t owned = ctx.lg.owned();
    // Pad labels are kProgInf so they can never win a min.
    std::fill(ctx.val_out.begin(), ctx.val_out.end(), kProgInf);
    for (std::uint64_t lv = 0; lv < owned; ++lv) {
      ctx.val_out[lv] = ctx.vbegin + lv;
      set_out(ctx, lv);
      ++st.changed;
      st.frontier_edges += ctx.lg.degree(lv);
    }
    st.needy = owned;
    st.mu = ctx.lg.owned_edges();
    return st;
  }

  ProgStats advance(const ProgramQuery&, PartCtx& ctx,
                    std::span<const std::uint64_t>, int /*level*/, int dir,
                    bool use_summary) const override {
    ProgStats st;
    const std::uint64_t owned = ctx.lg.owned();
    if (dir == 0) {
      for_owned_frontier(ctx, [&](std::uint64_t lv) {
        st.frontier_edges += ctx.lg.degree(lv);
      });
      const auto& keys = ctx.lg.td_keys;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        const graph::Vertex u = keys[k];
        if (!in_frontier(ctx, u)) continue;
        const std::uint64_t lu = ctx.values[u];
        ++st.sources;
        const auto group = ctx.lg.td_group(k);
        st.scanned += group.size();
        for (graph::Vertex v : group) {
          const std::uint64_t lv = v - ctx.vbegin;
          if (lu < ctx.val_out[lv]) {
            ctx.val_out[lv] = lu;
            if (set_out(ctx, lv)) ++st.changed;
          }
        }
      }
    } else {
      for (std::uint64_t lv = 0; lv < owned; ++lv) {
        const std::uint64_t cur = ctx.val_out[lv];
        std::uint64_t m = cur;
        for (graph::Vertex u : ctx.lg.bu_neighbors(lv)) {
          ++st.scanned;
          if (use_summary && !ctx.fsummary.covers(u)) continue;
          if (in_frontier(ctx, u) && ctx.values[u] < m) m = ctx.values[u];
        }
        if (m < cur) {
          ctx.val_out[lv] = m;
          if (set_out(ctx, lv)) ++st.changed;
        }
        if (in_frontier(ctx, static_cast<graph::Vertex>(ctx.vbegin + lv)))
          st.frontier_edges += ctx.lg.degree(lv);
      }
    }
    st.needy = owned;
    st.mu = ctx.lg.owned_edges();
    return st;
  }

  bool post_level(std::span<std::uint64_t>, const ProgStats& rs,
                  int /*level*/) const override {
    return rs.changed == 0;  // label fixpoint
  }

  double final_value(const ProgramQuery&, const graph::DistGraph& dg,
                     ProgramState& ps, const ProgStats&) const override {
    // Component count = vertices carrying their own id as label.
    std::uint64_t count = 0;
    for (int r = 0; r < dg.part.np(); ++r) {
      const auto& lg = dg.locals[static_cast<std::size_t>(r)];
      auto vo = ps.val_out(r);
      for (std::uint64_t lv = 0; lv < lg.owned(); ++lv)
        if (vo[lv] == lg.vbegin + lv) ++count;
    }
    return static_cast<double>(count);
  }

 private:
  const graph::DistGraph& dg_;
};

// ------------------------------------------------------------ Triangles --

class TrianglesProgram final : public FrontierProgram {
 public:
  explicit TrianglesProgram(const graph::DistGraph& dg) : dg_(dg) {
    // Forward adjacency: sorted, deduplicated, greater-id neighbors. Built
    // host-side from the slices (so a merged epoch view counts its own
    // edge set); each triangle u < v < w is counted once, at u.
    off_.assign(dg.n + 1, 0);
    std::vector<graph::Vertex> row;
    for (int r = 0; r < dg.part.np(); ++r) {
      const auto& lg = dg.locals[static_cast<std::size_t>(r)];
      for (std::uint64_t lv = 0; lv < lg.owned(); ++lv) {
        const graph::Vertex v = static_cast<graph::Vertex>(lg.vbegin + lv);
        row.clear();
        for (graph::Vertex u : lg.bu_neighbors(lv))
          if (u > v) row.push_back(u);
        std::sort(row.begin(), row.end());
        row.erase(std::unique(row.begin(), row.end()), row.end());
        fwd_.insert(fwd_.end(), row.begin(), row.end());
        off_[v + 1] = fwd_.size();
      }
    }
    // These reads are host-side construction, not a rank's kernel: drain
    // them so the first advance does not charge them as delta probes.
    for (const auto& lg : dg.locals) lg.take_patch_reads();
  }

  const char* name() const override { return "triangles"; }
  bool with_values() const override { return false; }

  ProgStats seed(const ProgramQuery&, PartCtx& ctx) const override {
    // Every owned vertex enters the (single) counting level's frontier.
    ProgStats st;
    const std::uint64_t owned = ctx.lg.owned();
    for (std::uint64_t lv = 0; lv < owned; ++lv) {
      set_out(ctx, lv);
      ++st.changed;
    }
    st.frontier_edges = ctx.lg.owned_edges();
    return st;
  }

  ProgStats advance(const ProgramQuery&, PartCtx& ctx,
                    std::span<const std::uint64_t>, int /*level*/, int,
                    bool) const override {
    ProgStats st;
    const std::uint64_t owned = ctx.lg.owned();
    for (std::uint64_t lv = 0; lv < owned; ++lv) {
      const graph::Vertex v = static_cast<graph::Vertex>(ctx.vbegin + lv);
      for (std::uint64_t i = off_[v]; i < off_[v + 1]; ++i) {
        const graph::Vertex u = fwd_[i];
        std::uint64_t a = off_[v], b = off_[u];
        while (a < off_[v + 1] && b < off_[u + 1]) {
          ++st.scanned;
          if (fwd_[a] < fwd_[b]) {
            ++a;
          } else if (fwd_[b] < fwd_[a]) {
            ++b;
          } else {
            ++st.acc;
            ++a;
            ++b;
          }
        }
        ++st.sources;
      }
    }
    return st;  // changed == 0: the frontier drains after one level
  }

  bool post_level(std::span<std::uint64_t>, const ProgStats&,
                  int /*level*/) const override {
    return true;  // one counting level
  }

  double final_value(const ProgramQuery&, const graph::DistGraph&,
                     ProgramState&, const ProgStats& last) const override {
    return static_cast<double>(last.acc);  // sum-reduced global count
  }

 private:
  const graph::DistGraph& dg_;
  std::vector<std::uint64_t> off_;
  std::vector<graph::Vertex> fwd_;
};

}  // namespace

std::unique_ptr<FrontierProgram> make_program(ProgramWorkload w,
                                              const graph::DistGraph& dg,
                                              const ProgramParams& pp) {
  switch (w) {
    case ProgramWorkload::sssp:
      return std::make_unique<SsspProgram>(dg, pp);
    case ProgramWorkload::pagerank:
      return std::make_unique<PageRankProgram>(dg, pp);
    case ProgramWorkload::components:
      return std::make_unique<ComponentsProgram>(dg);
    case ProgramWorkload::triangles:
      return std::make_unique<TrianglesProgram>(dg);
  }
  throw std::invalid_argument("make_program: unknown workload");
}

const FrontierProgram& ProgramCache::get(ProgramWorkload w,
                                         const graph::DistGraph& dg,
                                         std::uint64_t epoch) {
  Slot& s = slots_[static_cast<std::size_t>(w)];
  if (s.prog == nullptr || s.dg != &dg || s.epoch != epoch) {
    s.prog = make_program(w, dg, pp_);
    s.dg = &dg;
    s.epoch = epoch;
  }
  return *s.prog;
}

}  // namespace numabfs::engine
