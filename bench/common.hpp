#pragma once
/// \file common.hpp
/// Shared helpers for the bench binaries. Every bench regenerates one table
/// or figure of Cui et al. (CLUSTER 2012) and prints the same rows/series
/// the paper reports, in *virtual* (model) time — see DESIGN.md §5.

#include <cctype>
#include <iostream>
#include <memory>
#include <string>

#include "bfs/hybrid.hpp"
#include "engine/engine.hpp"
#include "engine/frontdoor.hpp"
#include "harness/graph500.hpp"
#include "harness/options.hpp"
#include "harness/table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace numabfs::bench {

inline void print_header(const std::string& figure,
                         const std::string& description,
                         const std::string& setup) {
  std::cout << "==============================================================\n"
            << "numabfs reproduction of " << figure << "\n"
            << description << "\n"
            << "setup: " << setup << "\n"
            << "note : all times/TEPS are virtual (calibrated model time)\n"
            << "==============================================================\n";
}

/// The optimization ladder of the paper's Fig. 9 (ppn=8 versions).
struct NamedConfig {
  std::string name;
  bfs::Config cfg;
};

inline std::vector<NamedConfig> fig9_ladder(std::uint64_t best_g = 256) {
  return {
      {"Original.ppn=8", bfs::original()},
      {"+ Share in_queue", bfs::share_in_queue()},
      {"+ Share all", bfs::share_all()},
      {"+ Par allgather", bfs::par_allgather()},
      {"+ Granularity", bfs::granularity(best_g)},
  };
}

/// Interleaved single-process-per-node baseline ("Original.ppn=1").
inline bfs::Config ppn1_interleave() {
  bfs::Config c = bfs::original();
  c.bind = bfs::BindMode::interleave;
  return c;
}

// --- observability plumbing (--metrics=<path>, --trace=<path>) ----------
// Every value recorded here is virtual time or a pure count, so the JSON
// is bit-reproducible across machines — which is what lets
// scripts/bench_baseline.py pin series against a committed baseline.

/// Lowercase [a-z0-9_] slug of a variant name, for stable metric keys
/// ("+ Share in_queue" -> "share_in_queue").
inline std::string slug(const std::string& name) {
  std::string out;
  bool sep = false;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      if (sep && !out.empty()) out += '_';
      sep = false;
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      sep = true;
    }
  }
  return out;
}

/// Record the chaos-mode reaction counters under `prefix`. Zero in
/// fault-free runs, so baselines stay clean; under a fault plan they are
/// the primary evidence of *how* the run survived.
inline void record_robustness(obs::Registry& reg, const std::string& prefix,
                              const sim::Counters& cnt) {
  reg.counter(prefix + ".retransmits").add(cnt.retransmits);
  reg.counter(prefix + ".recv_timeouts").add(cnt.recv_timeouts);
  reg.counter(prefix + ".adoptions").add(cnt.adoptions);
}

/// Record the per-level decisions of one BFS run under `prefix` (e.g.
/// "autotune.online.decisions"): levels per direction, the codec each
/// exchange rode, and the direction controller's switch count. Stable
/// `numabfs.metrics.v1` keys:
///   <prefix>.direction.{td,bu}            counters (levels run)
///   <prefix>.codec.{raw,sparse,dense}     counters (exchanges)
///   <prefix>.switches.direction           gauge
inline void record_decisions(obs::Registry& reg, const std::string& prefix,
                             const bfs::BfsRunResult& r) {
  reg.gauge(prefix + ".switches.direction").set(r.tune_direction_switches);
  for (const bfs::LevelTrace& t : r.trace) {
    reg.counter(prefix +
                (t.direction == 0 ? ".direction.td" : ".direction.bu"))
        .add();
    switch (t.exchange_codec) {
      case 0: reg.counter(prefix + ".codec.raw").add(); break;
      case 1: reg.counter(prefix + ".codec.sparse").add(); break;
      case 2: reg.counter(prefix + ".codec.dense").add(); break;
      default: break;  // final level: no exchange
    }
  }
}

/// Record one variant evaluation under `prefix` (e.g. "fig09.share_all").
inline void record_eval(obs::Registry& reg, const std::string& prefix,
                        const harness::EvalResult& r) {
  reg.gauge(prefix + ".harmonic_teps").set(r.harmonic_teps);
  reg.gauge(prefix + ".mean_time_ns").set(r.mean_time_ns);
  reg.counter(prefix + ".visited_mean").add(r.visited_mean);
  const auto& cnt = r.profile.counters();
  reg.counter(prefix + ".bytes_inter_node").add(cnt.bytes_inter_node);
  reg.counter(prefix + ".bytes_intra_node").add(cnt.bytes_intra_node);
  reg.counter(prefix + ".bytes_raw_equiv").add(cnt.bytes_raw_equiv);
  reg.counter(prefix + ".edges_scanned").add(cnt.edges_scanned);
  record_robustness(reg, prefix, cnt);
}

/// Record one query-engine serving report under `prefix`.
inline void record_engine(obs::Registry& reg, const std::string& prefix,
                          const engine::EngineReport& rep) {
  reg.gauge(prefix + ".total_ns").set(rep.total_ns);
  reg.gauge(prefix + ".busy_ns").set(rep.busy_ns);
  reg.gauge(prefix + ".mean_latency_ns").set(rep.mean_latency_ns);
  reg.gauge(prefix + ".p50_latency_ns").set(rep.p50_latency_ns);
  reg.gauge(prefix + ".p95_latency_ns").set(rep.p95_latency_ns);
  reg.gauge(prefix + ".p99_latency_ns").set(rep.p99_latency_ns);
  reg.gauge(prefix + ".qps").set(rep.qps);
  reg.counter(prefix + ".waves").add(static_cast<std::uint64_t>(rep.waves));
  reg.counter(prefix + ".levels").add(static_cast<std::uint64_t>(rep.levels));
  reg.counter(prefix + ".backpressured")
      .add(static_cast<std::uint64_t>(rep.backpressured));
}

/// Record one front-door (replicated serving tier) report under `prefix`:
/// per-class latency/attainment plus the degradation/failover evidence
/// (shed, degraded, failovers, blip) and the robustness counters.
inline void record_frontdoor(obs::Registry& reg, const std::string& prefix,
                             const engine::FrontDoorReport& rep) {
  reg.gauge(prefix + ".total_ns").set(rep.total_ns);
  reg.gauge(prefix + ".busy_ns").set(rep.busy_ns);
  reg.gauge(prefix + ".shed_rate").set(rep.shed_rate);
  reg.gauge(prefix + ".failover_blip_ns").set(rep.failover_blip_ns);
  reg.counter(prefix + ".waves").add(static_cast<std::uint64_t>(rep.waves));
  reg.counter(prefix + ".levels").add(static_cast<std::uint64_t>(rep.levels));
  reg.counter(prefix + ".failovers")
      .add(static_cast<std::uint64_t>(rep.failovers));
  reg.counter(prefix + ".replicas_lost")
      .add(static_cast<std::uint64_t>(rep.replicas_lost));
  reg.counter(prefix + ".degraded")
      .add(static_cast<std::uint64_t>(rep.degraded));
  reg.counter(prefix + ".shed").add(static_cast<std::uint64_t>(rep.shed));
  reg.counter(prefix + ".backpressured")
      .add(static_cast<std::uint64_t>(rep.backpressured));
  reg.counter(prefix + ".recoveries")
      .add(static_cast<std::uint64_t>(rep.recoveries));
  for (int c = 0; c < static_cast<int>(engine::SloClass::kCount); ++c) {
    const auto& cs = rep.cls[c];
    const std::string p =
        prefix + "." + engine::to_string(static_cast<engine::SloClass>(c));
    reg.counter(p + ".submitted").add(static_cast<std::uint64_t>(cs.submitted));
    reg.counter(p + ".served").add(static_cast<std::uint64_t>(cs.served));
    reg.counter(p + ".degraded").add(static_cast<std::uint64_t>(cs.degraded));
    reg.counter(p + ".shed").add(static_cast<std::uint64_t>(cs.shed));
    reg.gauge(p + ".p50_ns").set(cs.p50_ns);
    reg.gauge(p + ".p99_ns").set(cs.p99_ns);
    reg.gauge(p + ".attainment").set(cs.attainment);
  }
  record_robustness(reg, prefix, rep.counters);
}

/// --metrics=<path>: dump the registry as stable-schema JSON.
inline void write_metrics(const harness::Options& opt,
                          const obs::Registry& reg) {
  if (!opt.has("metrics")) return;
  const std::string path = opt.get_str("metrics", "metrics.json");
  if (reg.write(path))
    std::cout << "\nwrote " << path << "\n";
  else
    std::cerr << "\nfailed to write " << path << "\n";
}

/// --trace=<path>: attach a tracer to the cluster (nullptr when off).
inline std::shared_ptr<obs::Tracer> make_tracer(const harness::Options& opt,
                                                rt::Cluster& c) {
  if (!opt.has("trace")) return nullptr;
  auto tr = std::make_shared<obs::Tracer>(c.nranks(), c.ppn());
  c.set_tracer(tr);
  return tr;
}

/// Write the Chrome-trace JSON if --trace was given.
inline void write_trace(const harness::Options& opt,
                        const std::shared_ptr<obs::Tracer>& tr) {
  if (tr == nullptr) return;
  const std::string path = opt.get_str("trace", "trace.json");
  if (tr->write(path))
    std::cout << "\nwrote " << path << " (" << tr->total_events()
              << " events; open in https://ui.perfetto.dev)\n";
  else
    std::cerr << "\nfailed to write " << path << "\n";
}

}  // namespace numabfs::bench
