/// Regenerates Fig. 9: the headline overview — all optimizations on 16
/// nodes (128 processes), TEPS per variant.
///
/// Paper shape (scale 32, 16 nodes): Original.ppn=8 = 1.53x Original.ppn=1;
/// + Share in_queue +34.1%; + Share all +6.5%; + Par allgather +4.6%;
/// + Granularity +14.8%; overall 2.44x, reaching 39.2 GTEPS.

#include <iostream>

#include "common.hpp"
#include "harness/svg.hpp"

int main(int argc, char** argv) {
  using namespace numabfs;
  harness::Options opt(argc, argv);
  const int scale = opt.get_int_min("scale", 20, 1);
  const int roots = opt.get_int("roots", 8);
  const int nodes = opt.get_int("nodes", 16);
  const std::uint64_t best_g = opt.get_u64_pow2("granularity", 256);

  bench::print_header("Fig. 9", "Overview of all optimizations",
                      std::to_string(nodes) + " nodes, scale " +
                          std::to_string(scale) + ", " + std::to_string(roots) +
                          " roots (paper: scale 32)");

  const harness::GraphBundle bundle =
      harness::GraphBundle::make(scale, 16, opt.get_u64("seed", 20120924));

  harness::Table t({"variant", "TEPS", "vs ppn=1", "vs previous"});

  // Baseline: Original with one process per node, interleaved.
  obs::Registry reg;

  harness::ExperimentOptions eo1;
  eo1.nodes = nodes;
  eo1.ppn = 1;
  harness::Experiment e1(bundle, eo1);
  const harness::EvalResult r1 = e1.run(bench::ppn1_interleave(), roots);
  const double base = r1.harmonic_teps;
  bench::record_eval(reg, "fig09.original_ppn1", r1);
  t.row({"Original.ppn=1", harness::Table::gteps(base), "1.00x", "-"});

  harness::ExperimentOptions eo8;
  eo8.nodes = nodes;
  eo8.ppn = 8;
  harness::Experiment e8(bundle, eo8);
  double prev = base;
  for (const auto& nc : bench::fig9_ladder(best_g)) {
    const harness::EvalResult r = e8.run(nc.cfg, roots);
    const double teps = r.harmonic_teps;
    bench::record_eval(reg, "fig09." + bench::slug(nc.name), r);
    t.row({nc.name, harness::Table::gteps(teps),
           harness::Table::fmt(teps / base, 2) + "x",
           std::string("+")
               .append(harness::Table::fmt((teps / prev - 1.0) * 100.0, 1))
               .append("%")});
    prev = teps;
  }
  t.print(std::cout);
  bench::write_metrics(opt, reg);

  if (opt.has("trace")) {
    // One clean timeline: a single root under the best variant, on a fresh
    // cluster so earlier runs' clock resets don't overlay the spans.
    harness::ExperimentOptions eot;
    eot.nodes = nodes;
    eot.ppn = 8;
    harness::Experiment et(bundle, eot);
    auto tr = bench::make_tracer(opt, et.cluster());
    et.run(bench::fig9_ladder(best_g).back().cfg, 1);
    bench::write_trace(opt, tr);
  }

  if (opt.has("svg")) {
    harness::SvgChart chart("Fig. 9 — overview of all optimizations",
                            "variant", "GTEPS (virtual)");
    std::vector<std::string> cats = {"ppn=1"};
    std::vector<double> vals = {base / 1e9};
    harness::ExperimentOptions eo8b;
    eo8b.nodes = nodes;
    eo8b.ppn = 8;
    harness::Experiment e8b(bundle, eo8b);
    for (const auto& nc : bench::fig9_ladder(best_g)) {
      cats.push_back(nc.name);
      vals.push_back(e8b.run(nc.cfg, 1).harmonic_teps / 1e9);
    }
    chart.set_categories(cats);
    chart.add_series("TEPS", vals);
    const std::string path = opt.get_str("svg", ".") + "/fig09_overview.svg";
    chart.write_bars(path);
    std::cout << "\nwrote " << path << "\n";
  }

  std::cout << "\npaper: 1.53x / +34.1% / +6.5% / +4.6% / +14.8%; overall "
               "2.44x (39.2 GTEPS at scale 32)\n";
  return 0;
}
