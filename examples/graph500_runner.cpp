/// \file graph500_runner.cpp
/// Full Graph500-style evaluation driver — the closest thing to the
/// paper's actual experiment binary. Generates an R-MAT graph, runs N BFS
/// iterations of a configurable variant on a configurable cluster shape,
/// reports the harmonic-mean TEPS and the phase breakdown, and (optionally)
/// validates every tree.
///
///   ./graph500_runner --scale=20 --nodes=16 --ppn=8 --roots=16
///       --sharing=all --par-allgather --granularity=256 --validate
///
/// Options:
///   --scale=N          log2 of vertex count (default 18)
///   --edgefactor=N     edges per vertex (default 16)
///   --seed=N           generator seed (default 20120924)
///   --nodes=N          cluster nodes (default 4)
///   --ppn=N            processes per node, 1 or divisor of 8 (default 8)
///   --roots=N          BFS iterations (default 16, Graph500 uses 64)
///   --bind=MODE        noflag | interleave | bind (default bind)
///   --sharing=LEVEL    none | in_queue | all (default none)
///   --par-allgather    enable subgroup-parallel allgather (needs sharing=all)
///   --granularity=N    summary granularity (default 64)
///   --leader-allgather use leader-based allgather when sharing=none
///   --direction=D      hybrid | top-down | bottom-up (default hybrid)
///   --alpha=F --beta=F switching thresholds (defaults 14, 24)
///   --weak-node=N      degrade node N's NIC by --weak-factor (default off)
///   --validate         validate every BFS tree against the Graph500 rules
///   --trace            print the per-level trace of the first root
///   --csv              emit one machine-readable CSV line at the end
///   --save=FILE        write the generated edge list (binary, reusable)
///   --load=FILE        evaluate a saved/external edge list instead of
///                      generating one (--scale/--edgefactor/--seed ignored)

#include <iostream>
#include <stdexcept>

#include "graph/edgelist_io.hpp"
#include "graph/validate.hpp"
#include "harness/graph500.hpp"
#include "harness/options.hpp"
#include "harness/table.hpp"

int main(int argc, char** argv) try {
  using namespace numabfs;
  harness::Options opt(argc, argv);

  const int scale = opt.get_int_min("scale", 18, 1);
  const int roots = opt.get_int("roots", 16);

  bfs::Config cfg;
  const std::string bind = opt.get_str("bind", "bind");
  cfg.bind = bind == "noflag"      ? bfs::BindMode::noflag
             : bind == "interleave" ? bfs::BindMode::interleave
                                    : bfs::BindMode::bind_to_socket;
  const std::string sharing = opt.get_str("sharing", "none");
  cfg.sharing = sharing == "all"        ? bfs::Sharing::all
                : sharing == "in_queue" ? bfs::Sharing::in_queue
                                        : bfs::Sharing::none;
  cfg.parallel_allgather = opt.get_bool("par-allgather", false);
  cfg.summary_granularity = opt.get_u64_pow2("granularity", 64);
  if (opt.get_bool("leader-allgather", false))
    cfg.base_algo = rt::AllgatherAlgo::leader_ring;
  const std::string dir = opt.get_str("direction", "hybrid");
  cfg.direction = dir == "top-down"    ? bfs::Direction::top_down_only
                  : dir == "bottom-up" ? bfs::Direction::bottom_up_only
                                       : bfs::Direction::hybrid;
  cfg.alpha = opt.get_double("alpha", 14.0);
  cfg.beta = opt.get_double("beta", 24.0);
  if (const std::string err = cfg.validate(); !err.empty())
    throw std::invalid_argument(err);

  harness::GraphBundle bundle = [&] {
    if (opt.has("load")) {
      const std::string path = opt.get_str("load", "");
      std::cout << "loading edge list " << path << "...\n";
      const graph::LoadedEdges in = graph::load_edges(path);
      return harness::GraphBundle::from_edges(in.num_vertices, in.edges,
                                              opt.get_u64("seed", 20120924),
                                              std::max(roots, 64));
    }
    std::cout << "generating scale-" << scale << " R-MAT graph...\n";
    return harness::GraphBundle::make(scale,
                                      opt.get_int_min("edgefactor", 16, 1),
                                      opt.get_u64("seed", 20120924),
                                      std::max(roots, 64));
  }();
  if (opt.has("save")) {
    const auto edges = graph::rmat_edges(bundle.params);
    graph::save_edges(opt.get_str("save", ""), bundle.params.num_vertices(),
                      edges);
    std::cout << "saved edge list to " << opt.get_str("save", "") << "\n";
  }

  harness::ExperimentOptions eo;
  eo.nodes = opt.get_int("nodes", 4);
  eo.ppn = opt.get_int("ppn", 8);
  eo.weak_node = opt.get_int("weak-node", -1);
  eo.weak_node_factor = opt.get_double_in("weak-factor", 0.5, 0.0, 1.0, true);
  harness::Experiment exp(bundle, eo);

  std::cout << "cluster: " << exp.cluster().topo().describe()
            << "variant: " << cfg.name() << "\n"
            << "running " << roots << " BFS iterations...\n\n";

  const harness::EvalResult res = exp.run(cfg, roots);

  if (opt.get_bool("validate", false)) {
    int ok = 0;
    for (int i = 0; i < res.roots; ++i) {
      const graph::Vertex root = bundle.roots[static_cast<size_t>(i)];
      const auto [r, parent] = exp.run_validated(cfg, root);
      const auto v = graph::validate_bfs_tree(bundle.csr, root, parent);
      if (!v.ok) {
        std::cout << "VALIDATION FAILED root " << root << ": " << v.error
                  << "\n";
        return 1;
      }
      ++ok;
    }
    std::cout << "validation: " << ok << "/" << res.roots << " trees OK\n";
  }

  harness::Table t({"metric", "value"});
  t.row({"harmonic mean TEPS", harness::Table::gteps(res.harmonic_teps)});
  t.row({"mean time per BFS", harness::Table::ms(res.mean_time_ns)});
  t.row({"mean vertices visited", std::to_string(res.visited_mean)});
  t.row({"mean bottom-up levels", std::to_string(res.mean_bu_levels)});
  t.row({"avg bottom-up comm phase",
         harness::Table::ms(res.avg_bu_comm_phase_ns, 3)});
  t.row({"bottom-up comm share", harness::Table::pct(res.bu_comm_fraction)});
  t.print(std::cout);
  std::cout << "\nphase breakdown (mean over ranks and roots):\n  "
            << res.profile.breakdown() << "\n";

  const auto& cnt = res.profile.counters();
  std::cout << "\nmeasured kernel counters (summed):\n"
            << "  edges scanned      " << cnt.edges_scanned << "\n"
            << "  summary probes     " << cnt.summary_probes << " ("
            << harness::Table::pct(
                   cnt.summary_probes
                       ? static_cast<double>(cnt.summary_zero_skips) /
                             static_cast<double>(cnt.summary_probes)
                       : 0.0)
            << " zero-skips)\n"
            << "  in_queue probes    " << cnt.inqueue_probes << "\n"
            << "  intra-node bytes   " << cnt.bytes_intra_node << "\n"
            << "  inter-node bytes   " << cnt.bytes_inter_node << "\n";

  if (opt.get_bool("trace", false) && !res.per_root.empty()) {
    std::cout << "\nper-level trace (first root):\n";
    harness::Table lt({"level", "dir", "frontier", "discovered",
                       "edges scanned", "skip rate", "comp", "comm"});
    for (const auto& lv : res.per_root.front().trace)
      lt.row({std::to_string(lv.level), lv.direction ? "bu" : "td",
              std::to_string(lv.frontier_vertices),
              std::to_string(lv.discovered),
              std::to_string(lv.edges_scanned),
              lv.direction ? harness::Table::pct(lv.skip_rate()) : "-",
              harness::Table::ms(lv.comp_ns, 3),
              harness::Table::ms(lv.comm_ns, 3)});
    lt.print(std::cout);
  }

  if (opt.get_bool("csv", false))
    std::cout << "\ncsv,scale=" << scale << ",nodes=" << eo.nodes
              << ",ppn=" << eo.ppn << ",variant=" << cfg.name()
              << ",gteps=" << res.harmonic_teps / 1e9
              << ",bu_comm_share=" << res.bu_comm_fraction << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "graph500_runner: " << e.what() << "\n";
  return 2;
}
