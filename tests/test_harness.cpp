#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "harness/graph500.hpp"
#include "harness/options.hpp"
#include "harness/table.hpp"

namespace numabfs::harness {
namespace {

TEST(HarmonicMean, Basics) {
  EXPECT_DOUBLE_EQ(harmonic_mean({2.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(harmonic_mean({1.0, 1.0, 1.0}), 1.0);
  // Harmonic mean is dominated by the slowest iteration.
  EXPECT_NEAR(harmonic_mean({1.0, 100.0}), 1.98, 0.01);
  EXPECT_DOUBLE_EQ(harmonic_mean({}), 0.0);
  EXPECT_LE(harmonic_mean({3.0, 6.0}), (3.0 + 6.0) / 2.0);  // HM <= AM
}

TEST(HarmonicMean, InvalidSampleNaNMarksTheAggregate) {
  // A zero/negative/non-finite TEPS sample means one run produced no valid
  // figure of merit: the series aggregate is undefined, and reporting 0.0
  // (or an Inf-driven value) would read as a real measurement downstream.
  // NaN-mark instead — the same policy mean()/percentile() apply per-sample.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(harmonic_mean({0.0, 5.0})));
  EXPECT_TRUE(std::isnan(harmonic_mean({-1.0, 5.0})));
  EXPECT_TRUE(std::isnan(harmonic_mean({nan, 5.0})));
  EXPECT_TRUE(std::isnan(harmonic_mean({inf, 5.0})));
  EXPECT_TRUE(std::isnan(harmonic_mean({0.0})));
  // Valid series are unaffected.
  EXPECT_DOUBLE_EQ(harmonic_mean({2.0, 2.0}), 2.0);
}

TEST(Mean, Basics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_DOUBLE_EQ(mean({-2.0, 2.0}), 0.0);
}

TEST(Percentile, OrderStatisticsAndInterpolation) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100), 7.0);
  // Input order must not matter (the helper sorts its copy).
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0, 4.0}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 100), 4.0);
  // Linear interpolation between order statistics (type-7): for 5 points,
  // p90 sits 0.6 of the way from the 4th to the 5th value.
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0, 30.0, 40.0, 50.0}, 90), 46.0);
  // Out-of-range p clamps instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, -5), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 140), 2.0);
  // p50 of an even-length input is the midpoint of the middle pair.
  EXPECT_DOUBLE_EQ(percentile({1.0, 9.0}, 50), 5.0);
}

TEST(Percentile, SkipsNonFiniteSamples) {
  // NaN marks a missing sample (e.g. a query that never completed); it must
  // deflate the sample count, not poison the sort order or pull the
  // percentiles toward 0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(percentile({nan, 3.0, 1.0, nan, 2.0}, 50), 2.0);
  EXPECT_DOUBLE_EQ(percentile({nan, 3.0, 1.0, nan, 2.0}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({nan, 3.0, 1.0, nan, 2.0}, 100), 3.0);
  EXPECT_DOUBLE_EQ(percentile({inf, -inf, 5.0}, 50), 5.0);
  // All samples missing behaves like the empty input.
  EXPECT_DOUBLE_EQ(percentile({nan, nan}, 95), 0.0);
  // A single surviving sample is every percentile.
  EXPECT_DOUBLE_EQ(percentile({nan, 42.0}, 0), 42.0);
  EXPECT_DOUBLE_EQ(percentile({nan, 42.0}, 50), 42.0);
  EXPECT_DOUBLE_EQ(percentile({nan, 42.0}, 100), 42.0);
}

TEST(Mean, SkipsNonFiniteSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(mean({nan, 2.0, 4.0}), 3.0);
  EXPECT_DOUBLE_EQ(mean({nan, nan}), 0.0);
}

TEST(GraphBundle, RootsAreDistinctAndSearchable) {
  const GraphBundle b = GraphBundle::make(12, 16, 5, 32);
  EXPECT_GT(b.roots.size(), 8u);
  std::set<graph::Vertex> seen;
  for (graph::Vertex r : b.roots) {
    EXPECT_GT(b.csr.degree(r), 0u) << "isolated root selected";
    EXPECT_TRUE(seen.insert(r).second) << "duplicate root";
  }
}

TEST(GraphBundle, DeterministicForSeed) {
  const GraphBundle a = GraphBundle::make(10, 16, 7, 8);
  const GraphBundle b = GraphBundle::make(10, 16, 7, 8);
  EXPECT_EQ(a.roots, b.roots);
  EXPECT_EQ(a.csr.num_directed_edges(), b.csr.num_directed_edges());
}

TEST(Experiment, EvalResultConsistency) {
  const GraphBundle b = GraphBundle::make(11, 16, 5, 8);
  ExperimentOptions eo;
  eo.nodes = 2;
  eo.ppn = 4;
  Experiment e(b, eo);
  const EvalResult r = e.run(bfs::original(), 4);
  EXPECT_EQ(r.roots, 4);
  EXPECT_EQ(r.per_root.size(), 4u);
  EXPECT_GT(r.harmonic_teps, 0.0);
  EXPECT_GT(r.mean_time_ns, 0.0);
  EXPECT_GE(r.bu_comm_fraction, 0.0);
  EXPECT_LE(r.bu_comm_fraction, 1.0);
  // Harmonic mean never exceeds the fastest iteration.
  double best = 0;
  for (const auto& rr : r.per_root) best = std::max(best, rr.teps());
  EXPECT_LE(r.harmonic_teps, best + 1e-6);
}

TEST(Experiment, CapsRootsAtBundleSize) {
  const GraphBundle b = GraphBundle::make(10, 16, 5, 3);
  ExperimentOptions eo;
  eo.nodes = 1;
  eo.ppn = 4;
  Experiment e(b, eo);
  EXPECT_EQ(e.run(bfs::original(), 100).roots,
            static_cast<int>(b.roots.size()));
}

TEST(Experiment, RejectsInvalidConfig) {
  const GraphBundle b = GraphBundle::make(10, 16, 5, 2);
  ExperimentOptions eo;
  Experiment e(b, eo);
  bfs::Config bad;
  bad.parallel_allgather = true;
  EXPECT_THROW(e.run(bad, 1), std::invalid_argument);
}

TEST(Options, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--scale=20", "--flag", "--name=abc",
                        "--ratio=2.5"};
  Options o(5, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int("scale", 0), 20);
  EXPECT_TRUE(o.get_bool("flag", false));
  EXPECT_EQ(o.get_str("name", ""), "abc");
  EXPECT_DOUBLE_EQ(o.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(o.get_int("missing", 7), 7);
  EXPECT_FALSE(o.has("missing"));
}

TEST(Options, RejectsPositionalArgs) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Options(2, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(Options, ValidatesNumericValues) {
  const char* argv[] = {"prog", "--scale=-3", "--ratio=abc", "--count=12x",
                        "--weak-factor=1.5", "--granularity=100"};
  Options o(6, const_cast<char**>(argv));
  // Range validators reject with actionable messages...
  EXPECT_THROW(o.get_int_min("scale", 1, 1), std::invalid_argument);
  EXPECT_THROW(o.get_double_in("weak-factor", 0.5, 0.0, 1.0, true),
               std::invalid_argument);
  EXPECT_THROW(o.get_u64_pow2("granularity", 64), std::invalid_argument);
  // ...as do malformed or partially-numeric values anywhere.
  EXPECT_THROW(o.get_double("ratio", 0.0), std::invalid_argument);
  EXPECT_THROW(o.get_int("count", 0), std::invalid_argument);
  try {
    o.get_int_min("scale", 1, 1);
    FAIL() << "negative scale must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--scale=-3"), std::string::npos)
        << e.what();
  }
}

TEST(Options, InRangeValuesPassValidation) {
  const char* argv[] = {"prog", "--scale=16", "--weak-factor=0.5",
                        "--granularity=256"};
  Options o(4, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int_min("scale", 1, 1), 16);
  EXPECT_DOUBLE_EQ(o.get_double_in("weak-factor", 1.0, 0.0, 1.0, true), 0.5);
  EXPECT_EQ(o.get_u64_pow2("granularity", 64), 256u);
  // Defaults pass through untouched when the key is absent.
  EXPECT_EQ(o.get_int_min("missing", 9, 1), 9);
}

TEST(Table, AlignsColumnsAndFormats) {
  Table t({"name", "value"});
  t.row({"a", "1"});
  t.row({"long-name", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  // Header and the two rows and a separator.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);

  EXPECT_EQ(Table::fmt(1.2345, 2), "1.23");
  EXPECT_EQ(Table::ms(2.5e6, 1), "2.5 ms");
  EXPECT_EQ(Table::gteps(39.2e9, 1), "39.2 GTEPS");
  EXPECT_EQ(Table::pct(0.544, 1), "54.4%");
}

TEST(Table, TinyGtepsKeepThreeSignificantDigits) {
  // Below 10^-precision GTEPS the fixed format would print zero.
  EXPECT_EQ(Table::gteps(4.123e6), "0.00412 GTEPS");
  EXPECT_EQ(Table::gteps(9.87e6), "0.00987 GTEPS");
  EXPECT_EQ(Table::gteps(4.56e4), "0.0000456 GTEPS");
  EXPECT_EQ(Table::gteps(4.123e7, 1), "0.0412 GTEPS");
  // At or above it, and at zero, the fixed precision is unchanged.
  EXPECT_EQ(Table::gteps(1.234e7), "0.01 GTEPS");
  EXPECT_EQ(Table::gteps(0), "0.00 GTEPS");
}

}  // namespace
}  // namespace numabfs::harness

namespace numabfs::harness {
namespace {

TEST(GraphBundle, FromExternalEdges) {
  // An external (non-R-MAT) graph goes through the same pipeline.
  std::vector<graph::Edge> edges;
  for (graph::Vertex v = 1; v < 300; ++v)
    edges.push_back({static_cast<graph::Vertex>(v / 3), v});
  const GraphBundle b = GraphBundle::from_edges(300, edges, 5, 8);
  EXPECT_EQ(b.csr.num_vertices(), 300u);
  EXPECT_GE(b.params.scale, 9);
  ASSERT_FALSE(b.roots.empty());
  for (graph::Vertex r : b.roots) EXPECT_GT(b.csr.degree(r), 0u);

  ExperimentOptions eo;
  eo.nodes = 1;
  eo.ppn = 4;
  Experiment e(b, eo);
  const EvalResult res = e.run(bfs::original(), 2);
  EXPECT_GT(res.harmonic_teps, 0.0);
  EXPECT_EQ(res.visited_mean, 300u);  // the tree graph is connected
}

TEST(GraphBundle, FromEdgesRejectsEmpty) {
  EXPECT_THROW(GraphBundle::from_edges(0, {}), std::invalid_argument);
}

TEST(GraphBundle, MakeRejectsInvalidRmatParameters) {
  EXPECT_THROW(GraphBundle::make(32), std::invalid_argument);
  EXPECT_THROW(GraphBundle::make(0), std::invalid_argument);
  EXPECT_THROW(GraphBundle::make(12, -1), std::invalid_argument);
}

}  // namespace
}  // namespace numabfs::harness
