/// \file main.cpp
/// e2e_bench: runs one named workload of the end-to-end benchmark through
/// the library's public API, validates every answer, and writes one run
/// record (JSON) with every metric by name, unit and clock (README.md).
///
///   e2e_bench --workload=g500_1d --seed=20120924 --seconds=10
///              [--trace] [--smoke] [--out=run.json]
///              [--trace-out=trace.json] [--commit=ID] [--source-hash=H]
///
/// One process, one benchmark thread; the 8-1024 threads a run shows are the
/// simulator's rank threads. Exit status 1 when any answer failed
/// validation or a repeat pass was not bit-identical, 2 on bad usage.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "e2e.hpp"
#include "harness/options.hpp"

namespace e2e {

using namespace numabfs;

// ------------------------------------------------------------- helpers --

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

std::string fmt_num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", x);
  return buf;
}

void Spans::add(std::string name, std::string rid, double t0_s, double t1_s) {
  if (on_) spans_.push_back({std::move(name), std::move(rid), t0_s, t1_s, -1});
}

const std::vector<Span>& Spans::link() {
  // Outer spans first (earlier start, then longer); a span's parent is the
  // innermost open span that still covers its end.
  std::vector<std::size_t> order(spans_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.t0_s != y.t0_s) return x.t0_s < y.t0_s;
    return x.t1_s > y.t1_s;
  });
  std::vector<std::size_t> stack;
  for (std::size_t i : order) {
    Span& s = spans_[i];
    while (!stack.empty() && spans_[stack.back()].t1_s < s.t1_s) stack.pop_back();
    s.parent = stack.empty() ? -1 : static_cast<int>(stack.back());
    stack.push_back(i);
  }
  return spans_;
}

namespace {

/// JSON string literal.
std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// JSON number with all its digits; null for NaN/inf.
std::string jnum(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

}  // namespace

bool Spans::write_chrome(const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "") << "{\"name\":" << jstr(s.name)
      << ",\"cat\":" << jstr(s.layer()) << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
      << ",\"ts\":" << jnum(s.t0_s * 1e6) << ",\"dur\":" << jnum(s.dur_s() * 1e6)
      << ",\"args\":{\"rid\":" << jstr(s.rid) << ",\"id\":" << i
      << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

std::string Ctx::rid(int pass, const std::string& item) const {
  return workload_ + "/p" + std::to_string(pass) + "/" + item;
}

double Ctx::call(const std::string& name, const std::string& rid,
                 const std::function<void()>& fn) {
  const double t0 = spans_.now_s();
  fn();
  const double t1 = spans_.now_s();
  spans_.add(name, rid, t0, t1);
  return t1 - t0;
}

void Ctx::stage(const std::string& name, const std::function<void()>& fn) {
  stages_[name].push_back(call(name, workload_ + "/setup", fn));
}

void Ctx::untimed(const std::string& what, const std::string& rid,
                  const std::function<void()>& fn) {
  untimed_s_ += call("bench." + what, rid, fn);
}

void Ctx::fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Ctx::check(bool ok, const std::function<std::string()>& what) {
  attempt();
  if (!ok) fail(what());
}

SpanStat span_stat(const std::vector<Span>& spans, const std::string& name) {
  SpanStat st;
  for (const Span& s : spans)
    if (s.name == name) {
      ++st.count;
      st.total_s += s.dur_s();
    }
  return st;
}

std::vector<double> profile_signature(const sim::PhaseProfile& p) {
  std::vector<double> s;
  for (int i = 0; i < static_cast<int>(sim::Phase::kCount); ++i)
    s.push_back(p.get(static_cast<sim::Phase>(i)));
  s.push_back(p.overlap_saved_ns());
  const sim::Counters& c = p.counters();
  for (std::uint64_t x :
       {c.edges_scanned, c.summary_probes, c.summary_zero_skips,
        c.inqueue_probes, c.frontier_hits, c.queue_writes, c.bytes_intra_node,
        c.bytes_inter_node, c.bytes_raw_equiv, c.vertices_visited,
        c.retransmits, c.recv_timeouts, c.adoptions, c.delta_probes})
    s.push_back(static_cast<double>(x));
  return s;
}

void report_phases(Ctx& ctx, const std::string& prefix,
                   const sim::PhaseProfile& sum, double calls) {
  static const char* const names[] = {"td_comp", "td_comm", "bu_comp",
                                      "bu_comm", "switch",  "stall", "other"};
  for (int i = 0; i < static_cast<int>(sim::Phase::kCount); ++i)
    ctx.layer[prefix + "." + names[i] + "_ms"] = {
        sum.get(static_cast<sim::Phase>(i)) / calls * kMsPerNs, "ms",
        "virtual"};
}

void report_split(Ctx& ctx, const sim::PhaseProfile& sum, double calls,
                  double levels_per_call) {
  using sim::Phase;
  const auto per_call_ms = [&](double ns) { return ns / calls * kMsPerNs; };
  ctx.layer["virt.comp_ms"] = {
      per_call_ms(sum.get(Phase::td_comp) + sum.get(Phase::bu_comp)), "ms",
      "virtual"};
  ctx.layer["virt.comm_ms"] = {per_call_ms(sum.comm_ns()), "ms", "virtual"};
  ctx.layer["virt.stall_ms"] = {per_call_ms(sum.get(Phase::stall)), "ms",
                                "virtual"};
  ctx.layer["virt.levels"] = {levels_per_call, "count", "virtual"};
  const sim::Counters& c = sum.counters();
  const double wire =
      static_cast<double>(c.bytes_intra_node + c.bytes_inter_node);
  ctx.layer["exchange.wire_mb"] = {wire / calls / 1e6, "MB", "virtual"};
  ctx.layer["exchange.wire_reduction"] = {
      wire > 0 ? static_cast<double>(c.bytes_raw_equiv) / wire : 1.0, "ratio",
      "virtual"};
  ctx.layer["faults.retransmits"] = {static_cast<double>(c.retransmits),
                                     "count", "virtual"};
  ctx.layer["faults.recv_timeouts"] = {static_cast<double>(c.recv_timeouts),
                                       "count", "virtual"};
  ctx.layer["faults.adoptions"] = {static_cast<double>(c.adoptions), "count",
                                   "virtual"};
}

void report_codec(Ctx& ctx, const std::uint64_t (&kinds)[3]) {
  static const char* const names[] = {"codec.raw", "codec.sparse",
                                      "codec.dense"};
  for (int i = 0; i < 3; ++i)
    ctx.layer[names[i]] = {static_cast<double>(kinds[i]), "count", "virtual"};
}

void check_repeat(Ctx& ctx, int index,
                  const std::vector<std::vector<double>>& first,
                  const std::vector<std::vector<double>>& got,
                  const std::string& prefix) {
  for (std::size_t i = 0; i < got.size(); ++i)
    ctx.check(i < first.size() && got[i] == first[i], [&] {
      return ctx.rid(index, prefix + std::to_string(i)) +
             ": virtual result differs from pass 0";
    });
}

namespace {

/// Per-layer counts a workload reports only where its layer runs; zero
/// elsewhere, so every run record carries the same per-layer names.
const std::pair<const char*, const char*> kZeroWhenAbsent[] = {
    {"faults.recoveries", "count"}, {"faults.failovers", "count"},
    {"engine.waves", "count"},      {"engine.lanes_per_wave", "count"},
    {"frontdoor.degraded", "count"}, {"frontdoor.shed", "count"},
    {"programs.runs", "count"},     {"dyn.epochs", "count"},
    {"dyn.compactions", "count"},   {"dyn.read_amp", "ratio"},
    {"codec.raw", "count"},         {"codec.sparse", "count"},
    {"codec.dense", "count"}};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "g500_1d") return make_g500_1d();
  if (name == "weak_2d") return make_weak_2d();
  if (name == "serve_mixed") return make_serve_mixed();
  if (name == "serve_ingest") return make_serve_ingest();
  throw std::invalid_argument(
      "--workload must be g500_1d, weak_2d, serve_mixed or serve_ingest, got '" +
      name + "'");
}

std::string loadavg() {
  std::ifstream f("/proc/loadavg");
  std::string a, b, c;
  f >> a >> b >> c;
  return f ? a + " " + b + " " + c : "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// runtime.spawn_us: median of 20 no-op Cluster::run calls.
/// runtime.barrier_us: one run of 200 world barriers, per barrier.
void probe_runtime(Ctx& ctx, rt::Cluster& c) {
  std::vector<double> spawn;
  for (int i = 0; i < 20; ++i)
    spawn.push_back(
        ctx.call("runtime.spawn", ctx.workload() + "/probe", [&] {
          c.run([](rt::Proc&) {});
        }));
  const double barriers = ctx.call("runtime.barrier", ctx.workload() + "/probe", [&] {
    c.run([&c](rt::Proc& p) {
      for (int i = 0; i < 200; ++i) p.barrier(c.world(), sim::Phase::other);
    });
  });
  ctx.layer["runtime.spawn_us"] = {median(spawn) * 1e6, "us", "host"};
  ctx.layer["runtime.barrier_us"] = {barriers / 200 * 1e6, "us", "host"};
  ctx.layer["runtime.ranks"] = {static_cast<double>(c.nranks()), "count",
                                "host"};
}

struct PassRecord {
  int index = 0;
  double host_s = 0;     ///< pass wall minus untimed work
  double untimed_s = 0;  ///< validation and resets
  bool traced = false;
  double t0_s = 0, t1_s = 0;
};

/// The per-layer host table of the traced passes: span count, total time,
/// self time (duration minus what child spans cover), share of the passes'
/// host time. Also the share of host time the top-level layer calls cover.
struct LayerRow {
  std::string layer;
  std::uint64_t spans = 0;
  double total_s = 0, self_s = 0, share = 0;
};

std::vector<LayerRow> layer_table(const std::vector<Span>& spans,
                                  const std::vector<PassRecord>& passes,
                                  double& coverage) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.dur_s();
  std::map<std::string, LayerRow> rows;
  double host = 0, top = 0;
  for (const PassRecord& p : passes) {
    if (!p.traced || p.index == 0) continue;
    host += p.host_s;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.t0_s < p.t0_s || s.t1_s > p.t1_s || s.name == "pass.run") continue;
      LayerRow& r = rows[s.layer()];
      r.layer = s.layer();
      ++r.spans;
      r.total_s += s.dur_s();
      r.self_s += s.dur_s() - child_s[i];
      const bool top_level =
          s.parent >= 0 &&
          spans[static_cast<std::size_t>(s.parent)].name == "pass.run";
      if (top_level && s.layer() != "bench") top += s.dur_s();
    }
  }
  std::vector<LayerRow> out;
  for (auto& [name, r] : rows) {
    // The benchmark's own work is excluded from host time: it has no share.
    r.share = host > 0 && name != "bench" ? r.self_s / host : 0.0;
    out.push_back(r);
  }
  coverage = host > 0 ? top / host : 0.0;
  return out;
}

void write_metrics(std::ostream& o, const std::map<std::string, Metric>& ms) {
  o << "{";
  bool first = true;
  for (const auto& [name, m] : ms) {
    o << (first ? "\n" : ",\n") << "    " << jstr(name) << ": {\"value\": "
      << jnum(m.value) << ", \"unit\": " << jstr(m.unit)
      << ", \"clock\": " << jstr(m.clock) << "}";
    first = false;
  }
  o << "\n  }";
}

std::string pct(double share) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * share);
  return buf;
}

void print_metrics(const char* title, const std::map<std::string, Metric>& ms) {
  std::cout << "\n" << title << "\n";
  for (const auto& [name, m] : ms) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %16.6g %-6s %s\n", name.c_str(),
                  m.value, m.unit.c_str(), m.clock.c_str());
    std::cout << line;
  }
}

int run(int argc, char** argv) {
  const harness::Options opt(argc, argv);
  const std::string name = opt.get_str("workload", "");
  std::unique_ptr<Workload> wl = make_workload(name);
  const std::uint64_t seed = opt.get_u64("seed", 20120924);
  const double seconds = opt.get_double_in("seconds", 10, 0, 3600);
  const bool trace = opt.get_bool("trace", false);
  const bool smoke = opt.get_bool("smoke", false);
  const int setups = smoke ? 1 : 3;
  const std::string out = opt.get_str("out", "");
  const std::string trace_out = opt.get_str("trace-out", "");

  Ctx ctx(name, seed, smoke);
  const std::string load_start = loadavg();
  Spans& spans = ctx.spans();

  // Set-up, several times: setup_s is the median. The last one is kept.
  spans.set_on(trace);
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i)
    setup_s.push_back(ctx.call("setup.run", name + "/setup" + std::to_string(i),
                               [&] { wl->setup(ctx); }));
  if (trace) probe_runtime(ctx, wl->probe_cluster());

  // Passes until the budget is spent. Pass 0 validates (and warms
  // caches); passes >= 1 are timed. In a traced run the timed passes
  // alternate tracing on and off, so one process measures the overhead.
  const int min_passes = smoke ? (trace ? 3 : 1) : (trace ? 5 : 4);
  std::vector<PassRecord> passes;
  double measured_s = 0, search_s = 0;
  for (int p = 0; p < 1000; ++p) {
    PassRecord rec;
    rec.index = p;
    rec.traced = trace && p % 2 == 0;
    spans.set_on(rec.traced);
    ctx.take_untimed_s();
    rec.t0_s = spans.now_s();
    wl->pass(ctx, p);
    rec.t1_s = spans.now_s();
    rec.untimed_s = ctx.take_untimed_s();
    rec.host_s = rec.t1_s - rec.t0_s - rec.untimed_s;
    spans.add("pass.run", ctx.rid(p, "pass"), rec.t0_s, rec.t1_s);
    passes.push_back(rec);
    measured_s += rec.t1_s - rec.t0_s;
    if (p == 0) {
      spans.set_on(false);
      const double t0 = spans.now_s();
      wl->after_first_pass(ctx);
      search_s = spans.now_s() - t0;
    }
    if (p + 1 >= min_passes && measured_s >= seconds) break;
  }
  spans.set_on(false);

  std::vector<double> plain, traced;
  for (const PassRecord& p : passes)
    if (p.index > 0 || passes.size() == 1) (p.traced ? traced : plain).push_back(p.host_s);
  if (plain.empty()) plain = traced;

  for (const auto& [stage, times] : ctx.stages())
    ctx.layer[stage + "_s"] = {median(times), "s", "host"};
  const std::vector<Span>& all = spans.link();
  wl->report(ctx, all);
  for (const auto& [n, unit] : kZeroWhenAbsent)
    if (ctx.layer.find(n) == ctx.layer.end()) ctx.layer[n] = {0.0, unit, "virtual"};

  ctx.e2e["setup_s"] = {median(setup_s), "s", "host"};
  ctx.e2e["host_s"] = {median(plain), "s", "host"};
  ctx.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB", "host"};
  const double fail_frac =
      ctx.attempted() > 0
          ? static_cast<double>(ctx.failed()) / static_cast<double>(ctx.attempted())
          : 1.0;
  ctx.e2e["fail_frac"] = {fail_frac, "ratio", "-"};

  double coverage = 0;
  std::vector<LayerRow> rows;
  if (trace) {
    const double untraced = median(plain);
    ctx.layer["obs.trace_overhead_frac"] = {
        untraced > 0 && !traced.empty() ? median(traced) / untraced - 1.0 : 0.0,
        "ratio", "host"};
    rows = layer_table(all, passes, coverage);
    ctx.layer["obs.top_level_coverage"] = {coverage, "ratio", "host"};
    if (!trace_out.empty() && !spans.write_chrome(trace_out))
      std::cerr << "e2e_bench: cannot write " << trace_out << "\n";
  }
  const std::string load_end = loadavg();

  // --- human-readable report ---------------------------------------------
  std::cout << "numabfs e2e: workload " << name << ", seed " << seed
            << (smoke ? " (smoke)" : "") << (trace ? ", traced" : "") << "\n"
            << "passes " << passes.size() << " (pass 0 validates), setups "
            << setups << ", load " << load_start << " -> " << load_end << "\n";
  print_metrics("end-to-end", ctx.e2e);
  print_metrics("per-layer", ctx.layer);
  if (trace) {
    std::cout << "\nhost time by layer (traced passes >= 1; self = duration "
                 "minus child spans; bench = validation and resets, not in "
                 "host_s)\n";
    for (const LayerRow& r : rows) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "  %-12s %8llu spans %10.4f s total %10.4f s self %7s\n",
                    r.layer.c_str(), static_cast<unsigned long long>(r.spans),
                    r.total_s, r.self_s,
                    r.layer == "bench" ? "n/a" : pct(r.share).c_str());
      std::cout << line;
    }
    std::cout << "  top-level layer calls cover " << pct(coverage)
              << " of host time"
              << (name == "serve_mixed" || name == "serve_ingest"
                      ? " (wave spans are the intervals between sink calls)\n"
                      : "\n");
  }
  std::cout << "\nvalidated " << ctx.attempted() << " operations, "
            << ctx.failed() << " failed\n";
  for (const std::string& f : ctx.failures()) std::cout << "  FAIL " << f << "\n";

  // --- run record -----------------------------------------------------------
  if (!out.empty()) {
    std::ofstream o(out);
    o << "{\n  \"schema\": \"numabfs.e2e.run.v1\",\n"
      << "  \"workload\": " << jstr(name) << ",\n  \"seed\": " << seed
      << ",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"trace\": " << (trace ? "true" : "false")
      << ",\n  \"seconds\": " << jnum(seconds) << ",\n  \"provenance\": {"
      << "\"commit\": " << jstr(opt.get_str("commit", "unknown"))
      << ", \"source_hash\": " << jstr(opt.get_str("source-hash", "unknown"))
      << ", \"build_type\": " << jstr(E2E_BUILD_TYPE)
      << ", \"compiler\": " << jstr(__VERSION__)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"loadavg_start\": " << jstr(load_start)
      << ", \"loadavg_end\": " << jstr(load_end) << "},\n"
      << "  \"correct\": " << (ctx.failed() == 0 ? "true" : "false")
      << ",\n  \"attempted\": " << ctx.attempted()
      << ",\n  \"failed\": " << ctx.failed() << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < ctx.failures().size(); ++i)
      o << (i ? ", " : "") << jstr(ctx.failures()[i]);
    o << "],\n  \"setup_s\": [";
    for (std::size_t i = 0; i < setup_s.size(); ++i)
      o << (i ? ", " : "") << jnum(setup_s[i]);
    o << "],\n  \"passes\": [";
    for (std::size_t i = 0; i < passes.size(); ++i)
      o << (i ? ", " : "") << "{\"host_s\": " << jnum(passes[i].host_s)
        << ", \"untimed_s\": " << jnum(passes[i].untimed_s)
        << ", \"traced\": " << (passes[i].traced ? "true" : "false") << "}";
    o << "],\n  \"search_s\": " << jnum(search_s) << ",\n  \"samples\": {";
    bool first = true;
    for (const auto& [k, n] : ctx.samples) {
      o << (first ? "" : ", ") << jstr(k) << ": " << n;
      first = false;
    }
    o << "},\n  \"notes\": {";
    first = true;
    for (const auto& [k, v] : ctx.notes) {
      o << (first ? "" : ", ") << jstr(k) << ": " << jstr(v);
      first = false;
    }
    o << "},\n  \"end_to_end\": ";
    write_metrics(o, ctx.e2e);
    o << ",\n  \"per_layer\": ";
    write_metrics(o, ctx.layer);
    o << ",\n  \"layers\": [";
    for (std::size_t i = 0; i < rows.size(); ++i)
      o << (i ? ", " : "") << "{\"layer\": " << jstr(rows[i].layer)
        << ", \"spans\": " << rows[i].spans
        << ", \"total_s\": " << jnum(rows[i].total_s)
        << ", \"self_s\": " << jnum(rows[i].self_s)
        << ", \"share\": " << jnum(rows[i].share) << "}";
    o << "]\n}\n";
    if (!o) {
      std::cerr << "e2e_bench: cannot write " << out << "\n";
      return 2;
    }
  }
  return ctx.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
}
