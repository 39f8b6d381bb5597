#pragma once
/// \file e2e.hpp
/// Shared pieces of the end-to-end benchmark program (README.md): the
/// host-clock span recorder, the per-run context the workloads report
/// into, and the workload interface the pass runner drives.
///
/// Two clocks. *Virtual* numbers come from the library's result structs
/// and are bit-deterministic for a seed. *Host* numbers are steady_clock
/// readings taken here, around the benchmark's own calls into the library;
/// the library never sees them, so they cannot perturb virtual time.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "numasim/phase_profile.hpp"
#include "runtime/cluster.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Median (mean of the middle pair for even sizes); 0 for an empty input.
double median(std::vector<double> xs);

/// Shortest "%g"-style text of a number.
std::string fmt_num(double x);

/// One host-clock span. Parents are not tracked while recording: they are
/// derived afterwards by interval containment, so spans reconstructed after
/// the fact (the wave intervals between sink calls) nest like live ones.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "bfs.run_bfs"
  std::string rid;   ///< request id: workload/pass/root or workload/pass/wave
  double t0_s = 0;   ///< seconds since the recorder's origin
  double t1_s = 0;
  int parent = -1;   ///< index into the span list, filled by link()

  std::string layer() const { return name.substr(0, name.find('.')); }
  double dur_s() const { return t1_s - t0_s; }
};

/// In-memory span recorder, written out when the run ends. Recording is
/// switched per pass; when off, add() does nothing.
class Spans {
 public:
  Spans() : origin_(Clock::now()) {}

  void set_on(bool on) { on_ = on; }
  double now_s() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// Record [t0_s, t1_s] if recording is on.
  void add(std::string name, std::string rid, double t0_s, double t1_s);

  /// Derive parents by containment and return the spans.
  const std::vector<Span>& link();

  /// Chrome-trace JSON ("X" events, one track); false on I/O failure.
  bool write_chrome(const std::string& path);

 private:
  Clock::time_point origin_;
  bool on_ = false;
  std::vector<Span> spans_;
};

/// A metric as the run record prints it.
struct Metric {
  double value = 0;
  std::string unit;
  std::string clock;  ///< "host", "virtual", or "-" for fail_frac
};

/// What a workload needs from the runner: its seed and size, the span
/// recorder, timed set-up stages, validation hooks whose host time is
/// excluded from the pass, and the failure ledger.
class Ctx {
 public:
  Ctx(std::string workload, std::uint64_t seed, bool smoke)
      : workload_(std::move(workload)), seed_(seed), smoke_(smoke) {}

  const std::string& workload() const { return workload_; }
  std::uint64_t seed() const { return seed_; }
  bool smoke() const { return smoke_; }
  Spans& spans() { return spans_; }

  /// Request id "<workload>/p<pass>/<item>".
  std::string rid(int pass, const std::string& item) const;

  /// Run `fn` as a call into a layer: always timed, and a span when
  /// recording is on. Returns the host seconds.
  double call(const std::string& name, const std::string& rid,
              const std::function<void()>& fn);

  /// Set-up stage: like call(), and the time is kept per stage name so
  /// the per-layer set-up numbers are medians over the set-up repeats.
  void stage(const std::string& name, const std::function<void()>& fn);
  const std::map<std::string, std::vector<double>>& stages() const {
    return stages_;
  }

  /// Work inside a pass that is not the system under test — validation
  /// and per-pass state resets — recorded as "bench.<what>" spans. Its
  /// host time is excluded from the pass, so host_s measures the system,
  /// not the checker.
  void untimed(const std::string& what, const std::string& rid,
               const std::function<void()>& fn);
  /// Validation hook: untimed("validate", ...).
  void hook(const std::string& rid, const std::function<void()>& fn) {
    untimed("validate", rid, fn);
  }
  double take_untimed_s() {
    const double s = untimed_s_;
    untimed_s_ = 0;
    return s;
  }

  /// Every validated answer or bit-identity check is one attempt.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Record one failed operation (capped message list, exact count).
  void fail(const std::string& what);
  /// attempt() plus fail() when !ok.
  void check(bool ok, const std::function<std::string()>& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// Metrics the workload reports. `e2e` are the end-to-end metrics of
  /// the workload; `layer` the per-layer ones (README.md tables).
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  /// Sample counts behind the percentile metrics (n for p50/p99).
  std::map<std::string, std::uint64_t> samples;
  /// Free-form facts for the run record (e.g. the rate-search trail).
  std::map<std::string, std::string> notes;

 private:
  std::string workload_;
  std::uint64_t seed_;
  bool smoke_;
  Spans spans_;
  std::map<std::string, std::vector<double>> stages_;
  double untimed_s_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// One named workload. The runner calls setup() several times (each call
/// replaces the previous state; the median is setup_s), then pass() until
/// the measurement budget is spent, then report().
class Workload {
 public:
  virtual ~Workload() = default;

  /// Build everything up to the first timed call: graph generation,
  /// partition or block build, state and replica construction.
  virtual void setup(Ctx& ctx) = 0;

  /// One pass of the timed section. Pass 0 validates every answer; later
  /// passes must reproduce pass 0's virtual results bit for bit.
  virtual void pass(Ctx& ctx, int index) = 0;

  /// Virtual-only work after pass 0, outside every timing (the serving
  /// tier's rate search).
  virtual void after_first_pass(Ctx&) {}

  /// A cluster of the workload's shape for the runtime probes. Must carry
  /// no fault injector.
  virtual numabfs::rt::Cluster& probe_cluster() = 0;

  /// Fill ctx.e2e / ctx.layer from pass 0's results. Host per-layer
  /// numbers that need spans read `spans` (recorded passes only).
  virtual void report(Ctx& ctx, const std::vector<Span>& spans) = 0;
};

std::unique_ptr<Workload> make_g500_1d();
std::unique_ptr<Workload> make_weak_2d();
std::unique_ptr<Workload> make_serve_mixed();
std::unique_ptr<Workload> make_serve_ingest();

/// Mean duration (seconds) and count of the spans named `name`.
struct SpanStat {
  std::uint64_t count = 0;
  double total_s = 0;
  double mean_s() const { return count > 0 ? total_s / count : 0.0; }
};
SpanStat span_stat(const std::vector<Span>& spans, const std::string& name);

inline constexpr double kMsPerNs = 1e-6;

/// Phase times and counters of a profile as one comparable vector (the
/// bit-identity check of repeat passes).
std::vector<double> profile_signature(const numabfs::sim::PhaseProfile& p);

/// "<prefix>.<phase>_ms" for the seven Fig. 11 phases, mean per call.
void report_phases(Ctx& ctx, const std::string& prefix,
                   const numabfs::sim::PhaseProfile& sum, double calls);

/// The split every workload reports the same way, from the summed
/// profiles of its traversal calls (BFS roots or waves): virt.comp_ms,
/// virt.comm_ms, virt.stall_ms, virt.levels, exchange.wire_mb,
/// exchange.wire_reduction, and the faults.* counters.
void report_split(Ctx& ctx, const numabfs::sim::PhaseProfile& sum,
                  double calls, double levels_per_call);

/// codec.{raw,sparse,dense}: codec-gate decisions (graph::codec::Kind).
void report_codec(Ctx& ctx, const std::uint64_t (&kinds)[3]);

/// Repeat-pass check: one attempt per item, failed when item i's virtual
/// record differs from pass 0's. Items are named `<prefix><i>`.
void check_repeat(Ctx& ctx, int index,
                  const std::vector<std::vector<double>>& first,
                  const std::vector<std::vector<double>>& got,
                  const std::string& prefix);

}  // namespace e2e
