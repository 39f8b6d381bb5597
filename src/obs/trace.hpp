#pragma once
// Structured event tracing for the simulated cluster, stamped with *virtual*
// time from sim::VClock. Tracks are per-rank (plus one host/driver track);
// each simulated rank appends only to its own track, so no locking is
// needed. The tracer never charges time to any clock: enabling or disabling
// tracing must leave simulated results bit-identical.
//
// Export is Chrome Trace Event Format ("traceEvents" array of "X" complete
// spans and "i" instants, ts/dur in microseconds), loadable in Perfetto.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace obs {

// Span/instant categories. kCatTime spans are emitted only from the two
// modeled-time funnels (Proc::charge and Proc::barrier), are non-overlapping
// per rank, and are the basis of covered_time_ns(); everything else is
// semantic annotation layered on top.
inline constexpr const char* kCatTime = "time";
inline constexpr const char* kCatColl = "coll";
inline constexpr const char* kCatP2p = "p2p";
inline constexpr const char* kCatFault = "fault";
inline constexpr const char* kCatBfs = "bfs";
inline constexpr const char* kCatEngine = "engine";

struct TraceEvent {
  double ts_ns = 0;      // absolute virtual time (tracer base + stamp)
  double dur_ns = -1;    // >= 0: complete span; < 0: instant
  const char* cat = "";  // static-lifetime category string
  std::string name;
  std::string args;  // pre-rendered JSON object body (no braces); may be empty

  bool is_span() const { return dur_ns >= 0; }
};

// Key/value helpers for TraceEvent::args; join with ",".
std::string json_escape(std::string_view s);
std::string fmt_double(double v);
std::string kv(const char* key, double v);
std::string kv(const char* key, std::uint64_t v);
std::string kv(const char* key, std::int64_t v);
std::string kv(const char* key, int v);
std::string kv(const char* key, std::string_view v);

class Tracer {
 public:
  // One track per rank plus a final host/driver track at index nranks().
  Tracer(int nranks, int ranks_per_node);

  int nranks() const { return nranks_; }
  int ranks_per_node() const { return ppn_; }
  int host_track() const { return nranks_; }

  // All timestamps passed to span()/instant() are offset by the base. The
  // query engine resets rank clocks between waves, so it advances the base
  // to the serve-loop virtual time before each wave.
  void set_base_ns(double ns) { base_ns_ = ns; }
  double base_ns() const { return base_ns_; }

  void span(int track, const char* cat, std::string name, double t0_ns,
            double t1_ns, std::string args = {});
  void instant(int track, const char* cat, std::string name, double ts_ns,
               std::string args = {});

  const std::vector<TraceEvent>& track(int t) const { return tracks_[static_cast<std::size_t>(t)]; }
  std::size_t total_events() const;
  // Sum of kCatTime span durations on one track (those spans are
  // non-overlapping by construction).
  double covered_time_ns(int track) const;
  // Largest span-end / instant timestamp across all tracks.
  double max_ts_ns() const;

  std::string chrome_json() const;
  bool write(const std::string& path) const;
  void clear();

 private:
  int nranks_;
  int ppn_;
  double base_ns_ = 0;
  std::vector<std::vector<TraceEvent>> tracks_;
};

}  // namespace obs
