#include "bfs/config.hpp"

#include <sstream>

namespace numabfs::bfs {

const char* to_string(BindMode b) {
  switch (b) {
    case BindMode::noflag: return "noflag";
    case BindMode::interleave: return "interleave";
    case BindMode::bind_to_socket: return "bind-to-socket";
  }
  return "?";
}

const char* to_string(Sharing s) {
  switch (s) {
    case Sharing::none: return "none";
    case Sharing::in_queue: return "in_queue";
    case Sharing::all: return "all";
  }
  return "?";
}

const char* to_string(Direction d) {
  switch (d) {
    case Direction::hybrid: return "hybrid";
    case Direction::top_down_only: return "top-down";
    case Direction::bottom_up_only: return "bottom-up";
  }
  return "?";
}

const char* to_string(CodecMode m) {
  switch (m) {
    case CodecMode::off: return "off";
    case CodecMode::gate: return "gate";
    case CodecMode::force_sparse: return "force-sparse";
    case CodecMode::force_dense: return "force-dense";
  }
  return "?";
}

std::string Config::validate() const {
  if (summary_granularity < 1) return "summary_granularity must be >= 1";
  if (parallel_allgather && sharing != Sharing::all)
    return "parallel_allgather requires sharing == all "
           "(set sharing=all or drop parallel_allgather)";
  if (alpha <= 0.0 || beta <= 0.0) return "alpha/beta must be positive";
  if (exchange_chunks < 1 || exchange_chunks > 4096)
    return "exchange_chunks must be in [1, 4096]";
  if (exchange_chunks > 1 && codec == CodecMode::off)
    return "exchange_chunks > 1 requires an active codec: the raw exchange "
           "has no decode stage to overlap (set codec=gate or exchange_chunks=1)";
  if (tune.window < 1) return "tune.window must be >= 1";
  if (tune.hysteresis < 0.0 || tune.hysteresis >= 1.0)
    return "tune.hysteresis must be in [0, 1)";
  if (tune.dwell < 0) return "tune.dwell must be >= 0";
  return {};
}

std::string Config::name() const {
  std::ostringstream os;
  os << to_string(bind) << "/share-" << to_string(sharing);
  if (parallel_allgather) os << "/par-ag";
  os << "/g" << summary_granularity;
  if (codec != CodecMode::off) {
    os << "/codec-" << to_string(codec);
    if (exchange_chunks > 1) os << "-k" << exchange_chunks;
  }
  if (direction != Direction::hybrid) os << "/" << to_string(direction);
  return os.str();
}

Config original() { return Config{}; }

Config share_in_queue() {
  Config c;
  c.sharing = Sharing::in_queue;
  return c;
}

Config share_all() {
  Config c;
  c.sharing = Sharing::all;
  return c;
}

Config par_allgather() {
  Config c = share_all();
  c.parallel_allgather = true;
  return c;
}

Config granularity(std::uint64_t g) {
  Config c = par_allgather();
  c.summary_granularity = g;
  return c;
}

Config compressed(std::uint64_t g, int chunks) {
  Config c = granularity(g);
  c.codec = CodecMode::gate;
  c.exchange_chunks = chunks;
  return c;
}

}  // namespace numabfs::bfs
