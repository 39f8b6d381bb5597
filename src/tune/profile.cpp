#include "tune/profile.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "bfs2d/bfs2d.hpp"
#include "engine/frontdoor.hpp"

namespace numabfs::tune {

namespace {

// ---- writing -----------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch;
    }
  }
  out += '"';
  return out;
}

// ---- minimal JSON reader (objects/arrays/strings/numbers/bools) --------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  const JsonObject& obj(const char* what) const {
    if (!is_object())
      throw std::runtime_error(std::string("profile: ") + what +
                               " is not an object");
    return std::get<JsonObject>(v);
  }
  const JsonArray& arr(const char* what) const {
    if (!std::holds_alternative<JsonArray>(v))
      throw std::runtime_error(std::string("profile: ") + what +
                               " is not an array");
    return std::get<JsonArray>(v);
  }
  const std::string& str(const char* what) const {
    if (!std::holds_alternative<std::string>(v))
      throw std::runtime_error(std::string("profile: ") + what +
                               " is not a string");
    return std::get<std::string>(v);
  }
  double number(const char* what) const {
    if (!std::holds_alternative<double>(v))
      throw std::runtime_error(std::string("profile: ") + what +
                               " is not a number");
    return std::get<double>(v);
  }
  bool boolean(const char* what) const {
    if (!std::holds_alternative<bool>(v))
      throw std::runtime_error(std::string("profile: ") + what +
                               " is not a bool");
    return std::get<bool>(v);
  }
};

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error("profile: JSON parse error at byte " +
                             std::to_string(pos_) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return JsonValue{string()};
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return JsonValue{true};
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return JsonValue{false};
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue{nullptr};
    }
    return JsonValue{number()};
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          default: fail("unsupported escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  double number() {
    size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    try {
      return std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number '" + s_.substr(start, pos_ - start) + "'");
    }
  }

  JsonValue object() {
    expect('{');
    JsonObject out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{out};
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      out.emplace(std::move(key), value());
      skip_ws();
      char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return JsonValue{out};
  }

  JsonValue array() {
    expect('[');
    JsonArray out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{out};
    }
    while (true) {
      out.push_back(value());
      skip_ws();
      char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return JsonValue{out};
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---- field accessors ---------------------------------------------------

const JsonValue& get(const JsonObject& o, const char* key) {
  auto it = o.find(key);
  if (it == o.end())
    throw std::runtime_error(std::string("profile: missing field '") + key +
                             "'");
  return it->second;
}

int get_int(const JsonObject& o, const char* key) {
  return static_cast<int>(get(o, key).number(key));
}

// ---- enum <-> string (round-trips through the existing to_string) ------

template <typename E>
E parse_enum(const std::string& s, std::initializer_list<E> all,
             const char* what) {
  for (E e : all)
    if (s == to_string(e)) return e;
  throw std::runtime_error(std::string("profile: unknown ") + what + " '" +
                           s + "'");
}

bfs::Config parse_config(const JsonObject& o) {
  using namespace bfs;
  Config c;
  c.bind = parse_enum(get(o, "bind").str("bind"),
                      {BindMode::noflag, BindMode::interleave,
                       BindMode::bind_to_socket},
                      "bind mode");
  c.sharing = parse_enum(get(o, "sharing").str("sharing"),
                         {Sharing::none, Sharing::in_queue, Sharing::all},
                         "sharing level");
  c.base_algo = parse_enum(get(o, "base_algo").str("base_algo"),
                           {rt::AllgatherAlgo::flat_ring,
                            rt::AllgatherAlgo::leader_ring,
                            rt::AllgatherAlgo::leader_rd},
                           "allgather algo");
  c.parallel_allgather =
      get(o, "parallel_allgather").boolean("parallel_allgather");
  c.summary_granularity = static_cast<std::uint64_t>(
      get(o, "summary_granularity").number("summary_granularity"));
  c.direction = parse_enum(get(o, "direction").str("direction"),
                           {Direction::hybrid, Direction::top_down_only,
                            Direction::bottom_up_only},
                           "direction");
  c.alpha = get(o, "alpha").number("alpha");
  c.beta = get(o, "beta").number("beta");
  c.codec = parse_enum(get(o, "codec").str("codec"),
                       {CodecMode::off, CodecMode::gate,
                        CodecMode::force_sparse, CodecMode::force_dense},
                       "codec mode");
  c.exchange_chunks = get_int(o, "exchange_chunks");
  if (auto it = o.find("tune"); it != o.end()) {
    const JsonObject& t = it->second.obj("tune");
    c.tune.adapt_direction = get(t, "adapt_direction").boolean("adapt_direction");
    c.tune.window = get_int(t, "window");
    c.tune.hysteresis = get(t, "hysteresis").number("hysteresis");
    c.tune.dwell = get_int(t, "dwell");
  }
  if (const std::string err = c.validate(); !err.empty())
    throw std::runtime_error("profile: invalid config: " + err);
  return c;
}

void append_config(std::ostringstream& os, const bfs::Config& c,
                   const char* indent) {
  os << "{\n";
  const std::string in2 = std::string(indent) + "  ";
  os << in2 << "\"bind\": " << quote(to_string(c.bind)) << ",\n"
     << in2 << "\"sharing\": " << quote(to_string(c.sharing)) << ",\n"
     << in2 << "\"base_algo\": " << quote(rt::to_string(c.base_algo)) << ",\n"
     << in2 << "\"parallel_allgather\": "
     << (c.parallel_allgather ? "true" : "false") << ",\n"
     << in2 << "\"summary_granularity\": " << c.summary_granularity << ",\n"
     << in2 << "\"direction\": " << quote(to_string(c.direction)) << ",\n"
     << in2 << "\"alpha\": " << num(c.alpha) << ",\n"
     << in2 << "\"beta\": " << num(c.beta) << ",\n"
     << in2 << "\"codec\": " << quote(to_string(c.codec)) << ",\n"
     << in2 << "\"exchange_chunks\": " << c.exchange_chunks << ",\n"
     << in2 << "\"tune\": {\"adapt_direction\": "
     << (c.tune.adapt_direction ? "true" : "false")
     << ", \"window\": " << c.tune.window
     << ", \"hysteresis\": " << num(c.tune.hysteresis)
     << ", \"dwell\": " << c.tune.dwell << "}\n";
  os << indent << "}";
}

}  // namespace

const ProfileEntry* TunedProfile::find(const ShapeKey& k) const {
  for (const ProfileEntry& e : entries)
    if (e.shape == k) return &e;
  return nullptr;
}

const ProfileEntry* TunedProfile::nearest(const ShapeKey& k) const {
  if (const ProfileEntry* exact = find(k)) return exact;
  const ProfileEntry* best = nullptr;
  double best_d = 0.0;
  auto l2 = [](double a, double b) {
    double d = std::log2(a < 1 ? 1 : a) - std::log2(b < 1 ? 1 : b);
    return d * d;
  };
  // Equidistant entries resolve by shape_less (the documented total order
  // on ShapeKey), never by entry order — two profiles holding the same
  // entries in a different order must pick the same configuration.
  for (const ProfileEntry& e : entries) {
    // Cluster shape dominates graph shape: the knobs that matter most
    // (allgather algo, sharing, ppn interplay) track nodes x ppn.
    double d = 2.0 * l2(e.shape.nodes, k.nodes) +
               2.0 * l2(e.shape.ppn, k.ppn) +
               l2(e.shape.scale, k.scale) +
               l2(e.shape.edgefactor, k.edgefactor);
    if (!best || d < best_d ||
        (d == best_d && shape_less(e.shape, best->shape))) {
      best = &e;
      best_d = d;
    }
  }
  return best;
}

std::string TunedProfile::json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": " << quote(kProfileSchema) << ",\n  \"entries\": [";
  for (size_t i = 0; i < entries.size(); ++i) {
    const ProfileEntry& e = entries[i];
    os << (i ? "," : "") << "\n    {\n"
       << "      \"shape\": {\"scale\": " << e.shape.scale
       << ", \"edgefactor\": " << e.shape.edgefactor
       << ", \"nodes\": " << e.shape.nodes << ", \"ppn\": " << e.shape.ppn
       << "},\n"
       << "      \"objective\": " << quote(e.objective) << ",\n"
       << "      \"score\": " << num(e.score) << ",\n"
       << "      \"decomposition\": " << quote(e.decomposition) << ",\n"
       << "      \"hier\": " << quote(rt::coll_model::to_string(e.hier))
       << ",\n"
       << "      \"batch\": " << e.batch << ",\n"
       << "      \"config\": ";
    append_config(os, e.config, "      ");
    os << "\n    }";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

TunedProfile TunedProfile::parse(const std::string& text) {
  JsonValue doc = Parser(text).parse();
  const JsonObject& root = doc.obj("document root");
  const std::string schema = get(root, "schema").str("schema");
  if (schema != kProfileSchema)
    throw std::runtime_error("profile: schema mismatch: got '" + schema +
                             "', want '" + kProfileSchema + "'");
  TunedProfile p;
  for (const JsonValue& ev : get(root, "entries").arr("entries")) {
    const JsonObject& eo = ev.obj("entry");
    ProfileEntry e;
    const JsonObject& sh = get(eo, "shape").obj("shape");
    e.shape.scale = get_int(sh, "scale");
    e.shape.edgefactor = get_int(sh, "edgefactor");
    e.shape.nodes = get_int(sh, "nodes");
    e.shape.ppn = get_int(sh, "ppn");
    e.objective = get(eo, "objective").str("objective");
    e.score = get(eo, "score").number("score");
    if (auto it = eo.find("decomposition"); it != eo.end()) {
      e.decomposition = it->second.str("decomposition");
      if (e.decomposition != "1d" && e.decomposition != "2d")
        throw std::runtime_error("profile: decomposition must be '1d' or '2d'");
    }
    if (auto it = eo.find("hier"); it != eo.end())
      e.hier = parse_enum(it->second.str("hier"),
                          {rt::coll_model::HierLevel::flat,
                           rt::coll_model::HierLevel::node,
                           rt::coll_model::HierLevel::socket},
                          "hier level");
    if (auto it = eo.find("batch"); it != eo.end())
      e.batch = static_cast<int>(it->second.number("batch"));
    e.config = parse_config(get(eo, "config").obj("config"));
    p.entries.push_back(std::move(e));
  }
  return p;
}

void TunedProfile::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("profile: cannot open " + path);
  f << json();
}

TunedProfile TunedProfile::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("profile: cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse(buf.str());
}

bfs::Config to_bfs_config(const ProfileEntry& e) { return e.config; }

void apply(const ProfileEntry& e, bfs2d::Bfs2dOptions& o) {
  o.direction = e.config.direction;
  o.alpha = e.config.alpha;
  o.beta = e.config.beta;
  o.codec = e.config.codec;
  o.exchange_chunks = e.config.exchange_chunks;
  o.summary_granularity = e.config.summary_granularity;
  o.hier = e.hier;
}

void apply(const ProfileEntry& e, engine::EngineConfig& ec) {
  if (e.batch > 0) ec.max_batch = e.batch;
}

void apply(const ProfileEntry& e, engine::FrontDoorConfig& fdc) {
  if (e.batch > 0) fdc.max_batch = e.batch;
}

}  // namespace numabfs::tune
