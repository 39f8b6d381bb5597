#include "obs/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "obs/trace.hpp"  // json_escape / fmt_double

namespace obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must be strictly increasing");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
  count_ += 1;
  sum_ += v;
}

Counter& Registry::counter(const std::string& name) { return counters_[name]; }

Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> upper_bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(std::move(upper_bounds))).first;
  }
  return it->second;
}

bool Registry::has(const std::string& name) const {
  return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
         histograms_.count(name) != 0;
}

std::string Registry::json() const {
  // Built with append() rather than operator+ chains: GCC 12 at -O3 reports
  // -Wrestrict false positives on the temporaries those chains create.
  std::string out = "{\"schema\":\"numabfs.metrics.v1\",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out.append("\"").append(json_escape(name)).append("\":");
    out.append(std::to_string(c.value));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out.append("\"").append(json_escape(name)).append("\":");
    out.append(fmt_double(g.value));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out.append("\"").append(json_escape(name)).append("\":{\"bounds\":[");
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i != 0) out += ",";
      out += fmt_double(h.bounds()[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts().size(); ++i) {
      if (i != 0) out += ",";
      out += std::to_string(h.counts()[i]);
    }
    out.append("],\"count\":").append(std::to_string(h.count()));
    out.append(",\"sum\":").append(fmt_double(h.sum())).append("}");
  }
  out += "}}\n";
  return out;
}

bool Registry::write(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << json();
  return static_cast<bool>(f);
}

void Registry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace obs
