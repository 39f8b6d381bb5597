#include "harness/table.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace numabfs::harness {

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i)
    widths[i] = headers_[i].size();
  for (const auto& r : rows_)
    for (std::size_t i = 0; i < r.size() && i < widths.size(); ++i)
      widths[i] = std::max(widths[i], r[i].size());

  const auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string{};
      os << (i == 0 ? "" : "  ") << std::left
         << std::setw(static_cast<int>(widths[i])) << c;
    }
    os << "\n";
  };

  line(headers_);
  std::string sep;
  for (std::size_t i = 0; i < widths.size(); ++i)
    sep += std::string(widths[i], '-') + (i + 1 < widths.size() ? "  " : "");
  os << sep << "\n";
  for (const auto& r : rows_) line(r);
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::ms(double ns, int precision) {
  return fmt(ns / 1e6, precision) + " ms";
}

std::string Table::gteps(double teps, int precision) {
  const double g = teps / 1e9;
  // A positive rate too small for `precision` decimals keeps three
  // significant digits rather than printing as zero.
  if (g > 0 && g < std::pow(10.0, -precision))
    precision = 2 - static_cast<int>(std::floor(std::log10(g)));
  return fmt(g, precision) + " GTEPS";
}

std::string Table::pct(double fraction, int precision) {
  return fmt(fraction * 100.0, precision) + "%";
}

}  // namespace numabfs::harness
