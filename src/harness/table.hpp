#pragma once
/// \file table.hpp
/// Aligned plain-text table printer for the bench binaries — each bench
/// prints the rows/series of the paper figure it regenerates.

#include <iosfwd>
#include <string>
#include <vector>

namespace numabfs::harness {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print(std::ostream& os) const;

  /// Fixed-precision double formatting.
  static std::string fmt(double v, int precision = 2);
  /// Scaled formats used throughout the benches.
  static std::string ms(double ns, int precision = 2);   ///< ns -> "x.xx ms"
  /// TEPS -> "x.xx GTEPS"; a positive rate below 10^-precision GTEPS is
  /// printed with three significant digits instead ("0.00412 GTEPS").
  static std::string gteps(double teps, int precision = 2);
  static std::string pct(double fraction, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace numabfs::harness
