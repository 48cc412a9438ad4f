// ASCII table rendering — every bench prints paper-style tables through this.
#pragma once

#include <string>
#include <vector>

namespace sm::util {

/// A simple left/right-aligned column table with a header row.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append a row; missing cells render empty, extra cells are dropped.
  void add_row(std::vector<std::string> cells);
  /// Insert a horizontal separator before the next row.
  void add_separator();

  std::string render() const;
  std::size_t rows() const { return rows_.size(); }

  /// Format helpers for numeric cells.
  static std::string num(double v, int precision = 2);
  static std::string pct(double v, int precision = 1);
  /// pct(v, precision) when the metric is defined, "n/a" when it has no
  /// base: a CCR over no open sink, an OER or HD over no simulated
  /// pattern, a mean over no cell.
  static std::string pct_or_na(bool defined, double v, int precision = 1);
  static std::string count(unsigned long long v);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;  // empty vector == separator
};

}  // namespace sm::util
