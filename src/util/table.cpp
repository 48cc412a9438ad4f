#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace sm::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void Table::add_separator() { rows_.emplace_back(); }

std::string Table::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }
  auto hline = [&] {
    std::string s = "+";
    for (auto w : widths) s += std::string(w + 2, '-') + "+";
    s += "\n";
    return s;
  };
  auto emit_row = [&](const std::vector<std::string>& row) {
    std::string s = "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      s += " " + cell + std::string(widths[c] - cell.size(), ' ') + " |";
    }
    s += "\n";
    return s;
  };
  std::string out = hline() + emit_row(header_) + hline();
  for (const auto& row : rows_) {
    out += row.empty() ? hline() : emit_row(row);
  }
  out += hline();
  return out;
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::pct(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v << '%';
  return os.str();
}

std::string Table::pct_or_na(bool defined, double v, int precision) {
  return defined ? pct(v, precision) : "n/a";
}

std::string Table::count(unsigned long long v) {
  // Thousands separators make the via tables readable (paper prints them too).
  std::string raw = std::to_string(v);
  std::string out;
  int seen = 0;
  for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
    if (seen != 0 && seen % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++seen;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace sm::util
