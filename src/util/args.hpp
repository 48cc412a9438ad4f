// Minimal command-line option parsing shared by benches and examples.
// Syntax: --key=value or --key value or bare --flag.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace sm::util {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// The whole value as a finite number. Throws std::invalid_argument
  /// naming the flag on anything else, inf and nan included.
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// Strictly parsed non-negative integer (plain digits only). Throws
  /// std::invalid_argument naming the flag on anything else, a sign
  /// included: std::stoull would wrap "-1" to 2^64 - 1.
  std::size_t get_count(const std::string& key, std::size_t fallback) const;
  /// Throws std::invalid_argument naming a key not in `known`, so a flag
  /// the caller would never read fails instead of being ignored.
  void reject_unknown(const std::vector<std::string>& known) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

/// The whole-token rules of Args::get_count and Args::get_double, for a
/// value that did not come in as a flag of its own (a list entry, a --grid
/// key). Throws std::invalid_argument naming the value as `what`.
std::size_t parse_count(const std::string& value, const std::string& what);
double parse_double(const std::string& value, const std::string& what);

/// Split a separator-joined list value ("c432,c880"). Empty entries are
/// skipped, so trailing/doubled separators ("c432,", "a,,b") and the empty
/// string parse to what the user meant instead of injecting "" items.
std::vector<std::string> split_list(const std::string& text, char sep = ',');

}  // namespace sm::util
