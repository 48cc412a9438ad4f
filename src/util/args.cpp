#include "util/args.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace sm::util {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      positional_.push_back(std::move(tok));
      continue;
    }
    tok.erase(0, 2);
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      kv_[tok.substr(0, eq)] = tok.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[tok] = argv[++i];
    } else {
      kv_[tok] = "true";
    }
  }
}

bool Args::has(const std::string& key) const { return kv_.count(key) != 0; }

std::string Args::get(const std::string& key, const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

namespace {

/// `parse(v, &used)` over all of `v` (a std::sto* call); throws
/// std::invalid_argument naming the value as `what` unless it parses every
/// character into a value `ok` accepts.
template <class Parse, class Ok>
auto parse_whole(const std::string& what, const std::string& v, Parse parse,
                 Ok ok, const char* expected) {
  std::size_t used = 0;
  decltype(parse(v, &used)) parsed{};
  try {
    parsed = parse(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (v.empty() || used != v.size() || !ok(parsed))
    throw std::invalid_argument(what + ": expected " + expected + ", got '" +
                                v + "'");
  return parsed;
}

}  // namespace

std::size_t parse_count(const std::string& value, const std::string& what) {
  // Plain digits only: std::stoull would accept a sign and wrap "-1".
  const bool digit = std::isdigit(static_cast<unsigned char>(value[0]));
  return static_cast<std::size_t>(parse_whole(
      what, value,
      [](const std::string& v, std::size_t* n) { return std::stoull(v, n); },
      [&](unsigned long long) { return digit; }, "a non-negative integer"));
}

double parse_double(const std::string& value, const std::string& what) {
  return parse_whole(
      what, value,
      [](const std::string& v, std::size_t* n) { return std::stod(v, n); },
      [](double d) { return std::isfinite(d); }, "a finite number");
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_double(it->second, "--" + key);
}

std::size_t Args::get_count(const std::string& key,
                            std::size_t fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_count(it->second, "--" + key);
}

void Args::reject_unknown(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : kv_)
    if (std::find(known.begin(), known.end(), key) == known.end())
      throw std::invalid_argument("unknown flag --" + key);
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> split_list(const std::string& text, char sep) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(sep, start);
    if (end == std::string::npos) end = text.size();
    if (end > start) items.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return items;
}

}  // namespace sm::util
