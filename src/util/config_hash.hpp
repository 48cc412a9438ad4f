// Canonical JSON serialization + FNV-1a hashing for configuration keys.
//
// The sweep store (src/sweep/store.hpp) keys every result record by a
// config hash: a 64-bit FNV-1a digest of a *canonical* JSON rendering of
// the cell's full recipe. "Canonical" means the bytes are a pure function
// of the values — fixed field order (the writer emits keys in the order the
// caller adds them; callers sort their keys lexicographically by
// convention), no whitespace, and shortest-round-trip double formatting —
// so the same configuration hashes identically across processes, grids,
// and releases. tests/test_store.cpp pins golden hash values as a
// cross-release stability regression.
//
// JsonWriter is also the store's record serializer: records written by one
// process must be byte-stable so merged sub-grid logs and resumed runs
// materialize bit-identical tables (doubles round-trip exactly through
// format_double / strtod).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sm::util {

/// Shortest decimal string that parses back (strtod) to exactly `v`.
/// Deterministic: the same double always yields the same bytes. Infinities
/// and NaN (never part of a valid config) serialize as null.
std::string format_double(double v);

/// 64-bit FNV-1a over `bytes`.
std::uint64_t fnv1a64(std::string_view bytes);

/// The store's key format: fnv1a64 rendered as 16 lowercase hex digits.
std::string config_hash(std::string_view canonical_json);

/// Minimal streaming JSON writer producing canonical bytes: no whitespace,
/// commas managed automatically, strings escaped, doubles via
/// format_double. The caller is responsible for key order (canonical
/// configs list keys lexicographically) and for balanced begin/end calls.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by exactly one value (or container).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::uint64_t v);  // also std::size_t on LP64
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }

  /// Embed pre-serialized JSON verbatim (e.g. a nested canonical object).
  JsonWriter& raw(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  void comma();
  std::string out_;
  /// One entry per open container: true once the first element was written
  /// (so the next element needs a comma prefix).
  std::vector<bool> needs_comma_;
  bool after_key_ = false;
};

/// Escape `s` for a JSON string literal (quotes not included).
std::string json_escape(std::string_view s);

}  // namespace sm::util
