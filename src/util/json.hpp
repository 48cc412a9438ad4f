// Minimal JSON parser — just enough to read back what util::JsonWriter
// writes (the sweep store's JSONL records and the bench baseline files).
//
// Full JSON value model (null/bool/number/string/array/object) with strict
// syntax checking; numbers keep their raw token so integer fields (seeds
// are full 64-bit values) parse exactly instead of through a double.
// Object keys preserve insertion order and duplicate keys are rejected —
// canonical configs never repeat a key, and silently keeping one of two
// values would corrupt a hash comparison.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sm::util::json {

class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string raw;  ///< the untouched number token (Type::Number only)
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }

  /// Object member lookup; nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;

  /// Typed accessors. Throw std::invalid_argument on type mismatch (and,
  /// for as_u64/as_int, on tokens that are not exactly an integer of the
  /// target range) — store records with missing/mistyped fields must fail
  /// loudly, not read as zero.
  const std::string& as_string() const;
  double as_double() const;
  std::uint64_t as_u64() const;
  std::int64_t as_int() const;
  bool as_bool() const;

  /// find() + typed access with a "missing field" error naming `key`.
  const Value& at(std::string_view key) const;
};

/// Parse one JSON document; the whole input must be consumed (trailing
/// whitespace allowed). Throws std::invalid_argument with a byte offset on
/// malformed input, and on arrays and objects nested more than 64 deep.
Value parse(std::string_view text);

}  // namespace sm::util::json
