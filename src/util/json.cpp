#include "util/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace sm::util::json {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at byte " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Each level recurses once; a line of 200,000 '[' would overflow
        // the stack instead of failing like any other malformed line.
        if (depth_ == kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        ++depth_;
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.type = Value::Type::String;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Value v;
        v.type = Value::Type::Bool;
        v.boolean = c == 't';
        if (!consume_literal(v.boolean ? "true" : "false"))
          fail("bad literal");
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      }
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type = Value::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      if (v.find(key)) fail("duplicate object key '" + key + "'");
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type = Value::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // The writer only emits \u00XX for control bytes; decode the
          // BMP subset as UTF-8 and reject surrogates (never produced).
          if (code >= 0xd800 && code <= 0xdfff) fail("surrogate \\u escape");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad number");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    Value v;
    v.type = Value::Type::Number;
    v.raw = std::string(text_.substr(start, pos_ - start));
    v.number = std::strtod(v.raw.c_str(), nullptr);
    return v;
  }

  /// Store records nest 5 deep; this leaves room without risking the stack.
  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

[[noreturn]] void type_error(const char* want) {
  throw std::invalid_argument(std::string("json: value is not ") + want);
}

}  // namespace

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const std::string& Value::as_string() const {
  if (type != Type::String) type_error("a string");
  return string;
}

double Value::as_double() const {
  if (type != Type::Number) type_error("a number");
  return number;
}

std::uint64_t Value::as_u64() const {
  if (type != Type::Number) type_error("a number");
  errno = 0;
  char* end = nullptr;
  const auto v = std::strtoull(raw.c_str(), &end, 10);
  if (errno != 0 || end != raw.c_str() + raw.size() || raw[0] == '-')
    type_error("an unsigned integer");
  return v;
}

std::int64_t Value::as_int() const {
  if (type != Type::Number) type_error("a number");
  errno = 0;
  char* end = nullptr;
  const auto v = std::strtoll(raw.c_str(), &end, 10);
  if (errno != 0 || end != raw.c_str() + raw.size())
    type_error("an integer");
  return v;
}

bool Value::as_bool() const {
  if (type != Type::Bool) type_error("a bool");
  return boolean;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (!v)
    throw std::invalid_argument("json: missing field '" + std::string(key) +
                                "'");
  return *v;
}

Value parse(std::string_view text) { return Parser(text).run(); }

}  // namespace sm::util::json
