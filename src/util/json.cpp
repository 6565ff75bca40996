#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/error.h"
#include "util/strings.h"

namespace sdpm {
namespace {

const char* type_name(Json::Type type) {
  switch (type) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kInt: return "int";
    case Json::Type::kDouble: return "double";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* wanted, Json::Type got) {
  throw Error(str_printf("json: expected %s, got %s", wanted,
                         type_name(got)));
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += str_printf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Shortest decimal that parses back to exactly `value` — deterministic
/// and free of trailing noise ("0.2" rather than "0.20000000000000001").
std::string shortest_double(double value) {
  if (!std::isfinite(value)) {
    throw Error("json: cannot serialize a non-finite number");
  }
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

class Parser {
 public:
  /// Deepest array/object nesting accepted.  The parser recurses once per
  /// level; this keeps hostile input (a 64 MB frame of '[') far from the
  /// stack limit while staying well above any document the system writes.
  static constexpr int kMaxDepth = 256;

  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw Error(str_printf("json parse error at offset %zu: %s", pos_,
                           message.c_str()));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(str_printf("expected '%c'", c));
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return nested([&] { return parse_object(); });
      case '[': return nested([&] { return parse_array(); });
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Json(nullptr);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail("unexpected character");
    }
  }

  template <typename ParseFn>
  Json nested(ParseFn parse) {
    if (depth_ == kMaxDepth) {
      fail(str_printf("nesting deeper than %d levels", kMaxDepth));
    }
    ++depth_;
    Json value = parse();
    --depth_;
    return value;
  }

  Json parse_object() {
    expect('{');
    Json::Object object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      if (!object.emplace(std::move(key), parse_value()).second) {
        fail("duplicate object key");
      }
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return Json(std::move(object));
  }

  Json parse_array() {
    expect('[');
    Json::Array array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return Json(std::move(array));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) fail("truncated \\u escape");
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by any producer in this repo and are rejected).
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    bool integral = true;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) {
      fail("invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      const std::size_t frac = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == frac) fail("invalid number: missing fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const std::size_t exp = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == exp) fail("invalid number: missing exponent digits");
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long value = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Json(static_cast<std::int64_t>(value));
      }
      // Out of int64 range: fall through to double.
    }
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void dump_to(const Json& value, std::string& out);

void dump_to(const Json& value, std::string& out) {
  switch (value.type()) {
    case Json::Type::kNull: out += "null"; break;
    case Json::Type::kBool: out += value.as_bool() ? "true" : "false"; break;
    case Json::Type::kInt: out += std::to_string(value.as_int()); break;
    case Json::Type::kDouble: out += shortest_double(value.as_double()); break;
    case Json::Type::kString: append_escaped(out, value.as_string()); break;
    case Json::Type::kArray: {
      out += '[';
      bool first = true;
      for (const Json& item : value.as_array()) {
        if (!first) out += ',';
        first = false;
        dump_to(item, out);
      }
      out += ']';
      break;
    }
    case Json::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, item] : value.as_object()) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, key);
        out += ':';
        dump_to(item, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

std::int64_t Json::as_int() const {
  if (type_ == Type::kInt) return int_;
  if (type_ == Type::kDouble) {
    const auto as_integer = static_cast<std::int64_t>(double_);
    if (static_cast<double>(as_integer) == double_) return as_integer;
    throw Error(str_printf("json: %g is not an integer", double_));
  }
  type_error("int", type_);
}

double Json::as_double() const {
  if (type_ == Type::kInt) return static_cast<double>(int_);
  if (type_ == Type::kDouble) return double_;
  type_error("number", type_);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ != Type::kObject) type_error("object", type_);
  object_[key] = std::move(value);
  return *this;
}

Json& Json::push_back(Json value) {
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(value));
  return *this;
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::kObject && object_.count(key) > 0;
}

const Json& Json::at(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  const auto it = object_.find(key);
  if (it == object_.end()) {
    throw Error("json: missing field '" + key + "'");
  }
  return it->second;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::string Json::dump() const {
  std::string out;
  dump_to(*this, out);
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace sdpm
