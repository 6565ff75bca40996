// Minimal JSON value, parser and deterministic writer.
//
// One representation serves three consumers that must agree byte for byte:
// the api::JobSpec round-trip (CLI spec files), the service wire protocol
// (length-prefixed JSON frames), and JobSpec canonicalization (the string
// the daemon batches and fingerprints on).  Objects are std::map, so
// dump() is deterministic: keys come out sorted regardless of insertion
// order, and a parse/dump round trip of a canonical document is the
// identity.  Numbers are stored as int64 when the source text (or the
// constructing code) is integral, double otherwise; doubles print with the
// shortest representation that round-trips, so no precision is invented or
// lost.  The parser is strict UTF-8-agnostic RFC 8259: no comments, no
// trailing commas, no NaN/Infinity.  All errors throw sdpm::Error with a
// byte offset.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sdpm {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;  // sorted -> stable dump()

  Json() = default;  // null
  Json(std::nullptr_t) {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(int value) : type_(Type::kInt), int_(value) {}
  Json(std::int64_t value) : type_(Type::kInt), int_(value) {}
  Json(double value) : type_(Type::kDouble), double_(value) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  Json(Array value) : type_(Type::kArray), array_(std::move(value)) {}
  Json(Object value) : type_(Type::kObject), object_(std::move(value)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw sdpm::Error on a type mismatch.  as_double
  /// accepts both number representations; as_int additionally accepts a
  /// double with an exact integral value.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Mutable object/array access for building documents.  set() on a
  /// non-object and push_back() on a non-array throw.
  Json& set(const std::string& key, Json value);
  Json& push_back(Json value);

  /// Object field lookup: true when this is an object holding `key`.
  bool contains(const std::string& key) const;
  /// The field, which must exist (throws otherwise, naming the key).
  const Json& at(const std::string& key) const;
  /// The field or nullptr when absent (or when this is not an object).
  const Json* find(const std::string& key) const;

  friend bool operator==(const Json&, const Json&) = default;

  /// Compact deterministic serialization (sorted keys, no whitespace).
  std::string dump() const;

  /// Strict parse; throws sdpm::Error("json parse error at offset N: ...").
  static Json parse(std::string_view text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace sdpm
