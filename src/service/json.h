// Minimal JSON value type for the service protocol.
//
// The wire format is newline-delimited JSON; this is the in-tree
// parser/serializer for it (the container bakes in no JSON library, and
// the protocol needs only the core of RFC 8259).  Objects preserve
// insertion order so serialized responses are deterministic and easy to
// diff in tests; key lookup is linear, which is fine at protocol sizes
// (a handful of keys per object).
//
// Numbers are doubles, like JavaScript; protocol integers (sizes, ports,
// cycle counts) stay exact well past 2^50.  parse() throws pviz::Error
// with an offset-tagged message on malformed input — the server turns
// that into an `error` response rather than dropping the connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pviz::service {

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double n) : type_(Type::Number), number_(n) {}
  Json(int n) : type_(Type::Number), number_(n) {}
  Json(std::int64_t n)
      : type_(Type::Number), number_(static_cast<double>(n)) {}
  Json(const char* s) : type_(Type::String), string_(s) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Json(Array a) : type_(Type::Array), array_(std::move(a)) {}
  Json(Object o) : type_(Type::Object), object_(std::move(o)) {}

  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }

  Type type() const { return type_; }
  bool isNull() const { return type_ == Type::Null; }
  bool isBool() const { return type_ == Type::Bool; }
  bool isNumber() const { return type_ == Type::Number; }
  bool isString() const { return type_ == Type::String; }
  bool isArray() const { return type_ == Type::Array; }
  bool isObject() const { return type_ == Type::Object; }

  /// Typed accessors; throw pviz::Error on a type mismatch.
  bool asBool() const;
  double asNumber() const;
  std::int64_t asInt() const;  ///< number, truncated toward zero
  const std::string& asString() const;
  const Array& asArray() const;
  const Object& asObject() const;

  /// Object field lookup; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;
  /// Object field append (no duplicate check; protocol keys are unique).
  Json& set(std::string key, Json value);
  /// Array element append.
  Json& push(Json value);

  /// Serialize to a compact single-line string (no embedded newlines,
  /// so a dumped value is always one well-formed protocol frame).
  std::string dump() const;

  /// Default nesting bound for parse(): deep enough for any protocol
  /// payload, shallow enough that a remotely supplied `[[[[...` frame
  /// fails with a parse error instead of overflowing the recursive-
  /// descent parser's stack.
  static constexpr std::size_t kDefaultMaxDepth = 64;

  /// Parse one JSON document (throws pviz::Error; trailing garbage is
  /// an error, as is nesting deeper than `maxDepth` containers).
  static Json parse(const std::string& text,
                    std::size_t maxDepth = kDefaultMaxDepth);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Append `s` or `n` exactly as Json::dump() writes a string or number,
/// for writers that splice already-serialized values into one frame.
void appendJsonString(std::string& out, std::string_view s);
void appendJsonNumber(std::string& out, double n);

}  // namespace pviz::service
