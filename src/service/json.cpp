#include "service/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"

namespace pviz::service {

namespace {

[[noreturn]] void typeError(const char* want, Json::Type got) {
  static const char* names[] = {"null",   "bool",  "number",
                                "string", "array", "object"};
  throw Error(std::string("json: expected ") + want + ", got " +
              names[static_cast<int>(got)]);
}

}  // namespace

void appendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 passes through untouched
        }
    }
  }
  out += '"';
}

void appendJsonNumber(std::string& out, double n) {
  PVIZ_REQUIRE(std::isfinite(n), "json: cannot serialize a non-finite number");
  // Integers (the common protocol case) print without an exponent or
  // trailing zeros; everything else round-trips via %.17g.
  if (n == std::floor(n) && std::fabs(n) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(n));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", n);
    out += buf;
  }
}

namespace {

void appendValue(std::string& out, const Json& v) {
  switch (v.type()) {
    case Json::Type::Null: out += "null"; return;
    case Json::Type::Bool: out += v.asBool() ? "true" : "false"; return;
    case Json::Type::Number: appendJsonNumber(out, v.asNumber()); return;
    case Json::Type::String: appendJsonString(out, v.asString()); return;
    case Json::Type::Array: {
      out += '[';
      bool first = true;
      for (const Json& e : v.asArray()) {
        if (!first) out += ',';
        first = false;
        appendValue(out, e);
      }
      out += ']';
      return;
    }
    case Json::Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : v.asObject()) {
        if (!first) out += ',';
        first = false;
        appendJsonString(out, key);
        out += ':';
        appendValue(out, value);
      }
      out += '}';
      return;
    }
  }
}

class Parser {
 public:
  Parser(const std::string& text, std::size_t maxDepth)
      : text_(text), maxDepth_(maxDepth) {}

  Json parseDocument() {
    Json value = parseValue();
    skipSpace();
    require(pos_ == text_.size(), "trailing garbage after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at offset " + std::to_string(pos_));
  }
  void require(bool ok, const char* what) const {
    if (!ok) fail(what);
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char take() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_++];
  }
  void skipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  void expectWord(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      require(pos_ < text_.size() && text_[pos_] == *p, "invalid literal");
      ++pos_;
    }
  }

  // RAII depth guard: every container level on the parser's own call
  // stack counts against maxDepth_, so adversarial nesting fails with a
  // parse error long before the process stack is at risk.
  struct DepthGuard {
    explicit DepthGuard(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > parser_.maxDepth_) {
        parser_.fail("nesting deeper than " +
                     std::to_string(parser_.maxDepth_) + " levels");
      }
    }
    ~DepthGuard() { --parser_.depth_; }
    Parser& parser_;
  };

  Json parseValue() {
    skipSpace();
    switch (peek()) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return Json(parseString());
      case 't': expectWord("true"); return Json(true);
      case 'f': expectWord("false"); return Json(false);
      case 'n': expectWord("null"); return Json(nullptr);
      default: return parseNumber();
    }
  }

  Json parseObject() {
    const DepthGuard guard(*this);
    take();  // '{'
    Json out = Json::object();
    skipSpace();
    if (peek() == '}') {
      take();
      return out;
    }
    for (;;) {
      skipSpace();
      require(peek() == '"', "expected object key");
      std::string key = parseString();
      skipSpace();
      require(take() == ':', "expected ':' after object key");
      out.set(std::move(key), parseValue());
      skipSpace();
      const char c = take();
      if (c == '}') return out;
      require(c == ',', "expected ',' or '}' in object");
    }
  }

  Json parseArray() {
    const DepthGuard guard(*this);
    take();  // '['
    Json out = Json::array();
    skipSpace();
    if (peek() == ']') {
      take();
      return out;
    }
    for (;;) {
      out.push(parseValue());
      skipSpace();
      const char c = take();
      if (c == ']') return out;
      require(c == ',', "expected ',' or ']' in array");
    }
  }

  std::string parseString() {
    take();  // '"'
    std::string out;
    for (;;) {
      char c = take();
      if (c == '"') return out;
      if (c != '\\') {
        require(static_cast<unsigned char>(c) >= 0x20,
                "unescaped control character in string");
        out += c;
        continue;
      }
      c = take();
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // Encode as UTF-8 (surrogate pairs are passed through as two
          // three-byte sequences; the protocol itself is ASCII).
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
  }

  Json parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    require(pos_ > start, "expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t maxDepth_ = Json::kDefaultMaxDepth;
  std::size_t depth_ = 0;
};

}  // namespace

bool Json::asBool() const {
  if (type_ != Type::Bool) typeError("bool", type_);
  return bool_;
}

double Json::asNumber() const {
  if (type_ != Type::Number) typeError("number", type_);
  return number_;
}

std::int64_t Json::asInt() const {
  return static_cast<std::int64_t>(asNumber());
}

const std::string& Json::asString() const {
  if (type_ != Type::String) typeError("string", type_);
  return string_;
}

const Json::Array& Json::asArray() const {
  if (type_ != Type::Array) typeError("array", type_);
  return array_;
}

const Json::Object& Json::asObject() const {
  if (type_ != Type::Object) typeError("object", type_);
  return object_;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::set(std::string key, Json value) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object) typeError("object", type_);
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (type_ == Type::Null) type_ = Type::Array;
  if (type_ != Type::Array) typeError("array", type_);
  array_.push_back(std::move(value));
  return *this;
}

std::string Json::dump() const {
  std::string out;
  appendValue(out, *this);
  return out;
}

Json Json::parse(const std::string& text, std::size_t maxDepth) {
  PVIZ_REQUIRE(maxDepth >= 1, "json: depth bound must be >= 1");
  return Parser(text, maxDepth).parseDocument();
}

}  // namespace pviz::service
