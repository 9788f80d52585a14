#include "util/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fsyn {

namespace {

std::string kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value();
    skip_whitespace();
    fail_unless(pos_ == text_.size(), "trailing characters after the document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw Error("json parse error at offset " + std::to_string(pos_) + ": " + message);
  }
  void fail_unless(bool ok, const char* message) const {
    if (!ok) fail(message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    fail_unless(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    fail_unless(pos_ < text_.size() && text_[pos_] == c,
                ("expected '" + std::string(1, c) + "'").c_str());
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
        fail_unless(consume_literal("true"), "bad literal");
        return make_bool(true);
      case 'f':
        fail_unless(consume_literal("false"), "bad literal");
        return make_bool(false);
      case 'n':
        fail_unless(consume_literal("null"), "bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool value) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    v.bool_ = value;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      fail_unless(c == ',', "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      fail_unless(c == ',', "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      fail_unless(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        fail_unless(static_cast<unsigned char>(c) >= 0x20, "raw control character in string");
        out += c;
        continue;
      }
      fail_unless(pos_ < text_.size(), "unterminated escape");
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
          fail_unless(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the code point (BMP only; our emitters only escape
          // control characters, so surrogate pairs never appear).
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
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    fail_unless(pos_ > start, "expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    fail_unless(end == token.c_str() + token.size(), "malformed number");
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = value;
    // Integral tokens keep an exact int64 view: doubles drop precision
    // beyond 2^53, and 64-bit seeds round-trip through this parser.
    if (token.find('.') == std::string::npos && token.find('e') == std::string::npos &&
        token.find('E') == std::string::npos) {
      errno = 0;
      const long long integral = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        v.has_int_ = true;
        v.int_ = integral;
      }
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) { return JsonParser(text).run(); }

bool JsonValue::as_bool() const {
  check_input(kind_ == Kind::kBool, "json value is " + kind_name(kind_) + ", not bool");
  return bool_;
}

double JsonValue::as_number() const {
  check_input(kind_ == Kind::kNumber, "json value is " + kind_name(kind_) + ", not number");
  return number_;
}

std::int64_t JsonValue::as_int() const {
  check_input(kind_ == Kind::kNumber, "json value is " + kind_name(kind_) + ", not number");
  if (has_int_) return int_;
  const auto integral = static_cast<std::int64_t>(number_);
  check_input(static_cast<double>(integral) == number_, "json number is not integral");
  return integral;
}

const std::string& JsonValue::as_string() const {
  check_input(kind_ == Kind::kString, "json value is " + kind_name(kind_) + ", not string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  check_input(kind_ == Kind::kArray, "json value is " + kind_name(kind_) + ", not array");
  return items_;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  const auto& array = items();
  check_input(index < array.size(), "json array index out of range");
  return array[index];
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  check_input(kind_ == Kind::kObject, "json value is " + kind_name(kind_) + ", not object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [name, value] : members()) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* value = find(key);
  check_input(value != nullptr, "json object has no member '" + key + "'");
  return *value;
}

void append_json_string(std::string& out, std::string_view text) {
  static const char* kHex = "0123456789abcdef";
  out += '"';
  for (const char c : text) {
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
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;  // UTF-8 passthrough, matching the parser
        }
    }
  }
  out += '"';
}

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  append_json_string(out, text);
  return out;
}

namespace {

void append_number(std::string& out, double number) {
  // Shortest exact form: integral doubles print without a fraction, the
  // rest at max_digits10 so parse(dump(x)) is value-identical.
  const auto integral = static_cast<long long>(number);
  if (std::isfinite(number) && static_cast<double>(integral) == number &&
      number > -1e15 && number < 1e15) {
    out += std::to_string(integral);
    return;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", number);
  out += buffer;
}

void dump_value(std::string& out, const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += value.as_bool() ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: {
      std::int64_t integral = 0;
      bool exact = false;
      try {
        integral = value.as_int();
        exact = true;
      } catch (const Error&) {
      }
      if (exact) {
        out += std::to_string(integral);
      } else {
        append_number(out, value.as_number());
      }
      break;
    }
    case JsonValue::Kind::kString:
      append_json_string(out, value.as_string());
      break;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : value.items()) {
        if (!first) out += ',';
        first = false;
        dump_value(out, item);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [name, member] : value.members()) {
        if (!first) out += ',';
        first = false;
        append_json_string(out, name);
        out += ':';
        dump_value(out, member);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string JsonValue::dump() const {
  std::string out;
  dump_value(out, *this);
  return out;
}

// ---- JsonWriter ----

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!counts_.empty()) {
    if (counts_.back() > 0) out_ += ',';
    ++counts_.back();
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  require(!counts_.empty(), "JsonWriter::end_object without begin_object");
  counts_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  require(!counts_.empty(), "JsonWriter::end_array without begin_array");
  counts_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  require(!counts_.empty() && !after_key_, "JsonWriter::key outside an object");
  if (counts_.back() > 0) out_ += ',';
  ++counts_.back();
  append_json_string(out_, name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  before_value();
  append_json_string(out_, text);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  before_value();
  append_number(out_, number);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  before_value();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  before_value();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  before_value();
  out_ += json;
  return *this;
}

}  // namespace fsyn
