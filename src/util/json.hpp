// Minimal JSON document parser.
//
// flowsynth writes several JSON artifacts (synthesis results, metrics,
// traces, reliability reports) with hand-rolled emitters; this is the
// matching reader, added so results can round-trip — a reliability run can
// consume a previously synthesized mapping (`flowsynth reliability --in
// mapping.json`) without re-solving, and tests can assert report schemas
// without shelling out to python.
//
// Scope: strict RFC-8259 subset, UTF-8 passthrough (no \uXXXX surrogate
// decoding beyond Latin-1), numbers as double plus an exact int64 view when
// representable.  Throws fsyn::Error with an offset on malformed input.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace fsyn {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses a complete document (one value + trailing whitespace only).
  static JsonValue parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool as_bool() const;
  double as_number() const;
  /// Number as integer; throws when the value is not integral.
  std::int64_t as_int() const;
  const std::string& as_string() const;

  // ---- arrays ----
  const std::vector<JsonValue>& items() const;
  std::size_t size() const { return items().size(); }
  const JsonValue& at(std::size_t index) const;

  // ---- objects (member order preserved for round-trip fidelity) ----
  const std::vector<std::pair<std::string, JsonValue>>& members() const;
  /// Member lookup; throws fsyn::Error when the key is absent.
  const JsonValue& at(const std::string& key) const;
  /// Member lookup; nullptr when absent.
  const JsonValue* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }

  /// Compact re-serialization (no whitespace).  Member order is preserved,
  /// integral numbers print exactly, other doubles at max_digits10, so
  /// `parse(x).dump()` loses no information.
  std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool has_int_ = false;  ///< token was integral and fits int64 exactly
  std::int64_t int_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

/// Appends `text` to `out` as a quoted JSON string, escaped the way
/// `JsonValue::parse` reads it back: `"` and `\`, the short escapes \b \f
/// \n \r \t, \u00XX for the other control characters; UTF-8 passes through.
void append_json_string(std::string& out, std::string_view text);

/// `text` as a quoted JSON string (see append_json_string).
std::string json_quote(std::string_view text);

/// Builder for compact JSON documents, used by the network layer for wire
/// messages and journal records.  It tracks nesting so commas and colons
/// are placed automatically:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("id").value(42);
///   w.key("tags").begin_array().value("a").value("b").end_array();
///   w.end_object();
///   w.str()  // {"id":42,"tags":["a","b"]}
///
/// `raw` splices an already-serialized JSON value (e.g. a nested document
/// produced elsewhere) without re-encoding it.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Member key; must be followed by exactly one value (or container).
  JsonWriter& key(std::string_view name);
  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool b);
  JsonWriter& value(double number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(int number) { return value(static_cast<std::int64_t>(number)); }
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(unsigned number) { return value(static_cast<std::uint64_t>(number)); }
  JsonWriter& null();
  /// Splices pre-serialized JSON verbatim where a value is expected.
  JsonWriter& raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void before_value();

  std::string out_;
  /// One entry per open container: the count of values emitted in it.
  std::vector<std::size_t> counts_;
  bool after_key_ = false;
};

}  // namespace fsyn
