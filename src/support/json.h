// Minimal JSON value, writer, and parser.
//
// The observability layer emits three JSON surfaces — Chrome trace events,
// the remarks stream, and the `-report-json` compile report — and CI
// validates each by parsing it back.  No third-party JSON library is
// available in the build image, so this is a small self-contained
// implementation: a variant-style JsonValue, a serializer, and a strict
// recursive-descent parser (throws UserError on malformed input).  Object
// member order is preserved so serialize(parse(x)) round-trips stably.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace polaris {

/// Escapes a string for embedding inside JSON double quotes.
std::string json_escape(const std::string& s);

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;  ///< Array elements
  std::vector<std::pair<std::string, JsonValue>> members;  ///< Object fields

  // --- constructors ---------------------------------------------------------
  static JsonValue null() { return JsonValue{}; }
  static JsonValue boolean(bool b);
  static JsonValue num(double v);
  static JsonValue num(std::int64_t v);
  static JsonValue num(std::uint64_t v);
  static JsonValue num(int v) { return num(static_cast<std::int64_t>(v)); }
  static JsonValue str(std::string s);
  static JsonValue array();
  static JsonValue object();

  // --- building -------------------------------------------------------------
  JsonValue& add(JsonValue v);                      ///< append array element
  JsonValue& set(const std::string& key, JsonValue v);  ///< add object field

  // --- access ---------------------------------------------------------------
  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_string() const { return kind == Kind::String; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_bool() const { return kind == Kind::Bool; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Serializes this value as compact JSON.
  std::string serialize() const;
};

/// Parses `text` as a single JSON value with no trailing garbage.
/// Throws UserError with position information on malformed input.
JsonValue parse_json(const std::string& text);

/// Reads `path` and parses it as one JSON document.  Throws UserError
/// (naming the file) when the file cannot be read or does not parse —
/// the shared ingestion path for every tool that consumes the compiler's
/// JSON artifacts (polaris-insight, tests, the bench harness).
JsonValue parse_json_file(const std::string& path);

/// Parses a JSONL stream (one JSON document per line, the remarks /
/// POLARIS_BENCH_JSON shape).  Blank lines are skipped; a malformed line
/// throws UserError with its 1-based line number.
std::vector<JsonValue> parse_jsonl(const std::string& text);

}  // namespace polaris
