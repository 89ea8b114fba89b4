// Minimal JSON for the tir-serve line protocol.
//
// Requests are one flat-ish JSON object per line; responses are rendered by
// hand (the repo's existing exporters already do that). This parser covers
// the full JSON grammar — objects, arrays, strings with escapes, numbers,
// booleans, null — because clients will send whatever their json library
// emits, but it is deliberately small: DOM values, no streaming, a depth
// cap instead of recursion-to-segfault. Throws tir::ParseError with a byte
// offset on malformed input.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tir::serve {

struct JsonValue {
  enum class Type { null, boolean, number, string, object, array };

  Type type = Type::null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< field order kept
  std::vector<JsonValue> array;

  /// First field with this name; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;

  /// Renders the value back to compact JSON (objects keep field order).
  std::string dump() const;
};

/// Parses exactly one JSON value spanning the whole input (surrounding
/// whitespace allowed). Throws tir::ParseError.
JsonValue parse_json(std::string_view text);

}  // namespace tir::serve
