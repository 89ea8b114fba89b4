// Small string helpers used by the trace / platform parsers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace tir::str {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on any run of the characters in `seps` (default: blanks).
/// Empty fields are never produced.
std::vector<std::string_view> split_ws(std::string_view s);

/// Allocation-free variant for hot parse loops: fills `out` (capacity `max`)
/// and returns the token count, or `max + 1` when the input has more tokens
/// than fit (the overflow tokens are dropped, the count still over-reports
/// so exact-arity checks fail as they would with the vector variant).
std::size_t split_ws(std::string_view s, std::string_view* out,
                     std::size_t max);

/// Splits on a single separator character; empty fields are kept.
std::vector<std::string_view> split(std::string_view s, char sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Parses a double; throws tir::ParseError on garbage or trailing junk.
double to_double(std::string_view s);

/// Parses a non-negative integer; throws tir::ParseError on failure.
long long to_int(std::string_view s);

/// Lower-cases ASCII.
std::string lower(std::string_view s);

/// Escapes `s` for embedding inside a JSON string literal (no quotes
/// added): quote, backslash and every control byte below 0x20.
std::string json_escape(std::string_view s);

}  // namespace tir::str
