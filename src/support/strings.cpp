#include "support/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "support/error.hpp"

namespace tir::str {

namespace {
bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_blank(s[b])) ++b;
  while (e > b && is_blank(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_blank(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_blank(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::size_t split_ws(std::string_view s, std::string_view* out,
                     std::size_t max) {
  std::size_t n = 0;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_blank(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_blank(s[i])) ++i;
    if (i > start) {
      if (n == max) return max + 1;
      out[n++] = s.substr(start, i - start);
    }
  }
  return n;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

double to_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) throw ParseError("empty string where a number was expected");
  // std::from_chars for double is available in libstdc++ >= 11.
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw ParseError("invalid number: '" + std::string(s) + "'");
  return value;
}

long long to_int(std::string_view s) {
  s = trim(s);
  if (s.empty()) throw ParseError("empty string where an integer was expected");
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw ParseError("invalid integer: '" + std::string(s) + "'");
  return value;
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace tir::str
