#include "support/units.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace tir::units {

namespace {

struct Suffix {
  const char* text;
  double factor;
};

// Longest-match order matters: check IEC ("Ki") before SI ("k").
constexpr std::array<Suffix, 10> kSuffixes{{
    {"ki", 1024.0},
    {"mi", 1024.0 * 1024},
    {"gi", 1024.0 * 1024 * 1024},
    {"ti", 1024.0 * 1024 * 1024 * 1024},
    {"pi", 1024.0 * 1024 * 1024 * 1024 * 1024},
    {"k", 1e3},
    {"m", 1e6},
    {"g", 1e9},
    {"t", 1e12},
    {"p", 1e15},
}};

// Parses the numeric prefix of `s`; returns the value and the index of the
// first unconsumed character.
std::pair<double, std::size_t> parse_number_prefix(std::string_view s) {
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{})
    throw ParseError("invalid quantity: '" + std::string(s) + "'");
  return {value, static_cast<std::size_t>(ptr - s.data())};
}

// Rejects NaN and the infinities, spelt out ("nan", "inf") or reached
// through a scale ("1e308k").
double finite(double value, std::string_view text) {
  if (!std::isfinite(value))
    throw ParseError("non-finite quantity: '" + std::string(text) + "'");
  return value;
}

double scaled_value(std::string_view text) {
  const std::string_view s = str::trim(text);
  if (s.empty()) throw ParseError("empty quantity");
  auto [value, used] = parse_number_prefix(s);
  std::string rest = str::lower(s.substr(used));
  const auto all_letters = [](std::string_view t) {
    for (const char c : t)
      if (c < 'a' || c > 'z') return false;
    return true;
  };
  if (rest.empty()) return value;
  if (!all_letters(rest) || rest.size() > 6)
    throw ParseError("invalid unit suffix in '" + std::string(text) + "'");
  for (const auto& suffix : kSuffixes) {
    if (str::starts_with(rest, suffix.text)) return value * suffix.factor;
  }
  // A bare unit letter with no scale ("64B", "10f", "bps") is also fine.
  return value;
}

double seconds(std::string_view text) {
  const std::string_view s = str::trim(text);
  if (s.empty()) throw ParseError("empty duration");
  auto [value, used] = parse_number_prefix(s);
  const std::string rest = str::lower(s.substr(used));
  if (rest.empty() || rest == "s") return value;
  if (rest == "ms") return value * 1e-3;
  if (rest == "us") return value * 1e-6;
  if (rest == "ns") return value * 1e-9;
  throw ParseError("invalid duration: '" + std::string(text) + "'");
}

}  // namespace

double parse_value(std::string_view text) {
  return finite(scaled_value(text), text);
}

double parse_duration(std::string_view text) {
  return finite(seconds(text), text);
}

std::uint64_t parse_bytes(std::string_view text) {
  const double v = parse_value(text);
  if (v < 0) throw ParseError("negative byte count: '" + std::string(text) + "'");
  return static_cast<std::uint64_t>(std::llround(v));
}

namespace {
std::string format3(double v, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g %s", v, unit);
  return buf;
}
}  // namespace

std::string format_bytes(double bytes) {
  constexpr std::array<const char*, 6> names{"B",   "KiB", "MiB",
                                             "GiB", "TiB", "PiB"};
  std::size_t i = 0;
  double v = bytes;
  while (v >= 1024.0 && i + 1 < names.size()) {
    v /= 1024.0;
    ++i;
  }
  return format3(v, names[i]);
}

std::string format_flops_rate(double flops_per_s) {
  constexpr std::array<const char*, 5> names{"flop/s", "Kflop/s", "Mflop/s",
                                             "Gflop/s", "Tflop/s"};
  std::size_t i = 0;
  double v = flops_per_s;
  while (v >= 1000.0 && i + 1 < names.size()) {
    v /= 1000.0;
    ++i;
  }
  return format3(v, names[i]);
}

std::string format_duration(double seconds) {
  if (seconds >= 1.0 || seconds == 0.0) return format3(seconds, "s");
  if (seconds >= 1e-3) return format3(seconds * 1e3, "ms");
  if (seconds >= 1e-6) return format3(seconds * 1e6, "us");
  return format3(seconds * 1e9, "ns");
}

void append_volume(std::string& out, double v) {
  // Integers up to 2^53 print exactly; anything else keeps 17 digits so the
  // value round-trips through the text trace format. Given a precision,
  // to_chars prints what printf's "%.0f" and "%.17g" print.
  char buf[40];
  const bool integral =
      v >= 0 && v < 9.007199254740992e15 && v == std::floor(v);
  const auto end =
      integral ? std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::fixed, 0)
               : std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::general, 17);
  out.append(buf, end.ptr);
}

std::string format_volume(double v) {
  std::string out;
  append_volume(out, v);
  return out;
}

}  // namespace tir::units
