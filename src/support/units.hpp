// Parsing and formatting of physical quantities used by platform files:
// flop rates ("1.17E9", "2.5Gf"), bandwidths ("1.25E8", "10Gbps"),
// latencies ("16.67E-6", "50us"), and byte counts ("64KiB", "1.2GiB").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace tir::units {

/// Parses a value with an optional SI/IEC suffix.
///
/// Accepted suffixes (case-insensitive, optional trailing unit letter
/// ignored, e.g. "f" for flops or "Bps"): k/M/G/T/P (powers of 1000) and
/// Ki/Mi/Gi/Ti/Pi (powers of 1024). A bare number is returned unchanged.
/// Throws tir::ParseError on malformed input and on a value that is NaN or
/// infinite, spelt out or after scaling.
double parse_value(std::string_view text);

/// Parses a duration: bare seconds, or suffixed "ns"/"us"/"ms"/"s".
/// Throws tir::ParseError on malformed or non-finite input.
double parse_duration(std::string_view text);

/// Parses a byte count ("64KiB", "163840", "1.2MB") into bytes.
std::uint64_t parse_bytes(std::string_view text);

/// "1234567" -> "1.18 MiB". Always three significant digits.
std::string format_bytes(double bytes);

/// "2.5e9" -> "2.50 Gflop/s".
std::string format_flops_rate(double flops_per_s);

/// Pretty seconds with adaptive unit: "12.3 s", "4.56 ms", "789 us".
std::string format_duration(double seconds);

/// Scientific-ish compact number used in trace files: integers are printed
/// without exponent, large values keep full precision (round-trip safe).
std::string format_volume(double v);

/// Appends format_volume(v) to `out` without a temporary.
void append_volume(std::string& out, double v);

}  // namespace tir::units
