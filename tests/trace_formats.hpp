// Test helpers for the three on-disk trace formats: the list to loop over,
// format names in gtest messages, a file's raw bytes, and a whole-file read
// through TraceSet's materialising pass.
#pragma once

#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"

namespace tir::trace {

/// Prints a format by name in gtest messages.
inline std::ostream& operator<<(std::ostream& os, TraceFormat format) {
  return os << format_name(format);
}

}  // namespace tir::trace

namespace tir::test {

/// Every on-disk format.
inline constexpr trace::TraceFormat kTraceFormats[] = {
    trace::TraceFormat::text, trace::TraceFormat::binary,
    trace::TraceFormat::compact};

/// The format's name as a string, for file names.
inline std::string name(trace::TraceFormat format) {
  return std::string(trace::format_name(format));
}

/// The file's bytes.
inline std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Every action in the file, in file order (record pids kept verbatim).
inline std::vector<trace::Action> read_trace(
    const std::filesystem::path& path) {
  const auto set = trace::TraceSet::per_process_files(
      {path}, trace::DecodeMode::strict, trace::DecodePolicy::materialise);
  const auto actions = set.actions(0);
  return {actions.begin(), actions.end()};
}

}  // namespace tir::test
