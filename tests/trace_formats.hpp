// Test helper: write an action list in one of the three on-disk trace
// formats by name, through the production writers, and read a file back
// through TraceSet's materialising pass.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"
#include "trace/binary_format.hpp"
#include "trace/compact.hpp"
#include "trace/stream.hpp"
#include "trace/text_format.hpp"
#include "trace/trace_set.hpp"

namespace tir::test {

/// Every on-disk format, by the names tir-gentrace's --codec takes.
inline constexpr const char* kTraceFormats[] = {"text", "binary", "compact"};

/// Writes `actions` to `path` as `format`. `pid` >= 0 marks a per-process
/// file (binary factors the pid out of its records); -1 keeps per-record
/// pids (merged files). Returns bytes written.
inline std::uint64_t write_trace(const std::filesystem::path& path,
                                 const std::vector<trace::Action>& actions,
                                 int pid, std::string_view format) {
  if (format == "text") {
    trace::TextTraceWriter writer(path);
    for (const trace::Action& a : actions) writer.write(a);
    return writer.close();
  }
  if (format == "binary") {
    trace::BinaryTraceWriter writer(path, pid);
    for (const trace::Action& a : actions) writer.write(a);
    return writer.close();
  }
  if (format == "compact")
    return trace::write_compact(path, trace::compact_actions(actions), pid);
  throw Error("unknown trace format '" + std::string(format) + "'");
}

/// The index kind the stream pass sniffs for a file written as `format`.
inline trace::StreamIndex::Kind format_kind(std::string_view format) {
  if (format == "binary") return trace::StreamIndex::Kind::binary;
  if (format == "compact") return trace::StreamIndex::Kind::compact;
  return trace::StreamIndex::Kind::text;
}

/// Every action in the file, in file order (record pids kept verbatim).
inline std::vector<trace::Action> read_trace(
    const std::filesystem::path& path) {
  return trace::TraceSet::per_process_files(
             {path}, trace::DecodeMode::strict,
             trace::DecodePolicy::materialise)
      .actions(0);
}

}  // namespace tir::test
