// Binary time-independent trace format.
//
// The paper lists "reduce the size of the traces, e.g., using a binary
// format" as future work; this is that extension. Layout:
//
//   magic "TIRB" | version u8 | default_pid varint+1 (0 = per-record pids)
//   records: tag u8 | [pid varint] | per-type fields
//
// The tag packs the ActionType (low 4 bits) and two flags marking whether
// each volume is stored as a LEB128 varint (integral values — the common
// case: byte counts and flop counts) or a raw 8-byte double. A compute
// record costs ~5 bytes against ~20 in text form.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "trace/action.hpp"

namespace tir::trace {

constexpr char kBinaryMagic[4] = {'T', 'I', 'R', 'B'};
constexpr std::uint8_t kBinaryVersion = 1;

class BinaryTraceWriter {
 public:
  /// `pid` >= 0 factors the process id out of every record (per-process
  /// files); -1 stores it per record (merged files).
  explicit BinaryTraceWriter(const std::filesystem::path& path, int pid = -1);
  ~BinaryTraceWriter();

  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  void write(const Action& action);
  std::uint64_t close();

 private:
  void put_varint(std::uint64_t value);
  void put_double(double value);
  void maybe_flush();

  std::ofstream out_;
  std::string buffer_;
  int default_pid_;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

class BinaryTraceReader {
 public:
  explicit BinaryTraceReader(const std::filesystem::path& path);

  std::optional<Action> next();

  /// Current read position in bytes (the trace pass snapshots it before
  /// each record to locate segments and the clean prefix). Counted as bytes
  /// are read rather than asked of the stream: tellg costs a system call
  /// per record.
  std::uint64_t byte_offset() const { return offset_; }

  /// Repositions to an absolute byte offset (a record boundary recorded by
  /// byte_offset — the streaming index's segment starts). Clears any EOF
  /// state first.
  void seek(std::uint64_t offset);

  /// The header's factored-out process id, or -1 for per-record pids.
  int default_pid() const { return default_pid_; }

 private:
  std::uint64_t get_varint();
  double get_double();

  std::ifstream in_;
  std::filesystem::path path_;
  int default_pid_;
  std::uint64_t offset_ = 0;  ///< bytes consumed from the start of the file
};

/// True when the file starts with the binary-trace magic.
bool is_binary_trace(const std::filesystem::path& path);

/// Converts a whole trace between formats; returns output size in bytes.
std::uint64_t text_to_binary(const std::filesystem::path& text_in,
                             const std::filesystem::path& binary_out);
std::uint64_t binary_to_text(const std::filesystem::path& binary_in,
                             const std::filesystem::path& text_out);

}  // namespace tir::trace
