#include "trace/trace_format.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>

#include "support/error.hpp"

namespace tir::trace {

namespace {

constexpr std::size_t kFlushThreshold = 1 << 20;  // 1 MiB buffer

constexpr std::array<std::string_view, 3> kFormatNames{"text", "binary",
                                                       "compact"};

bool integral_volume(double v) {
  return v >= 0 && v < 9.007199254740992e15 && v == std::floor(v);
}

void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

/// Streams text lines or binary records into one file (acquisition writes
/// tens of millions of them) through a buffer flushed every 1 MiB.
class RecordWriter {
 public:
  /// `pid` >= 0 factors the process id out of binary records.
  RecordWriter(const std::filesystem::path& path, TraceFormat format, int pid)
      : path_(path),
        out_(path, std::ios::binary),
        binary_(format == TraceFormat::binary),
        pid_(pid) {
    if (!out_)
      throw IoError("cannot create trace file '" + path.string() + "'");
    buffer_.reserve(kFlushThreshold + 256);
    if (!binary_) return;
    buffer_.append(kBinaryMagic, sizeof(kBinaryMagic));
    buffer_.push_back(static_cast<char>(kBinaryVersion));
    put_varint(buffer_, pid < 0 ? 0 : static_cast<std::uint64_t>(pid) + 1);
  }

  void write(const Action& a) {
    if (binary_) {
      put_record(a);
    } else {
      append_line(buffer_, a);
      buffer_ += '\n';
    }
    if (buffer_.size() >= kFlushThreshold) flush();
  }

  /// Flushes and closes; returns the number of bytes written.
  std::uint64_t close() {
    flush();
    out_.close();
    if (!out_)
      throw IoError("cannot write trace file '" + path_.string() + "'");
    return bytes_;
  }

 private:
  void flush() {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    bytes_ += buffer_.size();
    buffer_.clear();
  }

  void put_record(const Action& a) {
    std::uint8_t tag = static_cast<std::uint8_t>(a.type);
    const bool v_double = !integral_volume(a.volume);
    const bool v2_double = !integral_volume(a.volume2);
    if (v_double) tag |= kVolumeIsDouble;
    if (v2_double) tag |= kVolume2IsDouble;
    buffer_.push_back(static_cast<char>(tag));
    if (pid_ < 0) put_varint(buffer_, static_cast<std::uint64_t>(a.pid));

    const auto put_volume = [&](double v, bool as_double) {
      if (as_double) {
        char raw[sizeof(double)];
        std::memcpy(raw, &v, sizeof(double));
        buffer_.append(raw, sizeof(double));
      } else {
        put_varint(buffer_, static_cast<std::uint64_t>(v));
      }
    };

    switch (a.type) {
      case ActionType::compute:
      case ActionType::bcast:
      case ActionType::gather:
      case ActionType::allgather:
      case ActionType::alltoall:
        put_volume(a.volume, v_double);
        break;
      case ActionType::send:
      case ActionType::isend:
      case ActionType::recv:
      case ActionType::irecv:
        put_varint(buffer_, static_cast<std::uint64_t>(a.partner));
        put_volume(a.volume, v_double);
        break;
      case ActionType::reduce:
      case ActionType::allreduce:
        put_volume(a.volume, v_double);
        put_volume(a.volume2, v2_double);
        break;
      case ActionType::comm_size:
        put_varint(buffer_, static_cast<std::uint64_t>(a.comm_size));
        break;
      case ActionType::barrier:
      case ActionType::wait:
      case ActionType::waitall:
        break;
    }
  }

  std::filesystem::path path_;
  std::ofstream out_;
  std::string buffer_;
  bool binary_;
  int pid_;
  std::uint64_t bytes_ = 0;
};

std::uint64_t write_compact(const std::filesystem::path& path,
                            const CompactProgram& program, int pid) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot create trace file '" + path.string() + "'");
  std::string buffer(kCompactMagic, sizeof(kCompactMagic));
  buffer.push_back(static_cast<char>(kCompactVersion));
  put_varint(buffer, static_cast<std::uint64_t>(pid));
  put_varint(buffer, program.size());
  std::string line;
  for (const LoopBlock& block : program) {
    put_varint(buffer, block.count);
    put_varint(buffer, block.body.size());
    // Reuse the textual action encoding per entry: simple and debuggable
    // (the count dominates the savings anyway).
    for (const Action& a : block.body) {
      line.clear();
      append_line(line, a);
      put_varint(buffer, line.size());
      buffer += line;
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  out.close();
  if (!out) throw IoError("cannot write trace file '" + path.string() + "'");
  return buffer.size();
}

/// The pid every action of the cursor's stream carries; -1 when they differ
/// or there is none.
int single_pid(ActionSource& source) {
  const auto first = source.next();
  if (!first) return -1;
  while (const auto a = source.next())
    if (a->pid != first->pid) return -1;
  return first->pid;
}

}  // namespace

std::string_view format_name(TraceFormat format) {
  return kFormatNames[static_cast<std::size_t>(format)];
}

std::uint64_t write_trace(const std::filesystem::path& path,
                          const std::vector<Action>& actions, int pid,
                          TraceFormat format) {
  if (format == TraceFormat::compact)
    return write_compact(path, compact_actions(actions), pid);
  RecordWriter writer(path, format, pid);
  for (const Action& a : actions) writer.write(a);
  return writer.close();
}

std::uint64_t write_trace(const std::filesystem::path& path,
                          const CompactProgram& program, int pid,
                          TraceFormat format) {
  if (format == TraceFormat::compact)
    return write_compact(path, program, pid);
  RecordWriter writer(path, format, pid);
  for (const LoopBlock& block : program)
    for (std::uint32_t r = 0; r < block.count; ++r)
      for (const Action& a : block.body) writer.write(a);
  return writer.close();
}

std::uint64_t convert_trace(const TraceSet& set, int pid,
                            const std::filesystem::path& path,
                            TraceFormat format) {
  if (format == TraceFormat::compact) {
    const ActionView view = set.actions(pid);
    const std::vector<Action> actions(view.begin(), view.end());
    return write_trace(path, actions,
                       actions.empty() ? 0 : actions.front().pid, format);
  }
  const int file_pid =
      format == TraceFormat::binary ? single_pid(*set.open(pid)) : -1;
  const auto source = set.open(pid);
  RecordWriter writer(path, format, file_pid);
  while (const auto a = source->next()) writer.write(*a);
  return writer.close();
}

std::vector<std::filesystem::path> write_split_traces(
    const std::filesystem::path& dir,
    const std::vector<std::vector<Action>>& per_process) {
  std::filesystem::create_directories(dir);
  std::vector<std::filesystem::path> paths;
  for (std::size_t p = 0; p < per_process.size(); ++p) {
    paths.push_back(dir / ("SG_process" + std::to_string(p) + ".trace"));
    write_trace(paths.back(), per_process[p], static_cast<int>(p),
                TraceFormat::text);
  }
  return paths;
}

void write_merged_trace(const std::filesystem::path& file,
                        const std::vector<std::vector<Action>>& per_process) {
  RecordWriter writer(file, TraceFormat::text, -1);
  for (const auto& actions : per_process)
    for (const Action& a : actions) writer.write(a);
  writer.close();
}

}  // namespace tir::trace
