// On-disk trace formats and the one trace writer.
//
// A trace file holds one of three encodings of an action stream, and its
// first bytes name which — the file name never does:
//
//   text     one action per line (action.hpp), no magic. The canonical
//            layout is one file per process, SG_process<i>.trace, as the
//            paper recommends for large traces (§3); a merged file holding
//            every process's lines (its Figure 1, right) reads as well.
//   binary   the paper's future work (§7: "reduce the size of the traces,
//            e.g., using a binary format"):
//              magic "TIRB" | version u8 | default_pid varint+1
//                                          (0 = per-record pids)
//              records: tag u8 | [pid varint] | per-type fields
//            The tag packs the ActionType (low 4 bits) and two flags marking
//            each volume stored as a raw 8-byte double rather than a LEB128
//            varint (integral values, the common case: byte and flop
//            counts). A compute record costs ~5 bytes against ~20 in text.
//   compact  a loop program (compact.hpp) in a TIRC container:
//              magic "TIRC" | version u8 | pid varint | block count varint
//              per block: repeat varint | body length varint | body
//              entries, each a varint byte length followed by the action's
//              text line
//
// The trace pass (stream.hpp) is the only reader: it sniffs the magic once
// per file. The functions below are the only writers.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string_view>
#include <vector>

#include "trace/action.hpp"
#include "trace/compact.hpp"
#include "trace/trace_set.hpp"

namespace tir::trace {

enum class TraceFormat { text, binary, compact };

/// "text", "binary" or "compact".
std::string_view format_name(TraceFormat format);

constexpr char kBinaryMagic[4] = {'T', 'I', 'R', 'B'};
constexpr std::uint8_t kBinaryVersion = 1;
/// Binary tag flags: the volume (volume2) is stored as a raw double.
constexpr std::uint8_t kVolumeIsDouble = 0x10;
constexpr std::uint8_t kVolume2IsDouble = 0x20;

constexpr char kCompactMagic[4] = {'T', 'I', 'R', 'C'};
constexpr std::uint8_t kCompactVersion = 1;

/// Writes `actions` to `path` as `format`; returns the bytes written.
/// `pid` >= 0 names the file's one process: binary factors it out of every
/// record and compact stores it in its header. -1 keeps per-record binary
/// pids (merged files). Compact output loop-compresses the actions
/// (compact_actions); text and binary stream them through a 1 MiB buffer.
std::uint64_t write_trace(const std::filesystem::path& path,
                          const std::vector<Action>& actions, int pid,
                          TraceFormat format);

/// The same for a loop program: compact stores its blocks as they are, text
/// and binary stream its expansion record by record — memory stays at the
/// program's size however many actions it expands to.
std::uint64_t write_trace(const std::filesystem::path& path,
                          const CompactProgram& program, int pid,
                          TraceFormat format);

/// Re-encodes process `pid`'s stream of `set` into `path` as `format` (the
/// conversion behind tir-traceinfo). Text and binary stream from an open()
/// cursor, so a streaming set is never materialised; binary factors the pid
/// out when every action carries the same one. Compact materialises through
/// actions() — so a compact input expanding past kMaterialiseBudgetBytes
/// throws — and stores the first action's pid (0 for an empty stream).
/// Input errors surface before `path` is created.
std::uint64_t convert_trace(const TraceSet& set, int pid,
                            const std::filesystem::path& path,
                            TraceFormat format);

/// Writes one text file per process under `dir` using the canonical
/// SG_process<i>.trace names. Returns the created paths.
std::vector<std::filesystem::path> write_split_traces(
    const std::filesystem::path& dir,
    const std::vector<std::vector<Action>>& per_process);

/// Writes everything into one merged text file (process order preserved).
void write_merged_trace(const std::filesystem::path& file,
                        const std::vector<std::vector<Action>>& per_process);

}  // namespace tir::trace
