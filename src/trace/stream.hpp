// Streaming decode: per-file skip indexes and cursor-backed ActionSources.
//
// At NPB class D/E sizes a trace stops fitting in RAM, so TraceSet grows a
// second decode path: one cheap validating pass per file builds a
// StreamIndex — per-pid byte-offset segments for text and binary files,
// per-block offsets for compact ("TIRC") files, plus the action counts
// and aggregate statistics every consumer (digest, stats, coverage) needs
// up front — and replay then pulls actions through cursors that re-read the
// file from those offsets instead of materialised records. Peak memory is
// the index plus one cursor's working set (a window of about 256 KiB of a
// mapped text file, whose pages behind it are dropped; a binary record; or
// one compact block body), independent of trace length.
//
// Fidelity contract: this pass is the only trace reader — TraceSet, and
// through it every tool, bench and example, decodes files here. A
// materialising set runs the same pass and packs each distributed action
// (packed.hpp) as it goes, so both memory shapes share their errors (types and
// messages), lenient salvage points and merged wild-pid rule by
// construction. What the cursors must add is an action sequence
// element-identical to TraceSet::actions(pid); the stream and CodecFuzz
// batteries (tests/stream_trace_test.cpp, tests/codec_fuzz_test.cpp) hold
// them to it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "support/file_identity.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"

namespace tir::trace {

/// One file's skip index. Text and binary files index as pid *segments*
/// (maximal runs of one process's records, so a merged file streams per pid
/// without scanning other processes' bytes); compact files index as loop
/// blocks (the cursor re-parses one body at a time and replays its repeat
/// count from memory).
struct StreamIndex {
  struct Segment {
    int pid = -1;  ///< -1 in split layout (actions kept verbatim)
    std::uint64_t offset = 0;  ///< byte offset of the run's first record
    std::uint64_t count = 0;   ///< actions in the run
  };

  struct Block {
    std::uint64_t offset = 0;        ///< byte offset of the block header
    std::uint32_t repeat = 0;        ///< loop count
    std::uint64_t body_actions = 0;  ///< actions per repetition
  };

  TraceFormat format = TraceFormat::text;  ///< what the sniff found
  bool fallback = false;  ///< not streamable: the caller must materialise
  std::filesystem::path path;
  /// What the pass's own fstat saw of the file it read. A cursor opening a
  /// file whose identity differs throws tir::IoError instead of reading new
  /// bytes through these offsets.
  FileIdentity identity;

  std::vector<Segment> segments;  ///< text / binary
  std::vector<Block> blocks;      ///< compact

  /// Actions the indexed (clean, distributed) part of the file holds; for
  /// compact files this is the *expanded* count.
  std::uint64_t total_actions = 0;

  /// Aggregate statistics over exactly those actions. Compact bodies are
  /// accounted once and scaled by their repeat count, so this is O(stored
  /// records) even for a 10^8-action trace.
  TraceStats stats;

  /// The file's salvage outcome (always complete when a strict pass
  /// returns).
  SalvageInfo salvage;

  /// Actions belonging to `pid` (merged layout: sum over its segments).
  std::uint64_t action_count(int pid) const;

  /// Heap footprint of the index itself — what a cache entry holding a
  /// streamed TraceSet keeps resident.
  std::uint64_t resident_bytes() const;
};

/// Maximum segments indexed per file. A merged trace written per-process
/// (the only layout the writers produce) needs nprocs segments; a
/// pathologically interleaved file would need one per action, so past this
/// cap the builder gives up (fallback) and the set materialises
/// instead, through a collecting pass that ignores the cap — the index must
/// never grow with trace length.
constexpr std::size_t kMaxStreamSegments = 65536;

/// Builds the index in one validating pass. `merged_nprocs < 0` indexes a
/// split-layout file (per-record pids kept verbatim, no range checks);
/// `merged_nprocs >= 0` applies merged semantics: actions split into
/// per-pid segments and a pid outside [0, nprocs) is corruption — strict
/// mode throws once the whole file has parsed cleanly (a parse error
/// anywhere outranks it), lenient mode keeps the actions before it and
/// caps bytes_consumed at its record (for compact files, at its block).
///
/// With `actions` non-null the pass materialises instead. `*actions` holds
/// one empty packed store per pid (merged layout: store p owned by pid p)
/// or one in split layout (owned by the file's process), and the pass packs
/// every distributed action into its store as it parses, ignoring
/// kMaxStreamSegments; merged compact files, which cannot stream, expand
/// here. The returned index then carries the salvage outcome and counts but
/// no segments. A compact file whose expansion passes
/// kMaterialiseBudgetBytes throws tir::Error in either mode. Without
/// `actions`, merged compact files come back as fallback.
///
/// The pass opens the file once, records its identity from fstat, and
/// sniffs its format from the first bytes (trace_format.hpp); every format
/// is then read through that one descriptor (text through a mapping of it).
StreamIndex build_stream_index(const std::filesystem::path& path,
                               DecodeMode mode, int merged_nprocs,
                               std::vector<PackedActions>* actions = nullptr);

/// Expanded action count of a compact file, read from its block headers
/// alone (body entries are skipped, not parsed). The automatic decode
/// policy uses it to spot a small file that expands into a huge trace.
/// Returns 0 on any error (not compact, truncated, unreadable).
std::uint64_t compact_expanded_hint(const std::filesystem::path& path) noexcept;

/// Opens a bounded-memory cursor over the indexed file. `pid_filter >= 0`
/// walks only that pid's segments (merged layout); -1 walks everything
/// (split layout). `owner` is pinned for the cursor's lifetime (the
/// TraceSet storage). Precondition: !index->fallback. Throws tir::IoError
/// naming the file when it cannot be opened or its fstat identity is no
/// longer index->identity (rewritten or replaced since the pass).
std::unique_ptr<ActionSource> open_stream(
    std::shared_ptr<const StreamIndex> index, int pid_filter,
    std::shared_ptr<void> owner);

}  // namespace tir::trace
