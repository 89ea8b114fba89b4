// TraceSet: the collection of per-process action streams a replay consumes.
//
// Three storage layouts (paper §3: "it may be preferable to split the
// time-independent trace in several files, e.g., one file per process"):
//   - one file per process (text, binary or compact; auto-detected),
//   - one merged file holding every process's actions,
//   - in-memory vectors (tests, programmatic workloads).
//
// Decoded actions are held packed, 16 bytes each (packed.hpp), and come
// back out as Action values through cursors and actions() views.
//
// Immutability contract: a TraceSet is a cheap handle onto shared, decoded
// trace storage. Copying shares the storage; every file is decoded at most
// once per storage, no matter how many scenarios, copies or threads replay
// it (a what-if sweep pays one parse for N replays). All const member
// functions are safe to call concurrently — first-use decoding is
// synchronised internally — so one TraceSet can feed many sweep workers.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/action.hpp"
#include "trace/packed.hpp"

namespace tir::trace {

/// Pull interface over one process's actions.
class ActionSource {
 public:
  virtual ~ActionSource() = default;
  virtual std::optional<Action> next() = 0;
};

/// Aggregate statistics over a trace (Table 3 reporting).
struct TraceStats {
  std::uint64_t actions = 0;
  std::uint64_t computes = 0;
  std::uint64_t p2p_messages = 0;   // send/isend
  std::uint64_t collectives = 0;    // bcast/reduce/allreduce/barrier
  double total_flops = 0.0;
  double total_bytes_sent = 0.0;    // p2p payload

  void account(const Action& action);
  TraceStats& operator+=(const TraceStats& other);
};

/// How file-backed traces react to corrupt input.
enum class DecodeMode {
  strict,   ///< any decode error throws tir::ParseError (the default)
  lenient,  ///< salvage: keep each file's longest clean prefix, record the
            ///< error, and report a coverage() below 1.0
};

/// Per-file salvage outcome (lenient mode; strict files are always clean).
struct SalvageInfo {
  bool complete = true;
  std::string error;
  std::uint64_t bytes_consumed = 0;
  std::uint64_t bytes_total = 0;
};

/// How file-backed traces are decoded for consumption.
enum class DecodePolicy {
  materialise,  ///< decode each file into in-memory action vectors
  stream,       ///< build per-file offset indexes; open() yields cursors
                ///< that re-read the file in bounded memory
  automatic,    ///< stream iff the set is large (disk bytes or expanded
                ///< compact actions above a threshold); the default
};

/// Automatic-policy thresholds: a set streams when its on-disk footprint or
/// its compact-expanded action count (read from container framing alone)
/// exceeds these.
constexpr std::uint64_t kAutoStreamBytes = 64ull << 20;   // 64 MiB on disk
constexpr std::uint64_t kAutoStreamActions = 4'000'000;   // expanded actions

/// Largest compact expansion a materialising pass accepts, in bytes of
/// decoded Actions (sizeof(Action) each, 26,843,545 actions; packed, they
/// take about 410 MiB): a 38-byte file can declare billions of actions, so
/// the pass checks the running expanded count block by block and throws
/// tir::Error before expanding past this, in strict and lenient mode alike.
constexpr std::uint64_t kMaterialiseBudgetBytes = 1ull << 30;  // 1 GiB

/// Expands trace arguments into one file per process, in pid order: a
/// directory stands for its SG_process<i>.trace files (i = 0, 1, ... up to
/// the first missing one), any other path for itself. Unlike a shell glob,
/// which sorts SG_process10 before SG_process2, this keeps the positional
/// pid mapping. A directory without SG_process0.trace throws tir::IoError
/// naming it.
std::vector<std::filesystem::path> process_trace_files(
    const std::vector<std::filesystem::path>& paths);

class TraceSet {
 public:
  /// One file per process; index in the vector = process id. Each file may
  /// be text, binary or compact (detected by magic).
  static TraceSet per_process_files(std::vector<std::filesystem::path> files,
                                    DecodeMode mode = DecodeMode::strict,
                                    DecodePolicy policy =
                                        DecodePolicy::automatic);

  /// A single merged file; `nprocs` process streams are filtered out of it.
  static TraceSet merged_file(std::filesystem::path file, int nprocs,
                              DecodeMode mode = DecodeMode::strict,
                              DecodePolicy policy = DecodePolicy::automatic);

  /// In-memory actions (index = process id).
  static TraceSet in_memory(std::vector<std::vector<Action>> actions);

  /// An empty set (nprocs() == 0) — a placeholder for ScenarioSpec fields
  /// before assignment; replaying it is an error.
  TraceSet();

  TraceSet(const TraceSet&) = default;
  TraceSet& operator=(const TraceSet&) = default;
  TraceSet(TraceSet&&) = default;
  TraceSet& operator=(TraceSet&&) = default;
  ~TraceSet();

  int nprocs() const;

  /// Opens a cursor over process `pid`'s actions, starting from the
  /// beginning. Under the materialise policy the cursor unpacks the cached
  /// decoded records (cheap after the first call per file); when the set
  /// streams, it re-reads the file from the offset index in bounded memory.
  /// Either way the yielded sequence is element-identical. Thread-safe.
  std::unique_ptr<ActionSource> open(int pid) const;

  /// Random-access view of process `pid`'s decoded actions (decodes on
  /// first use). The view stays valid for the storage's lifetime.
  /// Thread-safe. NOTE: this *materialises* the stream even when the set's
  /// policy is streaming — random-access consumers (truncate_consistent,
  /// compaction) need the records, and a compact file expanding past
  /// kMaterialiseBudgetBytes throws tir::Error here. Bounded-memory
  /// consumers must use open()/stats()/action_count() instead.
  ActionView actions(int pid) const;

  /// Statistics over every stream. Streaming sets answer from the offset
  /// indexes (no action is revisited, O(files) after the index is built);
  /// materialised sets walk open() cursors. Thread-safe.
  TraceStats stats() const;

  /// Number of actions in process `pid`'s stream. Index-backed (O(1)) for
  /// streaming sets; materialises the stream otherwise. Thread-safe.
  std::uint64_t action_count(int pid) const;

  /// Total on-disk size in bytes (0 for in-memory traces).
  std::uint64_t disk_bytes() const;

  /// Number of file-decode passes performed so far by this storage. Stays
  /// bounded by the file count forever — the hook sweep tests use to prove
  /// traces are parsed once regardless of scenario count. Streaming sets
  /// count index builds separately (index_count), not here.
  std::uint64_t decode_count() const;

  // -- streaming decode ----------------------------------------------------

  /// The policy this set was created with.
  DecodePolicy decode_policy() const;

  /// True when the set actually streams: policy resolved to stream (or
  /// automatic crossed the size threshold) and every file indexed cleanly.
  /// A file the indexer cannot stream (e.g. a merged compact trace) makes
  /// the whole set fall back to materialising. First call decides and
  /// builds the indexes; thread-safe.
  bool streaming() const;

  /// Index builds performed so far (the streaming analogue of
  /// decode_count; bounded by the file count).
  std::uint64_t index_count() const;

  /// Resident heap footprint: offset indexes for a streaming set; for a
  /// materialised one, its packed records (16 bytes each) plus their side
  /// tables (forces the decode). What a cache entry holding this set keeps
  /// alive.
  std::uint64_t resident_bytes() const;

  // -- salvage reporting (lenient mode) ------------------------------------

  /// Fraction of on-disk trace bytes that decoded cleanly, in [0, 1].
  /// Forces a decode of every file. 1.0 for strict and in-memory sets.
  double coverage() const;

  /// Salvage outcome per trace file (decodes on first use). Empty for
  /// in-memory sets; all-complete under strict mode.
  std::vector<SalvageInfo> salvage_report() const;

 private:
  struct Storage;
  std::shared_ptr<Storage> storage_;
};

}  // namespace tir::trace
