// Synthetic NPB-style trace generation.
//
// Scale testing needs traces far past what the in-process acquisition
// skeletons can emit in reasonable time: the bounded-memory replay bench
// wants >= 10^8 actions. Iterative NPB kernels are ideal generators — the
// per-iteration action block is fixed, so the whole trace is two compact
// loop blocks per rank (a comm_size prologue and the iteration body), and a
// multi-gigabyte logical trace serialises to a few hundred bytes of TIRC.
// Text/binary output streams the expansion through write_trace, so
// generation itself is bounded-memory at any size.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string_view>
#include <vector>

#include "trace/compact.hpp"

namespace tir::trace {

/// Communication structure of the generated kernel.
enum class SyntheticPattern {
  ft,  ///< FT-style: compute + alltoall per iteration (collective-bound)
  cg,  ///< CG-style: compute + pairwise irecv/isend/waitall + allreduce per
       ///< iteration (sparse p2p exchange; requires an even rank count)
};

/// Parses "ft" / "cg"; throws tir::ParseError on anything else.
SyntheticPattern parse_synthetic_pattern(std::string_view text);

struct SyntheticSpec {
  SyntheticPattern pattern = SyntheticPattern::cg;
  int nprocs = 8;
  std::uint64_t iterations = 1000;  ///< loop count (fits a compact block)
  double compute_flops = 1e6;       ///< per-iteration compute volume
  double message_bytes = 64 * 1024; ///< p2p / collective payload
};

/// Actions one iteration of the pattern emits per rank.
std::uint64_t synthetic_actions_per_iteration(SyntheticPattern pattern);

/// Total actions the spec expands to, across all ranks (prologue included).
std::uint64_t synthetic_actions(const SyntheticSpec& spec);

/// Rank `pid`'s trace as a compact program (two blocks).
CompactProgram synthetic_program(const SyntheticSpec& spec, int pid);

/// Writes one trace file per rank under `dir` (created if missing) using
/// the canonical SG_process<i>.trace names; `codec` is "compact" (default —
/// O(1) file size regardless of iterations), "text" or "binary" (streamed
/// out block-by-block). Returns the created paths in pid order.
std::vector<std::filesystem::path> write_synthetic_traces(
    const std::filesystem::path& dir, const SyntheticSpec& spec,
    std::string_view codec = "compact");

}  // namespace tir::trace
