// Compact (loop-compressed) trace representation.
//
// Related work the paper cites ([12], PSINS) attacks trace size with
// "compact trace representations": iterative applications emit the same
// action block once per iteration, so a trace is well approximated by a
// small program of (repeat-count, block) pairs. For a deterministic LU
// trace the ~250 iteration bodies collapse into one loop each — orders of
// magnitude beyond what the byte-level binary format achieves.
//
// The encoder is a greedy single-level loop detector: at each position it
// probes candidate periods (distances to the next occurrences of the same
// action) and takes the repetition covering the most actions. Expansion is
// exact — compaction never loses information.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/action.hpp"

namespace tir::trace {

/// One program step: `body` repeated `count` times (count == 1 -> literal).
struct LoopBlock {
  std::uint32_t count = 1;
  std::vector<Action> body;

  bool operator==(const LoopBlock&) const = default;
};

using CompactProgram = std::vector<LoopBlock>;

/// Greedy loop detection. `max_period` bounds the loop-body length probed.
CompactProgram compact_actions(const std::vector<Action>& actions,
                               std::size_t max_period = 4096);

/// Exact inverse of compact_actions.
std::vector<Action> expand(const CompactProgram& program);

/// Number of actions the program expands to.
std::uint64_t expanded_size(const CompactProgram& program);

}  // namespace tir::trace
