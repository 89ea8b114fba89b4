// Timed-trace output and profile derivation (paper §5, Figure 4).
//
// Replay can emit, besides the simulated makespan, a *timed trace* — the
// same actions stamped with simulated start/end times ("adding timers in
// the trace replay tool") — and a per-process *profile* aggregating time
// per action kind, the third output the paper sketches (normally the job
// of TAU/Scalasca-class analysis tools).
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "replay/scenario.hpp"

namespace tir::replay {

/// Writes "p<pid> <start> <end> <original action line>" rows.
void write_timed_trace(const std::vector<TimedAction>& rows,
                       const std::filesystem::path& file);

/// Reads rows written by write_timed_trace.
std::vector<TimedAction> read_timed_trace(const std::filesystem::path& file);

/// Per-process, per-action-kind aggregation of a timed trace.
struct ProfileEntry {
  std::uint64_t count = 0;
  double total_time = 0.0;
};

class Profile {
 public:
  /// Builds the profile from a replay's timed trace.
  static Profile from_timed_trace(const std::vector<TimedAction>& rows);

  int nprocs() const { return static_cast<int>(per_process_.size()); }
  /// Entry for (process, action keyword); zero entry when absent.
  ProfileEntry entry(int pid, const std::string& keyword) const;
  /// Summed over processes.
  ProfileEntry total(const std::string& keyword) const;
  /// Total busy time of one process (sum over kinds).
  double process_time(int pid) const;

  /// Human-readable table (one line per action kind, like a TAU profile).
  std::string render() const;

 private:
  std::vector<std::map<std::string, ProfileEntry>> per_process_;
};

}  // namespace tir::replay
