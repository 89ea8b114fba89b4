// The time-independent trace model (paper §3, Table 1).
//
// An action records *what* a process did and *how much* of it — never how
// long it took: a volume in flops for CPU bursts, in bytes for
// communications. One trace line per action:
//
//   p0 compute 1e6
//   p0 send p1 1e6
//   p3 recv p2
//   p1 reduce 4096 1e5
//   p2 comm_size 8
//
// Recv lines may omit the volume (the paper's Figure 1 does); the matched
// send carries it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tir::trace {

enum class ActionType {
  compute,    ///< CPU burst: volume = flops
  send,       ///< MPI_Send: partner = dst, volume = bytes
  isend,      ///< MPI_Isend
  recv,       ///< MPI_Recv: partner = src, volume = bytes (optional)
  irecv,      ///< MPI_Irecv
  bcast,      ///< MPI_Broadcast: volume = bytes
  reduce,     ///< MPI_Reduce: volume = vcomm bytes, volume2 = vcomp flops
  allreduce,  ///< MPI_Allreduce: volume = vcomm, volume2 = vcomp
  barrier,    ///< MPI_Barrier
  comm_size,  ///< declares the number of processes (precedes collectives)
  wait,       ///< MPI_Wait: completes the oldest pending Isend/Irecv

  // Extensions beyond the paper's Table 1, following the trace format's
  // later evolution inside SimGrid (gather/allGather/allToAll/waitAll):
  gather,     ///< MPI_Gather: volume = bytes contributed per process
  allgather,  ///< MPI_Allgather: volume = bytes contributed per process
  alltoall,   ///< MPI_Alltoall: volume = bytes sent to each peer
  waitall,    ///< MPI_Waitall: completes every pending request
};

/// Number of ActionType values (they run 0 .. kActionTypes - 1).
constexpr std::size_t kActionTypes =
    static_cast<std::size_t>(ActionType::waitall) + 1;

/// Trace keyword for a type ("compute", "Isend", "allReduce", ...).
std::string_view action_keyword(ActionType type);

/// Inverse of action_keyword; case-insensitive. Throws tir::ParseError.
ActionType action_type_from_keyword(std::string_view keyword);

struct Action {
  int pid = -1;           ///< process that performs the action
  ActionType type = ActionType::compute;
  int partner = -1;       ///< dst (send/isend) or src (recv/irecv)
  double volume = 0.0;    ///< flops or bytes (vcomm for reductions)
  double volume2 = 0.0;   ///< vcomp for reduce/allreduce
  int comm_size = 0;      ///< for comm_size actions

  bool operator==(const Action&) const = default;
};

/// Appends the canonical trace line (no trailing newline) to `out`.
void append_line(std::string& out, const Action& action);

/// Renders the canonical trace line (no trailing newline).
std::string to_line(const Action& action);

/// Parses one trace line. Empty and '#'-comment lines are not accepted
/// here — the caller (reader) filters them. Throws tir::ParseError.
Action parse_line(std::string_view line);

}  // namespace tir::trace
