// tau2ti — the paper's tau2simgrid (§4.3): extracts time-independent
// traces from TAU trace/event files through the TFR callback interface.
//
// Per process, a small state machine tracks the current MPI call, the
// PAPI_FP_OPS counter, and the pending-Irecv list:
//   - the counter delta between the previous call's exit trigger and the
//     current call's entry trigger becomes a `compute` action;
//   - flops burned *inside* MPI calls are ignored ("mainly due to buffer
//     allocation costs ... accounted for by the network model"), except for
//     reductions, where the in-call delta is the vcomp volume;
//   - SendMessage records become send/Isend actions;
//   - a RecvMessage inside MPI_Recv becomes a recv action, while one
//     inside MPI_Wait back-patches the oldest unresolved Irecv placeholder
//     (the paper's "lookup techniques").
//
// A `comm_size` action is prepended to every per-process trace, as §3
// requires before any collective operation.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "trace/action.hpp"

namespace tir::acq {

struct ExtractOptions {
  bool binary_output = false;   ///< write the binary TI format instead of text
  /// When false (default, the paper's Figure 1 style) blocking recv lines
  /// omit the payload volume — the matched send carries it. Irecv lines
  /// always keep the size declared at post time.
  bool recv_volumes = false;
};

struct ExtractResult {
  std::vector<std::filesystem::path> ti_files;
  std::uint64_t tau_records = 0;
  std::uint64_t tau_bytes = 0;   ///< total size of .trc + .edf inputs
  std::uint64_t ti_bytes = 0;
  std::uint64_t actions = 0;
  double wall_seconds = 0.0;     ///< measured single-machine extraction time
};

/// Extracts processes 0..nprocs-1 from `tau_dir` (tautrace.<p>.0.0.trc +
/// events.<p>.edf) into SG_process<p>.trace files under `out_dir`.
ExtractResult tau2ti(const std::filesystem::path& tau_dir, int nprocs,
                     const std::filesystem::path& out_dir,
                     const ExtractOptions& options = {});

/// Extraction of a single process into an in-memory action list (tests).
std::vector<trace::Action> extract_process(const std::filesystem::path& trc,
                                           const std::filesystem::path& edf,
                                           int pid, int nprocs,
                                           const ExtractOptions& options = {});

}  // namespace tir::acq
