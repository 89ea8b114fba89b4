// Acquisition orchestration (paper §4, Figure 2): instrument, execute,
// extract, gather — under the four acquisition modes of §4.2:
//
//   Regular    (R)        one process per node of the target-like cluster;
//   Folding    (F-x)      x processes per node, using nprocs/x nodes;
//   Scattering (S-2)      nodes drawn from two clusters behind a WAN;
//   Scattering+Folding (SF-(2,v)) both at once.
//
// The instrumented execution happens inside the simulator on a *physical*
// platform model (peak flop rates; the applications express their achieved
// fraction), producing real TAU-format files on disk. Extraction runs for
// real and is timed; gathering is simulated on the acquisition platform
// with a K-nomial tree.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "acquisition/instrumented.hpp"
#include "acquisition/tau2ti.hpp"
#include "apps/app.hpp"

namespace tir::acq {

enum class Mode { regular, folding, scattering, scatter_folding };

/// "R", "F-8", "S-2", "SF-(2,4)" — the paper's Table 2 labels.
std::string mode_label(Mode mode, int folding);

struct AcquisitionSpec {
  apps::AppDesc app;
  Mode mode = Mode::regular;
  int folding = 1;  ///< processes per node (modes F and SF)
  std::filesystem::path workdir;
  InstrumentOptions instrument;
  ExtractOptions extract;
  int gather_arity = 4;  ///< the paper's experiments use a 4-nomial tree

  /// Per-node extraction throughput (TAU bytes/s) used to normalise the
  /// measured extraction time to the modeled cluster: the paper's parallel
  /// tau2simgrid processed each node's traces locally on 2007-era Opterons
  /// at a few MB/s, whereas this machine's extractor is far faster. Set to
  /// 0 to report raw wall-clock / nodes instead.
  double extraction_node_throughput = 5e6;
  /// Also run the uninstrumented application to split "Application" from
  /// "Tracing overhead" in the Figure 7 breakdown; without it both read 0.
  bool run_uninstrumented_baseline = true;
};

struct AcquisitionReport {
  std::string mode;
  int nprocs = 0;
  int nodes_used = 0;

  // Figure 7 components (seconds).
  double app_time = 0.0;           ///< uninstrumented execution (simulated)
  double instrumented_time = 0.0;  ///< instrumented execution (simulated)
  /// instrumented - app; 0 when the uninstrumented baseline did not run.
  double tracing_overhead = 0.0;
  double instrumented_wall = 0.0;  ///< real time of the instrumented run
  double extraction_wall = 0.0;    ///< real single-machine tau2ti time
  double extraction_time = 0.0;    ///< normalised to one file per node
  double gather_time = 0.0;        ///< simulated K-nomial gather

  // Table 3 quantities.
  std::uint64_t tau_bytes = 0;
  std::uint64_t ti_bytes = 0;
  std::uint64_t actions = 0;

  std::vector<std::filesystem::path> ti_files;

  double total_acquisition_time() const {
    return instrumented_time + extraction_time + gather_time;
  }
};

/// Runs the full acquisition pipeline. Leaves the TAU files under
/// <workdir>/tau and the time-independent traces under <workdir>/ti.
AcquisitionReport run_acquisition(const AcquisitionSpec& spec);

/// Builds the acquisition platform and the rank->host mapping for a mode
/// (exposed for tests and the gather simulation).
struct AcquisitionPlatform {
  plat::Platform platform;
  std::vector<int> rank_hosts;   ///< one entry per rank
  std::vector<int> node_hosts;   ///< one entry per distinct node used
};
AcquisitionPlatform build_acquisition_platform(Mode mode, int nprocs,
                                               int folding);

}  // namespace tir::acq
