// Dimensioning a cluster that is not at one's disposal — the paper's
// motivating use case.
//
// Workflow:
//   1. Acquire a time-independent trace of NPB LU class A on 16 processes
//      using only 4 physical nodes (Folding mode F-4): the trace does not
//      depend on the acquisition scenario.
//   2. Calibrate the target platform's flop rate from a small instrumented
//      instance (the §5 procedure, 5 repetitions).
//   3. Replay the trace on the calibrated 16-node target platform and
//      report the predicted execution time — and compare it against a
//      direct (high-fidelity) simulation of the application standing in
//      for the "actual" run.
//
// Run:  ./lu_dimensioning [workdir]
#include <filesystem>
#include <iostream>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "platform/cluster.hpp"
#include "replay/calibration.hpp"
#include "replay/scenario.hpp"
#include "support/stats.hpp"
#include "support/units.hpp"

using namespace tir;

int main(int argc, char** argv) {
  const std::filesystem::path workdir =
      argc > 1 ? argv[1]
               : std::filesystem::temp_directory_path() / "tir_dimensioning";
  std::filesystem::create_directories(workdir);

  apps::LuConfig lu;
  lu.cls = apps::NpbClass::A;
  lu.nprocs = 16;
  lu.iteration_scale = 0.1;  // 25 of the 250 iterations, for a quick demo

  // --- 1. Acquire with folding: 16 ranks on 4 nodes ----------------------
  std::cout << "[1/3] Acquiring LU class A / 16 processes in mode F-4 "
               "(4 nodes)...\n";
  acq::AcquisitionSpec spec;
  spec.app = apps::make_lu_app(lu);
  spec.mode = acq::Mode::folding;
  spec.folding = 4;
  spec.workdir = workdir / "acq";
  const auto report = acq::run_acquisition(spec);
  std::cout << "      instrumented execution: "
            << units::format_duration(report.instrumented_time)
            << " on " << report.nodes_used << " nodes; trace: "
            << units::format_bytes(static_cast<double>(report.ti_bytes))
            << " (" << report.actions << " actions)\n";

  // --- 2. Calibrate the flop rate -----------------------------------------
  std::cout << "[2/3] Calibrating the target flop rate (5 x LU class W on 4 "
               "processes)...\n";
  apps::LuConfig small = lu;
  small.cls = apps::NpbClass::W;
  small.nprocs = 4;
  small.iteration_scale = 0.02;
  replay::CalibrationSpec cal;
  cal.small_instance = apps::make_lu_app(small);
  cal.workdir = workdir / "cal";
  const auto calibration = replay::calibrate_flop_rate(cal);
  std::cout << "      calibrated rate: "
            << units::format_flops_rate(calibration.flop_rate)
            << " (paper's Figure 5 instantiates 1.17 Gflop/s)\n";

  // --- 3. Replay on the calibrated 16-node target -------------------------
  std::cout << "[3/3] Replaying on the calibrated 16-node target...\n";
  plat::Platform target;
  auto target_spec = plat::bordereau_spec(16);
  target_spec.power = calibration.flop_rate;
  const auto hosts = plat::build_cluster(target, target_spec);
  replay::ScenarioSpec scenario;
  scenario.platform = replay::share_platform(target);
  scenario.process_hosts = hosts;
  scenario.traces = trace::TraceSet::per_process_files(report.ti_files);
  const double predicted = replay::run_scenario(scenario).simulated_time;

  // Ground truth: the high-fidelity direct simulation on 16 real nodes.
  const auto ap = acq::build_acquisition_platform(acq::Mode::regular, 16, 1);
  sim::Engine engine(ap.platform);
  mpi::World world(engine, ap.rank_hosts);
  const auto app = apps::make_lu_app(lu);
  world.launch([&app](mpi::Rank& r) -> sim::Co<void> { co_await app.body(r); });
  engine.run();
  const double actual = engine.now();

  std::cout << "\n  predicted (trace replay): "
            << units::format_duration(predicted)
            << "\n  actual (direct run):      "
            << units::format_duration(actual)
            << "\n  relative error:           "
            << 100.0 * tir::relative_error(predicted, actual) << " %\n";
  return 0;
}
