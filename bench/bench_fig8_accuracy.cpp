// Figure 8: accuracy of the time-independent trace replay — simulated vs
// actual execution time of LU classes B and C on 8..64 bordereau nodes.
//
// "Actual" is the direct high-fidelity simulation of the application on
// the physical platform (per-phase variable flop rates standing in for the
// real cluster, per DESIGN.md's substitution table). "Simulated" is the
// trace replay on a platform calibrated with the §5 procedure (one
// small-instance flop rate for everything — the very approximation the
// paper blames for its up-to-51.5% local error).
//
// Shapes to reproduce: the replay follows the actual trend; the local
// relative error is visible and not constant across process counts.
#include <cstdio>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "bench_util.hpp"
#include "platform/cluster.hpp"
#include "replay/calibration.hpp"
#include "replay/scenario.hpp"
#include "support/stats.hpp"
#include "support/units.hpp"

using namespace tir;

int main() {
  const double scale = bench::scale();
  bench::banner("Figure 8 — simulated vs actual execution time",
                "LU classes B and C on bordereau; iteration fraction " +
                    std::to_string(scale));

  // Calibrate once, exactly as §5 prescribes: small instance, five runs.
  const auto cal_dir = bench::fresh_workdir("fig8_cal");
  bench::WorkdirGuard cal_guard(cal_dir);
  apps::LuConfig small;
  small.cls = apps::NpbClass::W;
  small.nprocs = 4;
  small.iteration_scale = 0.02;
  replay::CalibrationSpec cal;
  cal.small_instance = apps::make_lu_app(small);
  cal.repetitions = 5;
  cal.workdir = cal_dir;
  cal.instrument.counter_jitter = 1e-3;
  const auto calibration = replay::calibrate_flop_rate(cal);
  std::printf("calibrated flop rate: %s (paper's Figure 5: 1.17 Gflop/s)\n\n",
              units::format_flops_rate(calibration.flop_rate).c_str());

  std::printf("%-6s %5s | %12s %12s | %9s\n", "class", "procs", "actual (s)",
              "simulated(s)", "error %");
  for (const auto cls : {apps::NpbClass::B, apps::NpbClass::C}) {
    for (const int procs : {8, 16, 32, 64}) {
      apps::LuConfig cfg;
      cfg.cls = cls;
      cfg.nprocs = procs;
      cfg.iteration_scale = scale;
      const auto app = apps::make_lu_app(cfg);

      // "Actual": direct execution on the physical platform.
      const auto ap =
          acq::build_acquisition_platform(acq::Mode::regular, procs, 1);
      double actual = 0;
      {
        sim::Engine engine(ap.platform);
        mpi::World world(engine, ap.rank_hosts);
        world.launch(
            [&app](mpi::Rank& r) -> sim::Co<void> { co_await app.body(r); });
        engine.run();
        actual = engine.now();
      }

      // Acquire the trace (folding keeps this bench light), then replay on
      // the calibrated target.
      const auto workdir = bench::fresh_workdir(
          "fig8_" + apps::to_string(cls) + "_" + std::to_string(procs));
      bench::WorkdirGuard guard(workdir);
      acq::AcquisitionSpec spec;
      spec.app = app;
      spec.mode = procs > 8 ? acq::Mode::folding : acq::Mode::regular;
      spec.folding = procs > 8 ? 4 : 1;
      spec.workdir = workdir;
      spec.run_uninstrumented_baseline = false;
      const auto r = acq::run_acquisition(spec);

      plat::Platform target;
      auto target_spec = plat::bordereau_spec(procs);
      target_spec.power = calibration.flop_rate;
      const auto hosts = plat::build_cluster(target, target_spec);
      replay::ScenarioSpec scenario;
      scenario.platform = replay::share_platform(target);
      scenario.process_hosts = hosts;
      scenario.traces = trace::TraceSet::per_process_files(r.ti_files);
      const double simulated = replay::run_scenario(scenario).simulated_time;

      std::printf("%-6s %5d | %12.2f %12.2f | %8.1f%%\n",
                  apps::to_string(cls).c_str(), procs, actual, simulated,
                  100.0 * tir::relative_error(simulated, actual));
      std::fflush(stdout);
    }
  }
  std::printf("\nPaper reference: correct trend, local relative error up to "
              "51.5%% (B/64),\nblamed on the single calibrated flop rate vs "
              "LU's phase-dependent rates.\n");
  return 0;
}
