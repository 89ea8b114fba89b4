// Beyond the paper: replay accuracy across application profiles.
//
// The paper evaluates LU only; this bench acquires and replays four NPB
// kernels plus the 2-D stencil, comparing the replayed prediction against
// the direct (on-line) simulation — the comparison the paper lists as
// future work. Expected shape: EP (pure compute, constant rate) replays
// almost exactly; FT (all-to-all) and CG (latency-bound) stay close
// because communication is modeled, not calibrated; LU's error comes from
// its phase-dependent flop rate (Fig 8's story).
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "apps/npb_extra.hpp"
#include "apps/stencil.hpp"
#include "bench_util.hpp"
#include "platform/cluster.hpp"
#include "replay/calibration.hpp"
#include "replay/scenario.hpp"
#include "support/stats.hpp"

using namespace tir;

namespace {

double direct_run(const apps::AppDesc& app) {
  const auto ap =
      acq::build_acquisition_platform(acq::Mode::regular, app.nprocs, 1);
  sim::Engine engine(ap.platform);
  mpi::World world(engine, ap.rank_hosts);
  world.launch(
      [&app](mpi::Rank& r) -> sim::Co<void> { co_await app.body(r); });
  engine.run();
  return engine.now();
}

}  // namespace

int main() {
  const double scale = bench::scale();
  bench::banner("Beyond the paper — replay accuracy across applications",
                "direct (on-line) simulation vs time-independent replay; "
                "iteration fraction " + std::to_string(scale));

  // One shared calibration, as a user would do it (§5).
  const auto cal_dir = bench::fresh_workdir("extra_cal");
  bench::WorkdirGuard cal_guard(cal_dir);
  apps::LuConfig small;
  small.cls = apps::NpbClass::W;
  small.nprocs = 4;
  small.iteration_scale = 0.02;
  replay::CalibrationSpec cal;
  cal.small_instance = apps::make_lu_app(small);
  cal.workdir = cal_dir;
  const auto calibration = replay::calibrate_flop_rate(cal);

  struct Entry {
    std::string name;
    apps::AppDesc app;
    double app_rate;  ///< the app's true achieved fraction of peak
  };
  std::vector<Entry> entries;

  apps::EpConfig ep;
  ep.cls = apps::NpbClass::A;
  ep.nprocs = 8;
  entries.push_back({"EP.A/8 (compute only)", apps::make_ep_app(ep),
                     ep.efficiency});
  apps::FtConfig ft;
  ft.cls = apps::NpbClass::A;
  ft.nprocs = 8;
  ft.iteration_scale = scale;
  entries.push_back({"FT.A/8 (all-to-all)", apps::make_ft_app(ft),
                     ft.efficiency});
  apps::CgConfig cg;
  cg.cls = apps::NpbClass::B;
  cg.nprocs = 8;
  cg.iteration_scale = scale;
  entries.push_back({"CG.B/8 (latency bound)", apps::make_cg_app(cg),
                     cg.efficiency});
  apps::MgConfig mg;
  mg.cls = apps::NpbClass::W;
  mg.nprocs = 8;
  entries.push_back({"MG.W/8 (V-cycle halos)", apps::make_mg_app(mg),
                     mg.efficiency});
  apps::LuConfig lu;
  lu.cls = apps::NpbClass::A;
  lu.nprocs = 8;
  lu.iteration_scale = scale;
  entries.push_back({"LU.A/8 (variable rate)", apps::make_lu_app(lu), 0.0});
  apps::StencilConfig st;
  st.nprocs = 8;
  st.grid = 2048;
  st.iterations = 100;
  entries.push_back({"stencil/8 (halo)", apps::make_stencil_app(st),
                     st.efficiency});

  std::printf("%-24s | %12s %12s | %8s\n", "application", "direct (s)",
              "replayed (s)", "error %");
  for (const auto& entry : entries) {
    const double direct = direct_run(entry.app);

    const auto workdir = bench::fresh_workdir("extra_" + entry.app.name);
    bench::WorkdirGuard guard(workdir);
    acq::AcquisitionSpec spec;
    spec.app = entry.app;
    spec.workdir = workdir;
    spec.run_uninstrumented_baseline = false;
    const auto report = acq::run_acquisition(spec);

    // Replay with the §5 calibration: hosts clocked at the calibrated LU
    // rate. Apps whose true rate differs pay the corresponding error —
    // exactly the paper's observation generalised.
    plat::Platform target;
    auto target_spec = plat::bordereau_spec(entry.app.nprocs);
    target_spec.power = calibration.flop_rate;
    const auto hosts = plat::build_cluster(target, target_spec);
    replay::ScenarioSpec scenario;
    scenario.platform = replay::share_platform(target);
    scenario.process_hosts = hosts;
    scenario.traces = trace::TraceSet::per_process_files(report.ti_files);
    const double replayed = replay::run_scenario(scenario).simulated_time;

    std::printf("%-24s | %12.3f %12.3f | %7.1f%%\n", entry.name.c_str(),
                direct, replayed,
                100.0 * tir::relative_error(replayed, direct));
    std::fflush(stdout);
  }
  std::printf("\nThe error tracks how far each application's achieved flop "
              "rate sits from the\nLU-calibrated platform rate — the same "
              "root cause as Figure 8.\n");
  return 0;
}
