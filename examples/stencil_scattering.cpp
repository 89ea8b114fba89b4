// Scattering-mode acquisition (paper §4.2): acquire a 2-D stencil trace on
// nodes drawn from TWO clusters behind a WAN — more nodes than any single
// cluster offers — then replay it on a single homogeneous target cluster.
// The time-independent trace makes the WAN acquisition harmless: the
// replayed time matches a Regular-mode acquisition to well under 1%.
//
// Run:  ./stencil_scattering [workdir]
#include <filesystem>
#include <iostream>

#include "acquisition/acquisition.hpp"
#include "apps/stencil.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "support/stats.hpp"
#include "support/units.hpp"

using namespace tir;

namespace {

double replay_on_target(const acq::AcquisitionReport& report, int nprocs) {
  plat::Platform target;
  const auto hosts =
      plat::build_cluster(target, plat::bordereau_physical_spec(nprocs));
  replay::ScenarioSpec scenario;
  scenario.platform = replay::share_platform(target);
  scenario.process_hosts = hosts;
  scenario.traces = trace::TraceSet::per_process_files(report.ti_files);
  return replay::run_scenario(scenario).simulated_time;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path workdir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path() /
                               "tir_scatter";
  std::filesystem::create_directories(workdir);

  apps::StencilConfig cfg;
  cfg.nprocs = 16;
  cfg.grid = 2048;
  cfg.iterations = 40;

  std::cout << "Acquiring a 16-process 2-D stencil in Scattering mode "
               "(bordereau + gdx across the WAN)...\n";
  acq::AcquisitionSpec scattered;
  scattered.app = apps::make_stencil_app(cfg);
  scattered.mode = acq::Mode::scattering;
  scattered.workdir = workdir / "scattered";
  const auto s_report = acq::run_acquisition(scattered);
  std::cout << "  instrumented execution (across the WAN): "
            << units::format_duration(s_report.instrumented_time) << "\n";

  std::cout << "Acquiring the same application in Regular mode...\n";
  acq::AcquisitionSpec regular = scattered;
  regular.mode = acq::Mode::regular;
  regular.workdir = workdir / "regular";
  const auto r_report = acq::run_acquisition(regular);
  std::cout << "  instrumented execution (single cluster):  "
            << units::format_duration(r_report.instrumented_time) << "\n";

  const double t_scattered = replay_on_target(s_report, cfg.nprocs);
  const double t_regular = replay_on_target(r_report, cfg.nprocs);

  std::cout << "\nReplay on the 16-node target cluster:\n"
            << "  from the scattered trace: "
            << units::format_duration(t_scattered) << "\n"
            << "  from the regular trace:   "
            << units::format_duration(t_regular) << "\n"
            << "  difference:               "
            << 100.0 * tir::relative_error(t_scattered, t_regular) << " %\n"
            << "\nA classical timed trace acquired across a WAN would have "
               "predicted something close to\nthe (much longer) WAN "
               "execution time instead.\n";
  return 0;
}
