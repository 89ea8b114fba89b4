// Table 2: execution time of the instrumented LU benchmark (64 processes)
// under the acquisition modes R, F-2..F-32, S-2, SF-(2,2)..SF-(2,16), plus
// the §6.2 punchline: the *replayed* time is mode-invariant (< 1%).
//
// Paper shapes to reproduce:
//   - execution time grows roughly linearly with the folding factor;
//   - S-2's ratio stays below the number of sites (1.81 / 1.48 in-paper);
//   - SF cumulates both overheads;
//   - the simulated (replayed) time varies by less than 1% across modes.
//
// The replay column is produced by one parallel sweep over the scenario
// layer: every mode's trace replays against the same shared target
// platform. The bench also writes <workdir>/table2_scenarios.list — the
// same table reproduces end-to-end with
//   tir-sweep <workdir>/table2_scenarios.list
// (set TIR_KEEP_WORKDIR=1 to keep the traces around for that).
#include <cstdio>
#include <fstream>
#include <optional>
#include <vector>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "bench_util.hpp"
#include "platform/cluster.hpp"
#include "platform/deployment.hpp"
#include "platform/platform_file.hpp"
#include "replay/sweep.hpp"
#include "support/stats.hpp"

using namespace tir;

namespace {

struct ModeSpec {
  acq::Mode mode;
  int folding;
};

const ModeSpec kModes[] = {
    {acq::Mode::regular, 1},         {acq::Mode::folding, 2},
    {acq::Mode::folding, 4},         {acq::Mode::folding, 8},
    {acq::Mode::folding, 16},        {acq::Mode::folding, 32},
    {acq::Mode::scattering, 1},      {acq::Mode::scatter_folding, 2},
    {acq::Mode::scatter_folding, 4}, {acq::Mode::scatter_folding, 8},
    {acq::Mode::scatter_folding, 16},
};

bool keep_workdir() {
  const char* keep = std::getenv("TIR_KEEP_WORKDIR");
  return keep != nullptr && std::string(keep) == "1";
}

}  // namespace

int main() {
  // Table 2 is the most expensive bench (22 acquisitions of 64-rank runs):
  // run at half the global scale by default.
  const double scale = bench::scale() * 0.5;
  const int nprocs = 64;
  bench::banner("Table 2 — instrumented execution time vs acquisition mode",
                "LU classes B and C, 64 processes; iteration fraction " +
                    std::to_string(scale));

  for (const auto cls : {apps::NpbClass::B, apps::NpbClass::C}) {
    std::printf("\nClass %s\n", apps::to_string(cls).c_str());

    apps::LuConfig cfg;
    cfg.cls = cls;
    cfg.nprocs = nprocs;
    cfg.iteration_scale = scale;

    const auto workdir =
        bench::fresh_workdir("table2_" + apps::to_string(cls));
    std::optional<bench::WorkdirGuard> guard;
    if (!keep_workdir()) guard.emplace(workdir);

    // The shared target: one immutable platform for every mode's replay
    // (paper §6.2 replays all acquisitions on the same calibrated cluster).
    const auto target = std::make_shared<plat::Platform>();
    const auto target_hosts =
        plat::build_cluster(*target, plat::bordereau_spec(nprocs));

    // Acquisitions are inherently serial (each simulates the instrumented
    // run); they produce one ScenarioSpec per mode for the replay sweep.
    struct AcqRow {
      std::string mode;
      int nodes = 0;
      double exec_time = 0.0;
    };
    std::vector<AcqRow> rows;
    std::vector<replay::ScenarioSpec> scenarios;
    for (const auto& mode : kModes) {
      const auto mode_dir =
          workdir / acq::mode_label(mode.mode, mode.folding);

      acq::AcquisitionSpec spec;
      spec.app = apps::make_lu_app(cfg);
      spec.mode = mode.mode;
      spec.folding = mode.folding;
      spec.workdir = mode_dir;
      spec.run_uninstrumented_baseline = false;
      // Per-burst PAPI-like counter noise; the paper's <1% replay-time
      // variation stems from exactly this.
      spec.instrument.counter_jitter = 2e-4;
      spec.instrument.seed =
          42u + static_cast<unsigned>(mode.folding) * 17u +
          static_cast<unsigned>(mode.mode) * 131u;
      const auto r = acq::run_acquisition(spec);
      rows.push_back({r.mode, r.nodes_used, r.instrumented_time});

      replay::ScenarioSpec scenario;
      scenario.name = r.mode;
      scenario.platform = target;
      scenario.process_hosts = target_hosts;
      scenario.traces = trace::TraceSet::per_process_files(r.ti_files);
      scenarios.push_back(std::move(scenario));
    }

    // Replay every mode's trace in one sweep (8 workers; results are
    // worker-count-invariant, see tests/sweep_test.cpp).
    const auto replays =
        replay::run_sweep(scenarios, {.workers = 8, .rethrow_errors = true});

    // The same replay table as a tir-sweep scenario list.
    const auto platform_xml = workdir / "table2_platform.xml";
    std::ofstream(platform_xml)
        << plat::cluster_to_xml(plat::bordereau_spec(nprocs), "AS_bordeaux");
    const auto deployment_xml = workdir / "table2_deployment.xml";
    std::ofstream(deployment_xml)
        << plat::Deployment::block(*target, target_hosts, nprocs).to_xml();
    {
      std::ofstream list(workdir / "table2_scenarios.list");
      list << "# Table 2 replay column: tir-sweep table2_scenarios.list\n"
           << "default platform=table2_platform.xml"
           << " deployment=table2_deployment.xml\n";
      for (std::size_t i = 0; i < scenarios.size(); ++i)
        list << "name=" << scenarios[i].name << " traces="
             << acq::mode_label(kModes[i].mode, kModes[i].folding)
             << "/ti\n";
    }

    std::printf("%-10s %6s | %14s %8s | %14s\n", "mode", "nodes", "exec (s)",
                "ratio", "replayed (s)");
    const double regular_time = rows.front().exec_time;
    std::vector<double> replayed_times;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double replayed = replays[i].result.simulated_time;
      replayed_times.push_back(replayed);
      std::printf("%-10s %6d | %14.2f %8.2f | %14.3f\n",
                  rows[i].mode.c_str(), rows[i].nodes,
                  rows[i].exec_time,
                  regular_time > 0 ? rows[i].exec_time / regular_time : 1.0,
                  replayed);
    }
    std::fflush(stdout);

    double max_dev = 0;
    for (const double t : replayed_times)
      max_dev = std::max(max_dev, tir::relative_error(t, replayed_times[0]));
    std::printf("  -> replayed-time deviation across modes: %.3f%% "
                "(paper: < 1%%)\n", 100.0 * max_dev);
    if (keep_workdir())
      std::printf("  -> scenario list kept at %s\n",
                  (workdir / "table2_scenarios.list").c_str());
  }
  return 0;
}
