// Figure 9: evolution of the (wall-clock) trace replay time with the
// number of processes, LU classes B and C.
//
// Paper shapes to reproduce: the replay time tracks the number of actions
// in the trace (Table 3's right column), because each action costs a
// simulated-process context switch in the kernel.
//
// Rank counts: by default classes B and C at 8, 16, 32 and 64 ranks.
// TIR_FIG9_PROCS=8,64,256 (comma list, powers of two) replaces them and
// runs class B only; it reaches 1024 ranks when you have the minutes — see
// EXPERIMENTS.md.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "bench_util.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "support/strings.hpp"

using namespace tir;

namespace {

/// The TIR_FIG9_PROCS list, or empty when the variable is unset.
std::vector<int> proc_counts() {
  std::vector<int> procs;
  if (const char* env = std::getenv("TIR_FIG9_PROCS")) {
    for (const auto tok : str::split(env, ',')) {
      const int n = std::atoi(std::string(tok).c_str());
      if (n <= 0 || (n & (n - 1)) != 0) {
        std::fprintf(stderr, "error: TIR_FIG9_PROCS: '%s' is not a power "
                             "of two\n", std::string(tok).c_str());
        std::exit(2);
      }
      procs.push_back(n);
    }
  }
  return procs;
}

}  // namespace

int main() {
  const double scale = bench::scale();
  std::vector<apps::NpbClass> classes{apps::NpbClass::B, apps::NpbClass::C};
  std::vector<int> counts = proc_counts();
  if (counts.empty()) {
    counts = {8, 16, 32, 64};
  } else {
    classes = {apps::NpbClass::B};
  }
  bench::banner("Figure 9 — trace replay wall-clock time vs process count",
                std::string(classes.size() == 1 ? "LU class B"
                                                : "LU classes B and C") +
                    "; iteration fraction " + std::to_string(scale) +
                    " (full-run replay time extrapolates linearly)");

  std::printf("%-6s %5s | %12s %12s | %14s %16s\n", "class", "procs",
              "actions(M)", "replay (s)", "actions/sec", "ctx switches(M)");
  for (const auto cls : classes) {
    for (const int procs : counts) {
      apps::LuConfig cfg;
      cfg.cls = cls;
      cfg.nprocs = procs;
      cfg.iteration_scale = scale;

      const auto workdir = bench::fresh_workdir(
          "fig9_" + apps::to_string(cls) + "_" + std::to_string(procs));
      bench::WorkdirGuard guard(workdir);

      acq::AcquisitionSpec spec;
      spec.app = apps::make_lu_app(cfg);
      spec.mode = acq::Mode::folding;
      spec.folding = std::max(1, procs / 8);
      spec.workdir = workdir;
      spec.run_uninstrumented_baseline = false;
      const auto r = acq::run_acquisition(spec);

      plat::Platform target;
      const auto hosts =
          plat::build_cluster(target, plat::bordereau_spec(procs));
      replay::ScenarioSpec scenario;
      scenario.platform = replay::share_platform(target);
      scenario.process_hosts = hosts;
      scenario.traces = trace::TraceSet::per_process_files(r.ti_files);

      const auto start = std::chrono::steady_clock::now();
      const auto result = replay::run_scenario(scenario);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();

      std::printf("%-6s %5d | %12.2f %12.2f | %14.0f %16.2f\n",
                  apps::to_string(cls).c_str(), procs,
                  result.actions_replayed / 1e6, wall,
                  result.actions_replayed / wall,
                  result.engine_stats.resumes / 1e6);
      std::fflush(stdout);
    }
  }
  std::printf("\nPaper reference: replay time directly tracks the action "
              "count (36M actions for C/64\ntook several hundred seconds in "
              "SimGrid 3.6; the bottleneck is context switching).\n");
  return 0;
}
