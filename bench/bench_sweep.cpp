// Sweep-runner scaling: 64 what-if scenarios over one shared trace set,
// serial loop vs 8-worker SweepRunner.
//
// This is the workload shape behind Table 2 and the sensitivity analyses of
// Cornebize & Legrand (2021): many independent replays of the same
// immutable inputs. The scenario layer makes them embarrassingly parallel;
// on a machine with >= 8 cores the 8-worker sweep must beat the serial
// loop by >= 4x wall-clock while producing bit-identical simulated times.
// On smaller machines the speedup degrades gracefully (it is reported, and
// checked only against the locally available parallelism).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "platform/cluster.hpp"
#include "replay/sweep.hpp"
#include "trace/trace_format.hpp"

using namespace tir;
using namespace tir::replay;

namespace {

// A stencil-ish exchange trace with per-iteration compute: big enough that
// one replay takes a measurable slice of a second.
std::vector<std::vector<trace::Action>> synthetic_actions(int nprocs,
                                                          int iterations) {
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(static_cast<std::size_t>(nprocs));
  for (int it = 0; it < iterations; ++it) {
    for (int p = 0; p < nprocs; ++p) {
      auto& mine = per[static_cast<std::size_t>(p)];
      const int left = (p + nprocs - 1) % nprocs;
      const int right = (p + 1) % nprocs;
      mine.push_back({p, ActionType::irecv, left, 0, 0, 0});
      mine.push_back({p, ActionType::isend, right, 32 * 1024, 0, 0});
      mine.push_back({p, ActionType::compute, -1, 2e6, 0, 0});
      mine.push_back({p, ActionType::wait, -1, 0, 0, 0});
      mine.push_back({p, ActionType::wait, -1, 0, 0, 0});
      if (it % 8 == 7) mine.push_back({p, ActionType::allreduce, -1,
                                       1024, 1e4, 0});
    }
  }
  return per;
}

}  // namespace

int main() {
  const int kScenarios = 64;
  const int kWorkers = 8;
  const int nprocs = 16;
  const int iterations = std::max(4, static_cast<int>(200 * bench::scale()));

  bench::banner("Sweep — 64 scenarios, serial loop vs 8-worker SweepRunner",
                "shared platform + decoded-once traces; "
                + std::to_string(nprocs) + " ranks, "
                + std::to_string(iterations) + " iterations per trace");

  // Traces on disk: the sweep also demonstrates decode-once sharing.
  const auto workdir = bench::fresh_workdir("sweep");
  bench::WorkdirGuard guard(workdir);
  const auto files =
      trace::write_split_traces(workdir, synthetic_actions(nprocs,
                                                           iterations));
  const auto traces = trace::TraceSet::per_process_files(files);

  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts =
      plat::build_cluster(*platform, plat::bordereau_spec(nprocs));

  std::vector<ScenarioSpec> scenarios;
  for (int i = 0; i < kScenarios; ++i) {
    ScenarioSpec spec;
    spec.name = "whatif-" + std::to_string(i);
    spec.platform = platform;
    spec.process_hosts = hosts;
    spec.traces = traces;
    spec.config.compute_efficiency = 0.25 + 0.01 * i;
    scenarios.push_back(std::move(spec));
  }

  // Warm the decode cache outside the timed region for a fair serial
  // baseline (the serial loop it replaces re-used parsed traces too).
  (void)traces.stats();

  const auto t_serial0 = std::chrono::steady_clock::now();
  const auto serial = run_sweep(scenarios, {.workers = 1});
  const double t_serial = bench::seconds_since(t_serial0);

  const auto t_par0 = std::chrono::steady_clock::now();
  const auto parallel = run_sweep(scenarios, {.workers = kWorkers});
  const double t_par = bench::seconds_since(t_par0);

  bool identical = true;
  for (int i = 0; i < kScenarios; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (!serial[idx].ok() || !parallel[idx].ok()) {
      std::printf("scenario %d FAILED: %s%s\n", i,
                  serial[idx].error.c_str(), parallel[idx].error.c_str());
      return 1;
    }
    const double a = serial[idx].result.simulated_time;
    const double b = parallel[idx].result.simulated_time;
    if (std::memcmp(&a, &b, sizeof a) != 0) {
      identical = false;
      std::printf("scenario %d DIVERGES: serial %.17g parallel %.17g\n",
                  i, a, b);
    }
  }

  const double speedup = t_par > 0 ? t_serial / t_par : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("\n%-28s %10.3f s\n", "serial (1 worker):", t_serial);
  std::printf("%-28s %10.3f s\n",
              ("parallel (" + std::to_string(kWorkers) +
               " workers):").c_str(), t_par);
  std::printf("%-28s %10.2fx   (hardware threads: %u)\n", "speedup:",
              speedup, hw);
  std::printf("%-28s %10s\n", "bit-identical results:",
              identical ? "yes" : "NO");
  std::printf("%-28s %10llu   (files: %zu)\n", "trace decode passes:",
              static_cast<unsigned long long>(traces.decode_count()),
              files.size());

  if (!identical) return 1;
  if (traces.decode_count() != files.size()) {
    std::printf("FAIL: expected exactly one decode per trace file\n");
    return 1;
  }
  // The >= 4x acceptance bar presumes >= 8 cores; scale it to the machine.
  const double required =
      hw >= 8 ? 4.0 : (hw >= 4 ? 2.0 : (hw >= 2 ? 1.3 : 0.0));
  if (speedup < required) {
    std::printf("FAIL: speedup %.2fx below the %.1fx bar for %u threads\n",
                speedup, required, hw);
    return 1;
  }
  std::printf("\nOK\n");
  return 0;
}
