// SweepRunner: N scenarios, W worker threads, deterministic ordered output.
//
// The Table 2 / sensitivity-analysis workload: the same immutable inputs
// (platforms, decoded traces) feed many independent replays. Each worker
// claims scenarios off a shared atomic counter and runs
// run_scenario_report() — whose per-run engine owns every piece of mutable
// state — so scenarios parallelise without locks around simulation state.
// A sweep returns each scenario's ReplayReport in a pre-sized slot, in
// scenario order: a failing scenario (bad spec, corrupt trace, deadlocked
// replay, a trace that waits with no pending request) is isolated to its
// own report, and the output order and every simulated time are
// bit-identical whatever the worker count or interleaving. A row's name and
// platform label are those of its ScenarioSpec.
#pragma once

#include <cstddef>
#include <vector>

#include "replay/scenario.hpp"

namespace tir::replay {

struct SweepOptions {
  /// Worker threads; 0 picks the hardware concurrency. 1 degenerates to
  /// the plain serial loop (no threads are spawned).
  int workers = 0;

  /// When false (default), a scenario that fails is recorded in its report
  /// and the sweep continues; when true the first failure (in scenario
  /// order) is thrown as a SimError after all workers drain.
  bool rethrow_errors = false;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Runs every scenario; the result's [i] is scenarios[i]'s report.
  std::vector<ReplayReport> run(
      const std::vector<ScenarioSpec>& scenarios) const;

  /// The worker count a run() will actually use.
  int effective_workers(std::size_t scenario_count) const;

 private:
  SweepOptions options_;
};

/// One-shot convenience over SweepRunner.
std::vector<ReplayReport> run_sweep(const std::vector<ScenarioSpec>& scenarios,
                                    SweepOptions options = {});

}  // namespace tir::replay
