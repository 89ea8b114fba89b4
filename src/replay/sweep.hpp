// SweepRunner: N scenarios, W worker threads, deterministic ordered output.
//
// The Table 2 / sensitivity-analysis workload: the same immutable inputs
// (platforms, decoded traces) feed many independent replays. Each worker
// claims scenarios off a shared atomic counter and runs run_scenario() —
// whose per-run engine owns every piece of mutable state — so scenarios
// parallelise without locks around simulation state. Results land in a
// pre-sized vector slot per scenario: the output order and every simulated
// time are bit-identical whatever the worker count or interleaving.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "replay/scenario.hpp"

namespace tir::replay {

struct SweepOptions {
  /// Worker threads; 0 picks the hardware concurrency. 1 degenerates to
  /// the plain serial loop (no threads are spawned).
  int workers = 0;

  /// When false (default), a scenario that throws is recorded in its
  /// SweepResult and the sweep continues; when true the first error (in
  /// scenario order) is rethrown after all workers drain.
  bool rethrow_errors = false;
};

/// Outcome of one scenario, in submission order. A failing scenario — bad
/// spec, corrupt trace, deadlocked replay, even a non-std exception from a
/// registry hook — is isolated to its slot: the pool keeps draining and the
/// result records what went wrong (status, error, per-rank diagnostics).
struct SweepResult {
  std::string name;        ///< copied from the spec
  std::string platform;    ///< spec.platform_label (file path or topo spec)
  bool ok = false;         ///< status == ReplayStatus::ok
  ReplayStatus status = ReplayStatus::failed;
  double coverage = 0.0;   ///< fraction of trace actions replayed
  double sim_time = 0.0;   ///< report sim_time (deadlocks included)
  double wall_seconds = 0.0;  ///< wall-clock spent inside run_scenario
  std::string error;       ///< exception message when !ok
  std::vector<std::string> diagnostics;  ///< per-blocked-rank (deadlock)
  ReplayResult replay;     ///< full when ok, partial otherwise
};

/// Runs one scenario into `slot` with the isolation every sweep row gets:
/// any exception escaping run_scenario_report, std or not, becomes a
/// `failed` result instead of propagating, and wall_seconds records the
/// time spent. Thread-safe across distinct slots.
void run_one(const ScenarioSpec& spec, SweepResult& slot);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Runs every scenario; results[i] corresponds to scenarios[i].
  std::vector<SweepResult> run(
      const std::vector<ScenarioSpec>& scenarios) const;

  /// The worker count a run() will actually use.
  int effective_workers(std::size_t scenario_count) const;

 private:
  SweepOptions options_;
};

/// One-shot convenience over SweepRunner.
std::vector<SweepResult> run_sweep(const std::vector<ScenarioSpec>& scenarios,
                                   SweepOptions options = {});

}  // namespace tir::replay
