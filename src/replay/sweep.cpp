#include "replay/sweep.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "support/error.hpp"

namespace tir::replay {

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

int SweepRunner::effective_workers(std::size_t scenario_count) const {
  int workers = options_.workers;
  if (workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw > 0 ? static_cast<int>(hw) : 1;
  }
  if (static_cast<std::size_t>(workers) > scenario_count)
    workers = static_cast<int>(scenario_count);
  return workers < 1 ? 1 : workers;
}

void run_one(const ScenarioSpec& spec, SweepResult& slot) {
  slot.name = spec.name;
  slot.platform = spec.platform_label;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    ReplayReport report = run_scenario_report(spec);
    slot.status = report.status;
    slot.ok = report.status == ReplayStatus::ok;
    slot.coverage = report.coverage;
    slot.sim_time = report.sim_time;
    slot.error = std::move(report.error);
    slot.diagnostics = std::move(report.diagnostics);
    slot.replay = std::move(report.result);
  } catch (const std::exception& e) {
    // run_scenario_report only lets non-simulation exceptions escape
    // (e.g. bad_alloc); record them too rather than tearing the pool down.
    slot.status = ReplayStatus::failed;
    slot.ok = false;
    slot.error = e.what();
  } catch (...) {
    slot.status = ReplayStatus::failed;
    slot.ok = false;
    slot.error = "unknown exception";
  }
  slot.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

std::vector<SweepResult> SweepRunner::run(
    const std::vector<ScenarioSpec>& scenarios) const {
  std::vector<SweepResult> results(scenarios.size());
  const int workers = effective_workers(scenarios.size());

  if (workers <= 1) {
    for (std::size_t i = 0; i < scenarios.size(); ++i)
      run_one(scenarios[i], results[i]);
  } else {
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= scenarios.size()) return;
        run_one(scenarios[i], results[i]);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  if (options_.rethrow_errors) {
    for (const SweepResult& r : results)
      if (!r.ok)
        throw SimError("sweep: scenario '" + r.name + "' failed: " + r.error);
  }
  return results;
}

std::vector<SweepResult> run_sweep(const std::vector<ScenarioSpec>& scenarios,
                                   SweepOptions options) {
  return SweepRunner(options).run(scenarios);
}

}  // namespace tir::replay
