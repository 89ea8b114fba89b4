#include "replay/sweep.hpp"

#include <atomic>
#include <thread>

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

std::vector<ReplayReport> SweepRunner::run(
    const std::vector<ScenarioSpec>& scenarios) const {
  std::vector<ReplayReport> results(scenarios.size());
  const int workers = effective_workers(scenarios.size());

  if (workers <= 1) {
    for (std::size_t i = 0; i < scenarios.size(); ++i)
      results[i] = run_scenario_report(scenarios[i]);
  } else {
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= scenarios.size()) return;
        results[i] = run_scenario_report(scenarios[i]);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  if (options_.rethrow_errors) {
    for (std::size_t i = 0; i < results.size(); ++i)
      if (!results[i].ok())
        throw SimError("sweep: scenario '" + scenarios[i].name +
                       "' failed: " + results[i].error);
  }
  return results;
}

std::vector<ReplayReport> run_sweep(const std::vector<ScenarioSpec>& scenarios,
                                    SweepOptions options) {
  return SweepRunner(options).run(scenarios);
}

}  // namespace tir::replay
