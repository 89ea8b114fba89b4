#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "platform/cluster.hpp"
#include "replay/sweep.hpp"
#include "support/error.hpp"
#include "trace/text_format.hpp"

using namespace tir;
using namespace tir::replay;
namespace fs = std::filesystem;

namespace {

// A ring-with-computes trace: enough actions that scenarios overlap in time
// when run by several workers.
std::vector<std::vector<trace::Action>> ring_actions(int nprocs, int rounds) {
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < rounds; ++r) {
    for (int p = 0; p < nprocs; ++p) {
      auto& mine = per[static_cast<std::size_t>(p)];
      if (p == 0) {  // rank 0 kicks each round off
        mine.push_back({p, ActionType::compute, -1, 1e5, 0, 0});
        mine.push_back({p, ActionType::send, 1, 64 * 1024, 0, 0});
        mine.push_back({p, ActionType::recv, nprocs - 1, 0, 0, 0});
      } else {
        mine.push_back({p, ActionType::recv, (p + nprocs - 1) % nprocs,
                        0, 0, 0});
        mine.push_back({p, ActionType::compute, -1, 1e5, 0, 0});
        mine.push_back({p, ActionType::send, (p + 1) % nprocs,
                        64 * 1024, 0, 0});
      }
    }
  }
  return per;
}

/// 64 scenarios over one shared platform + trace set, varying the compute
/// efficiency (each scenario predicts a different simulated time).
std::vector<ScenarioSpec> make_scenarios(
    const std::shared_ptr<const plat::Platform>& platform,
    const std::vector<int>& hosts, const trace::TraceSet& traces, int count) {
  std::vector<ScenarioSpec> scenarios;
  for (int i = 0; i < count; ++i) {
    ScenarioSpec spec;
    spec.name = "s" + std::to_string(i);
    spec.platform = platform;
    spec.process_hosts = hosts;
    spec.traces = traces;
    spec.config.compute_efficiency = 0.5 + 0.01 * i;
    scenarios.push_back(std::move(spec));
  }
  return scenarios;
}

}  // namespace

TEST(SweepTest, SerialAndParallelSweepsAreBitIdentical) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(8));
  const auto traces = trace::TraceSet::in_memory(ring_actions(8, 4));
  const auto scenarios = make_scenarios(platform, hosts, traces, 64);

  const auto serial = run_sweep(scenarios, {.workers = 1});
  const auto parallel = run_sweep(scenarios, {.workers = 8});

  ASSERT_EQ(serial.size(), 64u);
  ASSERT_EQ(parallel.size(), 64u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    EXPECT_EQ(serial[i].name, scenarios[i].name);
    EXPECT_EQ(parallel[i].name, scenarios[i].name);
    // Bit-identical, not merely approximately equal.
    const double a = serial[i].replay.simulated_time;
    const double b = parallel[i].replay.simulated_time;
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
        << "scenario " << i << ": serial " << a << " vs parallel " << b;
    EXPECT_EQ(serial[i].replay.actions_replayed,
              parallel[i].replay.actions_replayed);
  }
  // Different efficiencies must yield different predictions (the sweep is
  // not accidentally replaying one scenario 64 times).
  EXPECT_NE(serial.front().replay.simulated_time,
            serial.back().replay.simulated_time);
}

TEST(SweepTest, TraceFilesAreDecodedOncePerSweep) {
  const auto dir =
      fs::temp_directory_path() /
      ("tir_sweep_decode_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto files = trace::write_split_traces(dir, ring_actions(4, 2));

  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(4));
  const auto traces = trace::TraceSet::per_process_files(files);
  EXPECT_EQ(traces.decode_count(), 0u);  // decoding is lazy

  const auto scenarios = make_scenarios(platform, hosts, traces, 64);
  const auto results = run_sweep(scenarios, {.workers = 8});
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;

  // 64 concurrent scenarios, 4 files, exactly 4 decode passes.
  EXPECT_EQ(traces.decode_count(), files.size());

  // Further sweeps decode nothing new.
  const auto again = run_sweep(scenarios, {.workers = 2});
  EXPECT_EQ(traces.decode_count(), files.size());
  EXPECT_EQ(again[0].replay.simulated_time,
            results[0].replay.simulated_time);
  fs::remove_all(dir);
}

TEST(SweepTest, FailingScenarioIsRecordedWithoutPoisoningOthers) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(4));
  const auto traces = trace::TraceSet::in_memory(ring_actions(4, 1));
  auto scenarios = make_scenarios(platform, hosts, traces, 3);
  scenarios[1].process_hosts.pop_back();  // deployment/trace mismatch

  const auto results = run_sweep(scenarios, {.workers = 4});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("deployment"), std::string::npos);
  EXPECT_TRUE(results[2].ok);

  EXPECT_THROW(run_sweep(scenarios, {.workers = 4, .rethrow_errors = true}),
               SimError);
}

TEST(SweepTest, PoisonedScenariosDeterministicAcrossWorkerCounts) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(4));
  const auto traces = trace::TraceSet::in_memory(ring_actions(4, 2));
  auto scenarios = make_scenarios(platform, hosts, traces, 16);
  // Poison two of them: one bad deployment, one registry hook that throws
  // something that is not even a std::exception.
  scenarios[3].process_hosts.pop_back();
  scenarios[11].customize_registry = [](ActionRegistry&) { throw 42; };

  const auto serial = run_sweep(scenarios, {.workers = 1});
  const auto parallel = run_sweep(scenarios, {.workers = 8});

  ASSERT_EQ(serial.size(), 16u);
  ASSERT_EQ(parallel.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    const bool poisoned = i == 3 || i == 11;
    EXPECT_EQ(serial[i].ok, !poisoned) << "scenario " << i;
    // Every field of every row is identical whatever the worker count:
    // failures are isolated, recorded in place, and never reordered.
    EXPECT_EQ(serial[i].name, parallel[i].name);
    EXPECT_EQ(serial[i].ok, parallel[i].ok);
    EXPECT_EQ(serial[i].status, parallel[i].status);
    EXPECT_EQ(serial[i].error, parallel[i].error);
    const double a = serial[i].coverage;
    const double b = parallel[i].coverage;
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "scenario " << i;
    const double s = serial[i].replay.simulated_time;
    const double p = parallel[i].replay.simulated_time;
    EXPECT_EQ(std::memcmp(&s, &p, sizeof s), 0) << "scenario " << i;
  }
  EXPECT_EQ(serial[3].status, ReplayStatus::failed);
  EXPECT_NE(serial[3].error.find("deployment"), std::string::npos);
  EXPECT_EQ(serial[11].status, ReplayStatus::failed);
  EXPECT_EQ(serial[11].error, "unknown exception");
  // The healthy 14 still completed.
  EXPECT_TRUE(serial[15].ok);
  EXPECT_DOUBLE_EQ(serial[15].coverage, 1.0);
}

TEST(SweepTest, CustomRegistryHookAppliesPerScenario) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(4));
  const auto traces = trace::TraceSet::in_memory(ring_actions(4, 2));

  ScenarioSpec normal;
  normal.name = "normal";
  normal.platform = platform;
  normal.process_hosts = hosts;
  normal.traces = traces;

  ScenarioSpec free_compute = normal;
  free_compute.name = "free-compute";
  free_compute.customize_registry = [](ActionRegistry& registry) {
    registry.register_action(
        "compute", [](ReplayCtx&, const trace::Action&) -> sim::Co<void> {
          co_return;
        });
  };

  const auto results = run_sweep({normal, free_compute}, {.workers = 2});
  ASSERT_TRUE(results[0].ok && results[1].ok);
  EXPECT_LT(results[1].replay.simulated_time,
            results[0].replay.simulated_time);
}
