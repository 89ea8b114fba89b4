#include <gtest/gtest.h>

#include <cstring>

#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "replay/sweep.hpp"
#include "support/error.hpp"

using namespace tir;
using namespace tir::replay;
using trace::Action;
using trace::ActionType;

namespace {

ScenarioSpec base_spec(const std::shared_ptr<const plat::Platform>& platform,
                       const std::vector<int>& hosts,
                       std::vector<std::vector<Action>> streams) {
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = hosts;
  spec.traces = trace::TraceSet::in_memory(std::move(streams));
  return spec;
}

/// Two ranks computing, then exchanging a midsize message.
std::vector<std::vector<Action>> compute_heavy() {
  return {
      {{0, ActionType::compute, -1, 1e9, 0, 0},
       {0, ActionType::send, 1, 1024, 0, 0}},
      {{1, ActionType::compute, -1, 1e9, 0, 0},
       {1, ActionType::recv, 0, 1024, 0, 0}},
  };
}

/// Two ranks pushing a large message each way across the backbone.
std::vector<std::vector<Action>> comm_heavy() {
  return {
      {{0, ActionType::send, 1, 64 << 20, 0, 0},
       {0, ActionType::recv, 1, 64 << 20, 0, 0}},
      {{1, ActionType::recv, 0, 64 << 20, 0, 0},
       {1, ActionType::send, 0, 64 << 20, 0, 0}},
  };
}

FaultSpec host_fault(const std::string& target, double factor,
                     double at_time) {
  FaultSpec fault;
  fault.kind = FaultSpec::Kind::host;
  fault.target = target;
  fault.compute_factor = factor;
  fault.at_time = at_time;
  return fault;
}

FaultSpec link_fault(const std::string& target, double bw_factor,
                     double at_time) {
  FaultSpec fault;
  fault.kind = FaultSpec::Kind::link;
  fault.target = target;
  fault.bandwidth_factor = bw_factor;
  fault.at_time = at_time;
  return fault;
}

}  // namespace

TEST(FaultTest, HostFaultSlowsComputeBoundReplay) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  const auto baseline = base_spec(platform, hosts, compute_heavy());

  auto faulted = baseline;
  faulted.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", 0.1, 0.0));

  const double healthy = run_scenario(baseline).simulated_time;
  const double degraded = run_scenario(faulted).simulated_time;
  EXPECT_GT(degraded, healthy);
  // A 10x slower host stretches a compute-bound run by roughly 10x.
  EXPECT_GT(degraded, 5.0 * healthy);
}

TEST(FaultTest, LinkFaultSlowsCommunicationBoundReplay) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  const auto baseline = base_spec(platform, hosts, comm_heavy());

  auto faulted = baseline;
  faulted.faults.push_back(link_fault("bordereau-backbone", 0.01, 0.0));

  const double healthy = run_scenario(baseline).simulated_time;
  const double degraded = run_scenario(faulted).simulated_time;
  // Healthy runs bottleneck on the 1.25e8 B/s NIC; the degraded backbone
  // (1.25e9 * 0.01 = 1.25e7 B/s) becomes the new bottleneck, ~10x slower.
  EXPECT_GT(degraded, 5.0 * healthy);
}

TEST(FaultTest, MidRunFaultDegradesLessThanImmediateFault) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  const auto baseline = base_spec(platform, hosts, compute_heavy());
  const double healthy = run_scenario(baseline).simulated_time;

  auto immediate = baseline;
  immediate.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", 0.1, 0.0));
  auto midway = baseline;
  midway.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", 0.1, healthy / 2));

  const double from_start = run_scenario(immediate).simulated_time;
  const double from_midway = run_scenario(midway).simulated_time;
  EXPECT_GT(from_midway, healthy);
  EXPECT_LT(from_midway, from_start);
}

TEST(FaultTest, FaultPastEndOfRunLeavesTheResultUnchanged) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  const auto baseline = base_spec(platform, hosts, compute_heavy());
  const double healthy = run_scenario(baseline).simulated_time;

  auto late = baseline;
  late.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", 0.1, 10.0 * healthy));
  // All ranks finish before the fault activates; the makespan is the max
  // of the process finish times, not the fault timer.
  const auto result = run_scenario(late);
  EXPECT_DOUBLE_EQ(result.simulated_time, healthy);
}

TEST(FaultTest, FaultTargetByIdMatchesTargetByName) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  const auto baseline = base_spec(platform, hosts, compute_heavy());

  auto by_name = baseline;
  by_name.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", 0.25, 0.0));
  auto by_id = baseline;
  FaultSpec fault;
  fault.kind = FaultSpec::Kind::host;
  fault.id = hosts[0];
  fault.compute_factor = 0.25;
  by_id.faults.push_back(fault);

  EXPECT_DOUBLE_EQ(run_scenario(by_name).simulated_time,
                   run_scenario(by_id).simulated_time);
}

TEST(FaultTest, UnknownFaultTargetFails) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  auto spec = base_spec(platform, hosts, compute_heavy());
  spec.faults.push_back(host_fault("no-such-host", 0.5, 0.0));
  EXPECT_THROW(run_scenario(spec), SimError);

  const auto report = run_scenario_report(spec);
  EXPECT_EQ(report.status, ReplayStatus::failed);
  EXPECT_NE(report.error.find("no-such-host"), std::string::npos);
}

TEST(FaultTest, InvalidFaultParametersFail) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  auto spec = base_spec(platform, hosts, compute_heavy());
  spec.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", -0.5, 0.0));
  EXPECT_THROW(run_scenario(spec), SimError);
  spec.faults.back() = host_fault("bordereau-0.bordeaux.grid5000.fr", 0.5, -1.0);
  EXPECT_THROW(run_scenario(spec), SimError);
}

// The acceptance pairing: a fault-injected scenario predicts a strictly
// larger simulated time than its baseline, and both rows come out of one
// sweep deterministically (1 worker vs 2 workers bit-identical).
TEST(FaultTest, FaultedSweepIsDeterministicWithBothRows) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  const auto traces = trace::TraceSet::in_memory(compute_heavy());

  ScenarioSpec baseline;
  baseline.name = "baseline";
  baseline.platform = platform;
  baseline.process_hosts = hosts;
  baseline.traces = traces;

  ScenarioSpec faulted = baseline;
  faulted.name = "host-degraded";
  faulted.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", 0.1, 0.0));

  const std::vector<ScenarioSpec> scenarios = {baseline, faulted};
  const auto serial = run_sweep(scenarios, {.workers = 1});
  const auto parallel = run_sweep(scenarios, {.workers = 2});

  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(parallel.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    EXPECT_EQ(serial[i].status, ReplayStatus::ok);
    const double a = serial[i].result.simulated_time;
    const double b = parallel[i].result.simulated_time;
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
        << "row " << i << ": serial " << a << " vs parallel " << b;
  }
  EXPECT_GT(serial[1].result.simulated_time,
            serial[0].result.simulated_time);
}
