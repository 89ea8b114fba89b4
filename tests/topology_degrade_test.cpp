// Regression coverage for Engine::set_link_factors under graph routing
// providers. The engine's route cache is invalidated by *link membership*
// (ResourceId scan), not by any tree structure, so it must behave
// identically whether routes come from TreeRouting or a topology provider.
// These tests pin that down: a faulted dragonfly/torus replay must apply
// bandwidth and latency factors to exactly the routes crossing the degraded
// link, stay deterministic, and match the full-solve reference bit for bit.
#include <gtest/gtest.h>

#include <cstring>

#include "platform/topo.hpp"
#include "platform/topology.hpp"
#include "replay/scenario.hpp"
#include "support/error.hpp"

using namespace tir;
using namespace tir::replay;
using trace::Action;
using trace::ActionType;

namespace {

/// groups=3, routers=2, hosts=1, globals=1: host g*2+r sits on router
/// (g, r). The unique global link for the (0, 1) group pair is
/// dfly-g0r0 <-> dfly-g1r1.
std::shared_ptr<const plat::Platform> small_dragonfly() {
  auto p = std::make_shared<plat::Platform>();
  plat::DragonflySpec spec;
  spec.groups = 3;
  spec.routers = 2;
  spec.hosts = 1;
  spec.globals = 1;
  build_dragonfly(*p, spec);
  return p;
}

/// Ranks 0/1 on hosts in groups 0 and 1: all traffic crosses the pair's
/// global link.
std::vector<std::vector<Action>> cross_group_traffic() {
  return {
      {{0, ActionType::send, 1, 64 << 20, 0, 0},
       {0, ActionType::recv, 1, 64 << 20, 0, 0}},
      {{1, ActionType::recv, 0, 64 << 20, 0, 0},
       {1, ActionType::send, 0, 64 << 20, 0, 0}},
  };
}

FaultSpec link_fault(const std::string& target, double bw_factor,
                     double lat_factor, double at_time) {
  FaultSpec fault;
  fault.kind = FaultSpec::Kind::link;
  fault.target = target;
  fault.bandwidth_factor = bw_factor;
  fault.latency_factor = lat_factor;
  fault.at_time = at_time;
  return fault;
}

}  // namespace

TEST(TopologyDegrade, GlobalLinkFaultSlowsCrossGroupTraffic) {
  const auto platform = small_dragonfly();
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = {0, 2};  // g0r0 and g1r0
  spec.traces = trace::TraceSet::in_memory(cross_group_traffic());

  auto faulted = spec;
  faulted.faults.push_back(
      link_fault("dfly-g0r0-dfly-g1r1", 0.01, 1.0, 0.0));

  const double healthy = run_scenario(spec).simulated_time;
  const double degraded = run_scenario(faulted).simulated_time;
  // The 1.25 GB/s global link at 1 % (12.5 MB/s) is far below the 125 MB/s
  // NIC bottleneck of the healthy run.
  EXPECT_GT(degraded, 5.0 * healthy);
}

TEST(TopologyDegrade, UnrelatedLinkFaultLeavesTheResultBitIdentical) {
  const auto platform = small_dragonfly();
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = {0, 2};
  spec.traces = trace::TraceSet::in_memory(cross_group_traffic());

  auto faulted = spec;
  // The (1, 2) pair's global link never carries group-0 <-> group-1 traffic.
  faulted.faults.push_back(
      link_fault("dfly-g1r0-dfly-g2r1", 0.01, 100.0, 0.0));

  const double healthy = run_scenario(spec).simulated_time;
  const double degraded = run_scenario(faulted).simulated_time;
  EXPECT_EQ(std::memcmp(&healthy, &degraded, sizeof healthy), 0)
      << healthy << " vs " << degraded;
}

TEST(TopologyDegrade, LatencyFactorAppliesToTransfersAfterActivation) {
  // Latency-bound ping-pong: if a stale cached route survived
  // set_link_factors under a graph provider, the inflated latency would
  // never be applied.
  std::vector<std::vector<Action>> pingpong = {{}, {}};
  for (int i = 0; i < 50; ++i) {
    pingpong[0].push_back({0, ActionType::send, 1, 64, 0, 0});
    pingpong[0].push_back({0, ActionType::recv, 1, 64, 0, 0});
    pingpong[1].push_back({1, ActionType::recv, 0, 64, 0, 0});
    pingpong[1].push_back({1, ActionType::send, 0, 64, 0, 0});
  }
  const auto platform = small_dragonfly();
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = {0, 2};
  spec.traces = trace::TraceSet::in_memory(pingpong);

  auto faulted = spec;
  faulted.faults.push_back(
      link_fault("dfly-g0r0-dfly-g1r1", 1.0, 1000.0, 0.0));

  const double healthy = run_scenario(spec).simulated_time;
  const double degraded = run_scenario(faulted).simulated_time;
  EXPECT_GT(degraded, 2.0 * healthy);
}

TEST(TopologyDegrade, FaultedGraphReplayMatchesFullSolveBitForBit) {
  const auto platform = small_dragonfly();
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = {0, 2};
  spec.traces = trace::TraceSet::in_memory(cross_group_traffic());
  spec.faults.push_back(link_fault("dfly-g0r0-dfly-g1r1", 0.1, 2.0, 0.05));

  auto reference = spec;
  reference.config.full_solve = true;

  const double incremental = run_scenario(spec).simulated_time;
  const double full = run_scenario(reference).simulated_time;
  EXPECT_EQ(std::memcmp(&incremental, &full, sizeof incremental), 0)
      << incremental << " vs " << full;
}

TEST(TopologyDegrade, FaultedTopologyReplayIsDeterministic) {
  for (const char* topo :
       {"dragonfly:groups=3,routers=2,hosts=1,globals=1", "fattree:k=4",
        "torus:dims=2x2"}) {
    const auto platform =
        std::make_shared<const plat::Platform>(plat::make_platform(topo));
    ScenarioSpec spec;
    spec.platform = platform;
    spec.process_hosts = {0, static_cast<int>(platform->host_count()) - 1};
    spec.traces = trace::TraceSet::in_memory(cross_group_traffic());
    // Degrade the destination host's NIC: present in every topology and
    // guaranteed to sit on the used route.
    FaultSpec fault;
    fault.kind = FaultSpec::Kind::link;
    fault.target =
        platform->host(static_cast<int>(platform->host_count()) - 1).name +
        "_nic";
    fault.bandwidth_factor = 0.25;
    fault.at_time = 0.01;
    spec.faults.push_back(fault);

    const double first = run_scenario(spec).simulated_time;
    const double second = run_scenario(spec).simulated_time;
    EXPECT_EQ(std::memcmp(&first, &second, sizeof first), 0) << topo;

    ScenarioSpec healthy = spec;
    healthy.faults.clear();
    EXPECT_GT(first, run_scenario(healthy).simulated_time) << topo;
  }
}
