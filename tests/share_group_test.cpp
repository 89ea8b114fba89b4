// Share-group differential battery. Hub groups (simkern/maxmin.hpp) keep
// rates bit-identical to the fill, but the engine's share groups advance
// their members on one virtual clock, which rounds progress differently
// from per-flow catch-up. So every per-rank finish time must stay within
// 1e-9 relative of the full_solve reference, which never forms groups.
// Where the backbone saturates, the battery also asserts that hub mode
// actually engaged.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "platform/cluster.hpp"
#include "platform/deployment.hpp"
#include "platform/topology.hpp"
#include "replay/scenario.hpp"
#include "trace/compact.hpp"
#include "trace/synthetic.hpp"
#include "trace_formats.hpp"
#include "trace/trace_set.hpp"

using namespace tir;
using namespace tir::replay;
namespace fs = std::filesystem;

namespace {

/// Error budget of the share-group clocks against the per-flow reference.
constexpr double kBudget = 1e-9;

double relative(double a, double ref) {
  return std::abs(a - ref) / std::max(std::abs(ref), 1e-300);
}

/// Replays `spec` against the full_solve reference; returns the
/// incremental run's engine stats.
sim::EngineStats expect_within_budget(const ScenarioSpec& spec) {
  ScenarioSpec reference = spec;
  reference.config.full_solve = true;
  const ReplayResult ref = run_scenario(reference);
  EXPECT_EQ(ref.engine_stats.hub_entries, 0u) << "full_solve formed a group";

  const ReplayResult r = run_scenario(spec);
  EXPECT_EQ(r.actions_replayed, ref.actions_replayed);
  EXPECT_LE(relative(r.simulated_time, ref.simulated_time), kBudget);
  EXPECT_EQ(r.engine_stats.activities, ref.engine_stats.activities);
  EXPECT_EQ(r.process_finish_times.size(), ref.process_finish_times.size());
  for (std::size_t p = 0; p < r.process_finish_times.size() &&
                          p < ref.process_finish_times.size();
       ++p) {
    EXPECT_LE(relative(r.process_finish_times[p], ref.process_finish_times[p]),
              kBudget)
        << "rank " << p << ": " << r.process_finish_times[p] << " vs "
        << ref.process_finish_times[p];
  }
  return r.engine_stats;
}

/// Acquired LU traces (one iteration), cached per class and size.
trace::TraceSet lu_traces(apps::NpbClass cls, int nprocs) {
  static auto* cache = new std::map<std::pair<int, int>, trace::TraceSet>();
  const auto key = std::make_pair(static_cast<int>(cls), nprocs);
  auto it = cache->find(key);
  if (it == cache->end()) {
    const fs::path workdir = fs::temp_directory_path() /
                             ("tir_share_group_lu" + std::to_string(nprocs) +
                              "_" + std::to_string(::getpid()));
    fs::create_directories(workdir);
    apps::LuConfig cfg;
    cfg.cls = cls;
    cfg.nprocs = nprocs;
    cfg.iteration_scale = 0.0;  // clamped to one iteration
    acq::AcquisitionSpec spec;
    spec.app = apps::make_lu_app(cfg);
    spec.mode = acq::Mode::folding;
    spec.folding = 8;
    spec.workdir = workdir;
    spec.run_uninstrumented_baseline = false;
    const auto acquired = acq::run_acquisition(spec);
    std::vector<std::vector<trace::Action>> actions;
    for (const auto& file : acquired.ti_files)
      actions.push_back(test::read_trace(file));
    fs::remove_all(workdir);
    it = cache->emplace(key, trace::TraceSet::in_memory(std::move(actions)))
             .first;
  }
  return it->second;
}

ScenarioSpec lu_on_bordereau(apps::NpbClass cls, int nprocs) {
  auto platform = std::make_shared<plat::Platform>();
  ScenarioSpec spec;
  spec.process_hosts =
      plat::build_cluster(*platform, plat::bordereau_spec(nprocs));
  spec.platform = std::move(platform);
  spec.traces = lu_traces(cls, nprocs);
  return spec;
}

/// A synthetic NPB-style pattern on a registry topology, block-deployed.
ScenarioSpec synthetic_on(const std::string& topo, trace::SyntheticPattern
                                                       pattern,
                          int nprocs, std::uint64_t iterations) {
  trace::SyntheticSpec synthetic;
  synthetic.pattern = pattern;
  synthetic.nprocs = nprocs;
  synthetic.iterations = iterations;
  std::vector<std::vector<trace::Action>> actions;
  for (int pid = 0; pid < nprocs; ++pid)
    actions.push_back(trace::expand(trace::synthetic_program(synthetic, pid)));
  auto platform = std::make_shared<plat::Platform>(plat::make_platform(topo));
  ScenarioSpec spec;
  spec.platform_label = topo;
  spec.process_hosts =
      plat::resolve_deployment_spec("block", *platform, nprocs);
  spec.platform = std::move(platform);
  spec.traces = trace::TraceSet::in_memory(std::move(actions));
  return spec;
}

}  // namespace

TEST(ShareGroupBattery, LuAt64Ranks) {
  // bordereau's 10 GbE backbone cannot bind under fewer than ten 1 GbE
  // flows, so it is a slack resource most of the time: the flows it would
  // couple start lone or fill in small components, well under half the
  // reference's solves (8,812 against 20,041). Finish times differ from
  // full_solve by at most 2.3e-16 relative, as they did before slack
  // resources (whose makespan this run repeats bit for bit).
  const ScenarioSpec spec = lu_on_bordereau(apps::NpbClass::W, 64);
  const auto stats = expect_within_budget(spec);
  ScenarioSpec full = spec;
  full.config.full_solve = true;
  EXPECT_LT(2 * stats.solver_calls,
            run_scenario(full).engine_stats.solver_calls);
}

TEST(ShareGroupBattery, LuAt256RanksEngagesHubMode) {
  const auto stats = expect_within_budget(lu_on_bordereau(apps::NpbClass::W, 256));
  EXPECT_GT(stats.hub_entries, 0u);
  EXPECT_GT(stats.solver_hub_solves, 0u);
  EXPECT_GT(stats.groups_rerated, 0u);
}

TEST(ShareGroupBattery, SyntheticCgAt256RanksOnCluster) {
  const auto stats = expect_within_budget(synthetic_on(
      "cluster:hosts=256", trace::SyntheticPattern::cg, 256, 20));
  EXPECT_GT(stats.solver_hub_solves, 0u);
}

TEST(ShareGroupBattery, SyntheticFtAt256RanksOnCluster) {
  expect_within_budget(synthetic_on("cluster:hosts=256",
                                    trace::SyntheticPattern::ft, 256, 2));
}

TEST(ShareGroupBattery, BackboneDegradeTimelineLeavesAndReentersHubMode) {
  // A flap train on the saturated backbone: each capacity change dissolves
  // the group, and the refill forms it again.
  ScenarioSpec spec = lu_on_bordereau(apps::NpbClass::W, 256);
  FaultSpec flaps;
  flaps.kind = FaultSpec::Kind::link;
  flaps.target = "bordereau-backbone";
  flaps.at_time = 0.001;
  flaps.until_time = 0.002;
  flaps.repeat = 3;
  flaps.period = 0.003;
  flaps.bandwidth_factor = 0.5;
  spec.faults.push_back(flaps);
  const auto stats = expect_within_budget(std::move(spec));
  EXPECT_GE(stats.hub_exits, 2u);
  EXPECT_GE(stats.hub_entries, 3u);
}

TEST(ShareGroupBattery, GraphTopologies) {
  for (const char* topo : {"dragonfly:groups=9,routers=4,hosts=2",
                           "fattree:k=6", "torus:dims=4x4x4,hosts=1"}) {
    SCOPED_TRACE(topo);
    expect_within_budget(
        synthetic_on(topo, trace::SyntheticPattern::cg, 64, 20));
  }
}
