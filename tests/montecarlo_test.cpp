// Monte-Carlo driver: bit-identical summaries across worker counts, sane
// statistics against the deterministic baseline, and a sensitivity ranking
// that agrees with the observability layer's critical path.
#include <gtest/gtest.h>

#include <cstring>

#include "obs/report.hpp"
#include "platform/cluster.hpp"
#include "replay/montecarlo.hpp"
#include "support/error.hpp"

using namespace tir;
using namespace tir::replay;
using trace::Action;
using trace::ActionType;

namespace {

/// Four ranks on four hosts; rank 0 computes ~4x the others, then fans a
/// small message out to each — the critical path runs through rank 0's
/// host, so both obs and the MC sensitivity ranking must blame it.
ScenarioSpec rank0_heavy(const std::shared_ptr<const plat::Platform>& platform,
                         const std::vector<int>& hosts) {
  std::vector<std::vector<Action>> streams(4);
  streams[0].push_back({0, ActionType::compute, -1, 4e9, 0, 0});
  for (int peer = 1; peer < 4; ++peer) {
    streams[0].push_back({0, ActionType::send, peer, 1024, 0, 0});
    streams[peer].push_back({peer, ActionType::compute, -1, 1e9, 0, 0});
    streams[peer].push_back({peer, ActionType::recv, 0, 1024, 0, 0});
  }
  ScenarioSpec spec;
  spec.name = "rank0-heavy";
  spec.platform = platform;
  spec.process_hosts = hosts;
  spec.traces = trace::TraceSet::in_memory(std::move(streams));
  return spec;
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

TEST(MonteCarloTest, SummaryIsBitIdenticalAcrossWorkerCounts) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(4));
  const auto spec = rank0_heavy(platform, hosts);

  PerturbSpec perturb;
  perturb.host_noise = 0.1;
  perturb.link_bw_noise = 0.05;

  McOptions serial{.replicas = 8, .seed = 42, .workers = 1};
  McOptions parallel = serial;
  parallel.workers = 4;
  const McSummary a = run_monte_carlo(spec, perturb, serial);
  const McSummary b = run_monte_carlo(spec, perturb, parallel);

  EXPECT_EQ(a.failures, 0);
  EXPECT_TRUE(bit_equal(a.mean, b.mean));
  EXPECT_TRUE(bit_equal(a.stddev, b.stddev));
  EXPECT_TRUE(bit_equal(a.ci95, b.ci95));
  EXPECT_TRUE(bit_equal(a.min, b.min));
  EXPECT_TRUE(bit_equal(a.max, b.max));
  EXPECT_TRUE(bit_equal(a.baseline, b.baseline));
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    EXPECT_TRUE(bit_equal(a.samples[i], b.samples[i])) << "replica " << i;
  ASSERT_EQ(a.sensitivity.size(), b.sensitivity.size());
  for (std::size_t i = 0; i < a.sensitivity.size(); ++i) {
    EXPECT_EQ(a.sensitivity[i].kind, b.sensitivity[i].kind);
    EXPECT_EQ(a.sensitivity[i].id, b.sensitivity[i].id);
    EXPECT_TRUE(bit_equal(a.sensitivity[i].impact, b.sensitivity[i].impact));
  }
}

TEST(MonteCarloTest, StatisticsBracketTheBaseline) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(4));
  const auto spec = rank0_heavy(platform, hosts);

  PerturbSpec perturb;
  perturb.host_noise = 0.05;
  const McSummary s =
      run_monte_carlo(spec, perturb, {.replicas = 16, .seed = 1});

  EXPECT_EQ(s.replicas, 16);
  EXPECT_EQ(s.failures, 0);
  EXPECT_GT(s.baseline, 0.0);
  EXPECT_GT(s.stddev, 0.0);
  EXPECT_LE(s.min, s.mean);
  EXPECT_LE(s.mean, s.max);
  EXPECT_LT(s.ci95, s.stddev);  // 1.96 / sqrt(16) < 1
  // 5% host noise moves a compute-bound makespan by the same order; the
  // mean stays within 25% of the deterministic point.
  EXPECT_NEAR(s.mean, s.baseline, 0.25 * s.baseline);
  EXPECT_FALSE(s.render().empty());
}

// The acceptance cross-check: the resource the MC sensitivity ranking puts
// on top is the host the obs critical path already runs through.
TEST(MonteCarloTest, TopSensitivityMatchesTheCriticalPathHotRank) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(4));
  auto spec = rank0_heavy(platform, hosts);

  // Where does the observability layer put the critical path?
  auto observed = spec;
  observed.config.record_spans = true;
  const auto result = run_scenario(observed);
  ASSERT_NE(result.spans, nullptr);
  const obs::TimelineReport report = obs::analyze(*result.spans);
  const int hot = report.hot_rank();
  ASSERT_EQ(hot, 0);  // rank 0 carries 4x the compute

  // Which resource moves the Monte-Carlo makespan most?
  PerturbSpec perturb;
  perturb.host_noise = 0.1;
  const McSummary s =
      run_monte_carlo(spec, perturb, {.replicas = 24, .seed = 7});
  ASSERT_FALSE(s.sensitivity.empty());
  const SensitivityEntry& top = s.sensitivity.front();
  EXPECT_EQ(top.kind, FaultSpec::Kind::host);
  EXPECT_EQ(top.id, spec.process_hosts[static_cast<std::size_t>(hot)]);
  // Faster hot host => shorter makespan: the slope is negative and the
  // correlation strongly so.
  EXPECT_LT(top.slope, 0.0);
  EXPECT_LT(top.correlation, -0.5);
}

TEST(MonteCarloTest, ReplicaFailuresAreCountedNotFatal) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(4));
  auto spec = rank0_heavy(platform, hosts);
  // A base fault with a bad target fails every replica identically.
  FaultSpec bad;
  bad.kind = FaultSpec::Kind::host;
  bad.target = "no-such-host";
  bad.compute_factor = 0.5;
  spec.faults.push_back(bad);

  PerturbSpec perturb;
  perturb.host_noise = 0.05;
  EXPECT_THROW(run_monte_carlo(spec, perturb, {.replicas = 4}), SimError);
}
