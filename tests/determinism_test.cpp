// Determinism regression battery: a replay is a pure function of its
// ScenarioSpec. Two runs of the same scenario — in the same process,
// across SweepRunner worker counts, with or without the observability
// recorder — must agree bitwise on simulated time and produce identical
// span streams. This is what licenses the sweep layer to parallelise
// freely and the observability layer to claim it never perturbs results.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "obs/recorder.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "replay/sweep.hpp"
#include "trace/trace_set.hpp"

using namespace tir;
using namespace tir::replay;

namespace {

// A workload touching every span source: computes, an eager+rendezvous
// ring, nonblocking pairs with waits, and the collective family.
std::vector<std::vector<trace::Action>> mixed_actions(int nprocs,
                                                      int rounds) {
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p)
    per[static_cast<std::size_t>(p)].push_back(
        {p, ActionType::comm_size, -1, 0, 0, nprocs});
  for (int r = 0; r < rounds; ++r) {
    const double bytes = r % 2 == 0 ? 16 * 1024.0 : 256 * 1024.0;  // both
                                                                   // protocols
    for (int p = 0; p < nprocs; ++p) {
      auto& mine = per[static_cast<std::size_t>(p)];
      mine.push_back({p, ActionType::compute, -1, 2e5, 0, 0});
      if (p == 0) {
        mine.push_back({p, ActionType::send, 1, bytes, 0, 0});
        mine.push_back({p, ActionType::recv, nprocs - 1, 0, 0, 0});
      } else {
        mine.push_back({p, ActionType::recv, p - 1, 0, 0, 0});
        mine.push_back({p, ActionType::send, (p + 1) % nprocs, bytes, 0, 0});
      }
      mine.push_back({p, ActionType::isend, (p + 1) % nprocs, 1024, 0, 0});
      mine.push_back({p, ActionType::irecv, (p + nprocs - 1) % nprocs,
                      0, 0, 0});
      mine.push_back({p, ActionType::waitall, -1, 0, 0, 0});
      mine.push_back({p, ActionType::allreduce, -1, 4096, 1e4, 0});
      mine.push_back({p, ActionType::bcast, -1, 8192, 0, 0});
      mine.push_back({p, ActionType::barrier, -1, 0, 0, 0});
    }
  }
  return per;
}

ScenarioSpec make_spec(const std::shared_ptr<const plat::Platform>& platform,
                       const std::vector<int>& hosts,
                       const trace::TraceSet& traces) {
  ScenarioSpec spec;
  spec.name = "determinism";
  spec.platform = platform;
  spec.process_hosts = hosts;
  spec.traces = traces;
  spec.config.record_spans = true;
  return spec;
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

TEST(DeterminismTest, SameScenarioTwiceIsBitIdentical) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(8));
  const auto traces = trace::TraceSet::in_memory(mixed_actions(8, 3));
  const ScenarioSpec spec = make_spec(platform, hosts, traces);

  const ReplayResult first = run_scenario(spec);
  const ReplayResult second = run_scenario(spec);

  EXPECT_TRUE(bit_equal(first.simulated_time, second.simulated_time))
      << first.simulated_time << " vs " << second.simulated_time;
  EXPECT_EQ(first.actions_replayed, second.actions_replayed);
  ASSERT_EQ(first.process_finish_times.size(),
            second.process_finish_times.size());
  for (std::size_t p = 0; p < first.process_finish_times.size(); ++p)
    EXPECT_TRUE(bit_equal(first.process_finish_times[p],
                          second.process_finish_times[p]))
        << "process " << p;

  ASSERT_TRUE(first.spans && second.spans);
  EXPECT_GT(first.spans->total_spans(), 0u);
  EXPECT_GT(first.spans->edges().size(), 0u);
  EXPECT_TRUE(first.spans->same_streams(*second.spans));
}

TEST(DeterminismTest, RecorderOnAndOffAgreeOnSimulatedTime) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(8));
  const auto traces = trace::TraceSet::in_memory(mixed_actions(8, 3));

  ScenarioSpec off = make_spec(platform, hosts, traces);
  off.config.record_spans = false;
  ScenarioSpec on = make_spec(platform, hosts, traces);
  ScenarioSpec detail = make_spec(platform, hosts, traces);
  detail.config.span_activity_detail = true;

  const ReplayResult r_off = run_scenario(off);
  const ReplayResult r_on = run_scenario(on);
  const ReplayResult r_detail = run_scenario(detail);

  EXPECT_FALSE(r_off.spans);
  ASSERT_TRUE(r_on.spans);
  ASSERT_TRUE(r_detail.spans);
  // Observation must not perturb the simulation.
  EXPECT_TRUE(bit_equal(r_off.simulated_time, r_on.simulated_time));
  EXPECT_TRUE(bit_equal(r_off.simulated_time, r_detail.simulated_time));
  EXPECT_EQ(r_off.engine_stats.resumes, r_on.engine_stats.resumes);
  // Detail mode adds host tracks but leaves rank streams untouched.
  EXPECT_EQ(r_on.spans->host_tracks(), 0);
  EXPECT_GT(r_detail.spans->host_tracks(), 0);
  ASSERT_EQ(r_on.spans->tracks(), r_detail.spans->tracks());
  for (int t = 0; t < r_on.spans->tracks(); ++t)
    EXPECT_EQ(r_on.spans->track_spans(t), r_detail.spans->track_spans(t))
        << "rank " << t;
}

TEST(DeterminismTest, SpanStreamsIdenticalAcrossSweepWorkerCounts) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(8));
  const auto traces = trace::TraceSet::in_memory(mixed_actions(8, 2));

  std::vector<ScenarioSpec> scenarios;
  for (int i = 0; i < 24; ++i) {
    ScenarioSpec spec = make_spec(platform, hosts, traces);
    spec.name = "s" + std::to_string(i);
    spec.config.compute_efficiency = 0.5 + 0.02 * i;
    scenarios.push_back(std::move(spec));
  }

  const auto serial = run_sweep(scenarios, {.workers = 1});
  const auto parallel = run_sweep(scenarios, {.workers = 8});

  ASSERT_EQ(serial.size(), scenarios.size());
  ASSERT_EQ(parallel.size(), scenarios.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    EXPECT_TRUE(bit_equal(serial[i].result.simulated_time,
                          parallel[i].result.simulated_time))
        << "scenario " << i;
    ASSERT_TRUE(serial[i].result.spans && parallel[i].result.spans);
    EXPECT_TRUE(
        serial[i].result.spans->same_streams(*parallel[i].result.spans))
        << "scenario " << i;
  }
}

TEST(DeterminismTest, FaultyScenarioSpansAreReproducible) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(4));
  const auto traces = trace::TraceSet::in_memory(mixed_actions(4, 3));

  ScenarioSpec spec = make_spec(platform, hosts, traces);
  FaultSpec fault;
  fault.kind = FaultSpec::Kind::host;
  fault.id = 1;
  fault.at_time = 0.001;
  fault.compute_factor = 0.25;
  spec.faults.push_back(fault);

  const ReplayResult first = run_scenario(spec);
  const ReplayResult second = run_scenario(spec);
  ASSERT_TRUE(first.spans && second.spans);
  ASSERT_EQ(first.spans->faults().size(), 1u);
  EXPECT_TRUE(first.spans->same_streams(*second.spans));
  EXPECT_TRUE(bit_equal(first.simulated_time, second.simulated_time));
}
