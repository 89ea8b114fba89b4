#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "apps/ring.hpp"
#include "apps/stencil.hpp"
#include "platform/cluster.hpp"
#include "platform/deployment.hpp"
#include "platform/platform_file.hpp"
#include "replay/scenario.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "trace/trace_format.hpp"

using namespace tir;
using namespace tir::replay;
namespace fs = std::filesystem;

namespace {

class ReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tir_replay_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

// The Figure 1 trace, in memory: p0 kicks the ring off; everyone else
// receives first (exactly the figure's right-hand side).
std::vector<std::vector<trace::Action>> figure1_actions() {
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(4);
  per[0] = {
      {0, ActionType::compute, -1, 1e6, 0, 0},
      {0, ActionType::send, 1, 1e6, 0, 0},
      {0, ActionType::recv, 3, 0, 0, 0},
  };
  for (int p = 1; p < 4; ++p) {
    per[static_cast<std::size_t>(p)] = {
        {p, ActionType::recv, p - 1, 0, 0, 0},
        {p, ActionType::compute, -1, 1e6, 0, 0},
        {p, ActionType::send, (p + 1) % 4, 1e6, 0, 0},
    };
  }
  return per;
}

trace::TraceSet figure1_traces() {
  return trace::TraceSet::in_memory(figure1_actions());
}

// One replay of `traces` on `platform`, process i on hosts[i].
ScenarioSpec spec_for(const plat::Platform& platform, std::vector<int> hosts,
                      trace::TraceSet traces) {
  ScenarioSpec spec;
  spec.platform = share_platform(platform);
  spec.process_hosts = std::move(hosts);
  spec.traces = std::move(traces);
  return spec;
}

}  // namespace

TEST_F(ReplayTest, Figure1TraceReplays) {
  plat::Platform platform;
  const auto hosts = plat::build_cluster(platform, plat::bordereau_spec(4));
  const ReplayResult result =
      run_scenario(spec_for(platform, hosts, figure1_traces()));
  EXPECT_EQ(result.actions_replayed, 12u);
  // Ring of 4: computes are 1 Mflop at 1.17 Gflop/s, messages 1 MB.
  EXPECT_GT(result.simulated_time, 4 * (1e6 / 1.17e9));
  EXPECT_LT(result.simulated_time, 1.0);
}

TEST_F(ReplayTest, ReplayIsDeterministic) {
  plat::Platform platform;
  const auto hosts = plat::build_cluster(platform, plat::bordereau_spec(4));
  const ScenarioSpec spec = spec_for(platform, hosts, figure1_traces());
  const double t1 = run_scenario(spec).simulated_time;
  const double t2 = run_scenario(spec).simulated_time;
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST_F(ReplayTest, AcquiredRingTraceReplaysToDirectExecutionTime) {
  // Golden pipeline: acquire -> extract -> replay on the same platform
  // must reproduce the direct execution time (the application computes at
  // full efficiency, so no calibration mismatch exists).
  acq::AcquisitionSpec spec;
  spec.app = apps::make_ring_app(apps::RingConfig{.rounds = 3});
  spec.workdir = dir_;
  const auto report = acq::run_acquisition(spec);
  const double direct = report.app_time;

  const auto ap = acq::build_acquisition_platform(acq::Mode::regular, 4, 1);
  const auto traces = trace::TraceSet::per_process_files(report.ti_files);
  const double replayed =
      run_scenario(spec_for(ap.platform, ap.rank_hosts, traces)).simulated_time;
  EXPECT_LT(tir::relative_error(replayed, direct), 0.02);
}

TEST_F(ReplayTest, StencilWithNonBlockingOpsReplaysFaithfully) {
  apps::StencilConfig cfg;
  cfg.nprocs = 4;
  cfg.grid = 128;
  cfg.iterations = 10;
  cfg.efficiency = 1.0;  // avoid calibration concerns
  acq::AcquisitionSpec spec;
  spec.app = apps::make_stencil_app(cfg);
  spec.workdir = dir_;
  const auto report = acq::run_acquisition(spec);

  const auto ap = acq::build_acquisition_platform(acq::Mode::regular, 4, 1);
  const auto traces = trace::TraceSet::per_process_files(report.ti_files);
  const double replayed =
      run_scenario(spec_for(ap.platform, ap.rank_hosts, traces)).simulated_time;
  EXPECT_LT(tir::relative_error(replayed, report.app_time), 0.05);
}

TEST_F(ReplayTest, ModeInvarianceOfSimulatedTime) {
  // §6.2's punchline: "with time-independent traces, the simulated time is
  // more or less the same whatever the acquisition scenario is" (< 1%).
  // Class W keeps the run compute-dominated like the paper's instances;
  // at toy scales, latency-alignment noise can exceed the counter noise.
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::W;
  cfg.nprocs = 4;
  cfg.iteration_scale = 0.02;

  std::vector<double> times;
  int index = 0;
  for (const auto mode : {acq::Mode::regular, acq::Mode::folding,
                          acq::Mode::scattering}) {
    acq::AcquisitionSpec spec;
    spec.app = apps::make_lu_app(cfg);
    spec.mode = mode;
    spec.folding = mode == acq::Mode::folding ? 4 : 1;
    spec.workdir = dir_ / std::to_string(index++);
    spec.run_uninstrumented_baseline = false;
    spec.instrument.counter_jitter = 2e-3;  // hardware counter noise
    spec.instrument.seed = 100u + static_cast<unsigned>(index);
    const auto report = acq::run_acquisition(spec);

    plat::Platform target;
    const auto hosts =
        plat::build_cluster(target, plat::bordereau_physical_spec(4));
    const auto traces = trace::TraceSet::per_process_files(report.ti_files);
    times.push_back(
        run_scenario(spec_for(target, hosts, traces)).simulated_time);
  }
  for (const double t : times)
    EXPECT_LT(tir::relative_error(t, times[0]), 0.01)
        << "replay time varies across acquisition modes";
}

TEST_F(ReplayTest, TimedTraceIsRecordedInOrder) {
  plat::Platform platform;
  const auto hosts = plat::build_cluster(platform, plat::bordereau_spec(4));
  ScenarioSpec spec = spec_for(platform, hosts, figure1_traces());
  spec.config.record_timed_trace = true;
  const ReplayResult result = run_scenario(spec);
  ASSERT_EQ(result.timed_trace.size(), 12u);
  double max_end = 0;
  for (const auto& row : result.timed_trace) {
    EXPECT_LE(row.start, row.end);
    max_end = std::max(max_end, row.end);
  }
  EXPECT_DOUBLE_EQ(max_end, result.simulated_time);
}

namespace {

// FNV-1a over 64-bit words, a double by its bits.
class ReplayDigest {
 public:
  void fold(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  void fold_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    fold(bits);
  }
  void fold_int(long long v) { fold(static_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

// Every ActionType on four ranks: eager (<= 64 KiB) and rendezvous sends,
// Isend/Irecv pairs drained by `wait` (ranks 0 and 2) and by `waitAll`
// (ranks 1 and 3), a `waitAll` with nothing pending, every collective and
// `comm_size`.
std::vector<std::vector<trace::Action>> every_action_type() {
  using trace::ActionType;
  std::vector<std::vector<trace::Action>> per(4);
  const auto add = [&per](int p, ActionType type, int partner = -1,
                          double volume = 0, double volume2 = 0,
                          int comm_size = 0) {
    per[static_cast<std::size_t>(p)].push_back(
        {p, type, partner, volume, volume2, comm_size});
  };
  for (int p = 0; p < 4; ++p) {
    add(p, ActionType::comm_size, -1, 0, 0, 4);
    add(p, ActionType::compute, -1, 1e6 * (p + 1));
  }
  add(0, ActionType::send, 1, 1e3);  // eager
  add(1, ActionType::recv, 0, 1e3);
  add(1, ActionType::send, 0, 1e6);  // rendezvous
  add(0, ActionType::recv, 1, 1e6);
  add(2, ActionType::send, 3, 2e5);  // rendezvous
  add(3, ActionType::recv, 2);
  add(3, ActionType::send, 2, 5e2);  // eager
  add(2, ActionType::recv, 3, 5e2);

  add(0, ActionType::isend, 2, 5e5);
  add(0, ActionType::irecv, 2, 1e3);
  add(0, ActionType::wait);
  add(0, ActionType::wait);
  add(2, ActionType::irecv, 0, 5e5);
  add(2, ActionType::isend, 0, 1e3);
  add(2, ActionType::wait);
  add(2, ActionType::wait);
  add(1, ActionType::isend, 3, 2e3);
  add(1, ActionType::irecv, 3, 3e5);
  add(1, ActionType::waitall);
  add(3, ActionType::irecv, 1, 2e3);
  add(3, ActionType::isend, 1, 3e5);
  add(3, ActionType::compute, -1, 5e5);
  add(3, ActionType::waitall);

  for (int p = 0; p < 4; ++p) {
    add(p, ActionType::waitall);  // nothing pending
    add(p, ActionType::barrier);
    add(p, ActionType::bcast, -1, 1e5);
    add(p, ActionType::reduce, -1, 1e5, 1e6);
    add(p, ActionType::allreduce, -1, 1e4, 1e5);
    add(p, ActionType::gather, -1, 2e4);
    add(p, ActionType::allgather, -1, 3e4);
    add(p, ActionType::alltoall, -1, 5e4);
    add(p, ActionType::compute, -1, 2e5 * (4 - p));
  }
  return per;
}

}  // namespace

TEST_F(ReplayTest, EveryActionTypeRepeatsTheParentBitForBit) {
  // Pins what a replay of every action type reports, bit for bit: the
  // makespan, each process's finish time, every timed-trace row, every rank
  // span and the engine's resume, activity and event counts. The digest was
  // recorded before the replay actor dispatched on ActionType itself, when
  // each action went through a per-keyword handler table.
  const auto actions = every_action_type();
  std::set<trace::ActionType> types;
  std::size_t total = 0;
  for (const auto& mine : actions) {
    total += mine.size();
    for (const trace::Action& a : mine) types.insert(a.type);
  }
  ASSERT_EQ(types.size(), trace::kActionTypes);

  plat::Platform platform;
  const auto hosts = plat::build_cluster(platform, plat::bordereau_spec(4));
  ScenarioSpec spec = spec_for(platform, hosts,
                               trace::TraceSet::in_memory(actions));
  spec.config.compute_efficiency = 0.8;
  spec.config.record_timed_trace = true;
  spec.config.record_spans = true;
  const ReplayResult result = run_scenario(spec);
  ASSERT_EQ(result.actions_replayed, total);
  ASSERT_EQ(result.timed_trace.size(), total);
  ASSERT_TRUE(result.spans);
  ASSERT_EQ(result.spans->tracks(), 4);

  ReplayDigest digest;
  digest.fold_double(result.simulated_time);
  for (const double t : result.process_finish_times) digest.fold_double(t);
  for (const TimedAction& row : result.timed_trace) {
    digest.fold_int(row.pid);
    digest.fold_int(static_cast<int>(row.action.type));
    digest.fold_int(row.action.partner);
    digest.fold_double(row.action.volume);
    digest.fold_double(row.action.volume2);
    digest.fold_int(row.action.comm_size);
    digest.fold_double(row.start);
    digest.fold_double(row.end);
  }
  for (int track = 0; track < result.spans->tracks(); ++track) {
    const auto& spans = result.spans->track_spans(track);
    EXPECT_FALSE(spans.empty()) << "rank " << track;
    digest.fold(spans.size());
    for (const obs::Span& s : spans) {
      digest.fold_int(static_cast<int>(s.kind));
      digest.fold_int(s.peer);
      digest.fold_double(s.start);
      digest.fold_double(s.end);
      digest.fold_double(s.volume);
    }
  }
  digest.fold(result.engine_stats.resumes);
  digest.fold(result.engine_stats.activities);
  digest.fold(result.engine_stats.heap_events);
  EXPECT_EQ(digest.value(), 0x048b47a6014b7a26ull);
}

TEST_F(ReplayTest, CommSizeMismatchThrows) {
  plat::Platform platform;
  const auto hosts = plat::build_cluster(platform, plat::bordereau_spec(2));
  std::vector<std::vector<trace::Action>> per(2);
  per[0] = {{0, trace::ActionType::comm_size, -1, 0, 0, 8}};
  per[1] = {{1, trace::ActionType::comm_size, -1, 0, 0, 8}};
  const auto traces = trace::TraceSet::in_memory(std::move(per));
  EXPECT_THROW(run_scenario(spec_for(platform, {hosts[0], hosts[1]}, traces)),
               SimError);
}

TEST_F(ReplayTest, WaitWithoutPendingRequestThrows) {
  plat::Platform platform;
  const auto hosts = plat::build_cluster(platform, plat::bordereau_spec(1));
  std::vector<std::vector<trace::Action>> per(1);
  per[0] = {{0, trace::ActionType::wait, -1, 0, 0, 0}};
  const auto traces = trace::TraceSet::in_memory(std::move(per));
  EXPECT_THROW(run_scenario(spec_for(platform, {hosts[0]}, traces)), SimError);
}

TEST_F(ReplayTest, DeploymentTraceCountMismatchThrows) {
  plat::Platform platform;
  const auto hosts = plat::build_cluster(platform, plat::bordereau_spec(4));
  EXPECT_THROW(run_scenario(spec_for(platform, {hosts[0]}, figure1_traces())),
               SimError);
}

TEST_F(ReplayTest, ReplayFilesWorkflowMatchesFigure4) {
  // Platform XML (Fig 5) + deployment XML (Fig 6) + trace files -> time.
  const auto platform_xml = dir_ / "platform.xml";
  std::ofstream(platform_xml) << plat::cluster_to_xml(
      plat::bordereau_spec(4), "AS_bordeaux");

  const auto trace_files =
      trace::write_split_traces(dir_ / "traces", figure1_actions());

  plat::Deployment deployment;
  for (int p = 0; p < 4; ++p)
    deployment.processes.push_back(plat::ProcessPlacement{
        "p" + std::to_string(p),
        "bordereau-" + std::to_string(p) + ".bordeaux.grid5000.fr",
        {"SG_process" + std::to_string(p) + ".trace"}});
  const auto deployment_xml = dir_ / "deployment.xml";
  std::ofstream(deployment_xml) << deployment.to_xml();

  const ReplayResult result =
      replay_files(platform_xml, deployment_xml, trace_files);
  EXPECT_EQ(result.actions_replayed, 12u);
  EXPECT_GT(result.simulated_time, 0.0);
}

TEST_F(ReplayTest, FasterTargetPlatformPredictsShorterTime) {
  // The "what if?" scenario the paper motivates: same trace, two target
  // platforms.
  const auto traces = figure1_traces();
  plat::Platform slow;
  auto spec = plat::bordereau_spec(4);
  const auto slow_hosts = plat::build_cluster(slow, spec);
  plat::Platform fast;
  spec.power *= 4;
  spec.bandwidth *= 4;
  spec.prefix = "fast-";
  const auto fast_hosts = plat::build_cluster(fast, spec);
  const double t_slow =
      run_scenario(spec_for(slow, slow_hosts, traces)).simulated_time;
  const double t_fast =
      run_scenario(spec_for(fast, fast_hosts, traces)).simulated_time;
  EXPECT_LT(t_fast, t_slow);
}

TEST_F(ReplayTest, LuReplayPredictsDirectExecutionWithFlatEfficiency) {
  // With a flat-efficiency app and a target platform clocked at exactly
  // that rate, replay must land on the direct execution time.
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::S;
  cfg.nprocs = 4;
  cfg.iteration_scale = 0.1;
  cfg.flat_efficiency = true;
  cfg.flat_rate_fraction = 0.225;

  acq::AcquisitionSpec spec;
  spec.app = apps::make_lu_app(cfg);
  spec.workdir = dir_;
  const auto report = acq::run_acquisition(spec);

  plat::Platform target;
  auto target_spec = plat::bordereau_spec(4);
  target_spec.power = plat::kBordereauPeakFlops * 0.225;  // perfectly calibrated
  const auto hosts = plat::build_cluster(target, target_spec);
  const auto traces = trace::TraceSet::per_process_files(report.ti_files);
  const double replayed =
      run_scenario(spec_for(target, hosts, traces)).simulated_time;
  EXPECT_LT(tir::relative_error(replayed, report.app_time), 0.05);
}
