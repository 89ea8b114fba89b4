// Tests for the extended collectives (gather / allgather / alltoall), the
// waitAll replay action, and the EP / FT / CG application skeletons.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "acquisition/acquisition.hpp"
#include "apps/npb_extra.hpp"
#include "mpisim/mpi.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "trace_formats.hpp"

using namespace tir;
using namespace tir::mpi;
namespace fs = std::filesystem;

namespace {

plat::Platform test_platform(int nodes) {
  plat::Platform p;
  plat::ClusterSpec spec;
  spec.prefix = "n-";
  spec.count = nodes;
  spec.power = 1e9;
  spec.bandwidth = 1e8;
  spec.latency = 1e-5;
  spec.backbone_bandwidth = 1e9;
  spec.backbone_latency = 1e-5;
  build_cluster(p, spec);
  p.set_net_model(plat::PiecewiseNetModel::affine_model());
  return p;
}

std::vector<int> one_per_host(int n) {
  std::vector<int> hosts(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) hosts[static_cast<std::size_t>(i)] = i;
  return hosts;
}

// One replay of `traces` on `platform`, process i on hosts[i].
replay::ScenarioSpec spec_for(const plat::Platform& platform,
                              std::vector<int> hosts, trace::TraceSet traces) {
  replay::ScenarioSpec spec;
  spec.platform = replay::share_platform(platform);
  spec.process_hosts = std::move(hosts);
  spec.traces = std::move(traces);
  return spec;
}

double run_collective(int nprocs, Config cfg,
                      std::function<sim::Co<void>(Rank&)> body) {
  const auto p = test_platform(nprocs);
  sim::Engine engine(p);
  World world(engine, one_per_host(nprocs), cfg);
  world.launch(std::move(body));
  engine.run();
  world.check_quiescent();
  return engine.now();
}

}  // namespace

class ExtCollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(ExtCollectiveSizes, GatherCompletes) {
  const double t =
      run_collective(GetParam(), Config{}, [](Rank& r) -> sim::Co<void> {
        co_await r.gather(4096, 0);
      });
  EXPECT_GE(t, 0.0);
}

TEST_P(ExtCollectiveSizes, AllgatherCompletes) {
  const double t =
      run_collective(GetParam(), Config{}, [](Rank& r) -> sim::Co<void> {
        co_await r.allgather(4096);
      });
  EXPECT_GE(t, 0.0);
}

TEST_P(ExtCollectiveSizes, AlltoallCompletes) {
  const double t =
      run_collective(GetParam(), Config{}, [](Rank& r) -> sim::Co<void> {
        co_await r.alltoall(4096);
      });
  EXPECT_GE(t, 0.0);
}

TEST_P(ExtCollectiveSizes, BackToBackMixedCollectives) {
  const int n = GetParam();
  int done = 0;
  const auto p = test_platform(n);
  sim::Engine engine(p);
  World world(engine, one_per_host(n));
  world.launch([&](Rank& r) -> sim::Co<void> {
    for (int i = 0; i < 3; ++i) {
      co_await r.gather(256, 0);
      co_await r.allgather(256);
      co_await r.alltoall(128);
      co_await r.barrier();
    }
    ++done;
  });
  engine.run();
  world.check_quiescent();
  EXPECT_EQ(done, n);
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, ExtCollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 32));

TEST(ExtCollectives, GatherMovesTheRightVolume) {
  // At 100 MB/s with a root NIC bottleneck, gathering (p-1) x 1 MB blocks
  // takes at least (p-1) MB / 100 MB/s at the root.
  const double t = run_collective(8, Config{}, [](Rank& r) -> sim::Co<void> {
    co_await r.gather(1 << 20, 0);
  });
  EXPECT_GT(t, 7.0 * (1 << 20) / 1e8);
  EXPECT_LT(t, 4.0 * 7.0 * (1 << 20) / 1e8);
}

TEST(ExtCollectives, AllgatherRingMatchesAnalyticCost) {
  // Ring: p-1 steps of one block over the NIC; every rank busy every step.
  const int p = 8;
  const std::uint64_t block = 1 << 20;
  const double t = run_collective(p, Config{}, [&](Rank& r) -> sim::Co<void> {
    co_await r.allgather(block);
  });
  const double step = static_cast<double>(block) / 1e8;
  EXPECT_GT(t, (p - 1) * step * 0.9);
  EXPECT_LT(t, (p - 1) * step * 2.5);
}

TEST(ExtCollectives, AlltoallScalesQuadraticallyInVolume) {
  const auto run_one = [](int p, std::uint64_t bytes) {
    return run_collective(p, Config{}, [bytes](Rank& r) -> sim::Co<void> {
      co_await r.alltoall(bytes);
    });
  };
  // Total volume p*(p-1)*bytes: doubling p roughly quadruples the data,
  // but each rank's NIC carries (p-1)*bytes, so time roughly doubles.
  const double t8 = run_one(8, 1 << 18);
  const double t16 = run_one(16, 1 << 18);
  EXPECT_GT(t16 / t8, 1.6);
  EXPECT_LT(t16 / t8, 3.0);
}

TEST(ExtCollectives, FlatAllgatherAgreesOnVolume) {
  Config flat;
  flat.collectives = CollectiveAlgo::flat;
  const double t = run_collective(8, flat, [](Rank& r) -> sim::Co<void> {
    co_await r.allgather(4096);
  });
  EXPECT_GT(t, 0.0);
}

// ---------------------------------------------------------------------------
// Trace round trips and replay of the new actions.
// ---------------------------------------------------------------------------

TEST(ExtActions, KeywordsRoundTrip) {
  using trace::parse_line;
  using trace::to_line;
  for (const char* line : {"p0 gather 4096", "p1 allGather 8192",
                           "p2 allToAll 1024", "p3 waitAll"}) {
    EXPECT_EQ(to_line(parse_line(line)), line);
  }
}

TEST(ExtActions, ReplayRunsNewCollectives) {
  using trace::Action;
  using trace::ActionType;
  const auto p = test_platform(4);
  std::vector<std::vector<Action>> per(4);
  for (int r = 0; r < 4; ++r) {
    per[static_cast<std::size_t>(r)] = {
        {r, ActionType::comm_size, -1, 0, 0, 4},
        {r, ActionType::gather, -1, 1024, 0, 0},
        {r, ActionType::allgather, -1, 1024, 0, 0},
        {r, ActionType::alltoall, -1, 512, 0, 0},
    };
  }
  const auto traces = trace::TraceSet::in_memory(std::move(per));
  const auto result =
      replay::run_scenario(spec_for(p, one_per_host(4), traces));
  EXPECT_EQ(result.actions_replayed, 16u);
  EXPECT_GT(result.simulated_time, 0.0);
}

TEST(ExtActions, WaitAllCompletesEveryPendingRequest) {
  using trace::Action;
  using trace::ActionType;
  const auto p = test_platform(2);
  std::vector<std::vector<Action>> per(2);
  per[0] = {
      {0, ActionType::isend, 1, 2048, 0, 0},
      {0, ActionType::isend, 1, 2048, 0, 0},
      {0, ActionType::isend, 1, 2048, 0, 0},
      {0, ActionType::waitall, -1, 0, 0, 0},
  };
  per[1] = {
      {1, ActionType::irecv, 0, 2048, 0, 0},
      {1, ActionType::irecv, 0, 2048, 0, 0},
      {1, ActionType::irecv, 0, 2048, 0, 0},
      {1, ActionType::waitall, -1, 0, 0, 0},
  };
  const auto traces = trace::TraceSet::in_memory(std::move(per));
  EXPECT_NO_THROW(replay::run_scenario(spec_for(p, one_per_host(2), traces)));
}

TEST(ExtActions, AcquisitionExtractsNewCollectives) {
  apps::AppDesc app;
  app.name = "coll-probe";
  app.nprocs = 4;
  app.body = [](mpi::MpiApi& mpi) -> sim::Co<void> {
    co_await mpi.compute(1e6);
    co_await mpi.gather(2048, 0);
    co_await mpi.allgather(1024);
    co_await mpi.alltoall(512);
  };
  const auto dir = fs::temp_directory_path() /
                   ("tir_extcoll_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  acq::AcquisitionSpec spec;
  spec.app = app;
  spec.workdir = dir;
  const auto report = acq::run_acquisition(spec);
  const auto actions = test::read_trace(report.ti_files[2]);
  std::vector<std::string> keywords;
  for (const auto& a : actions)
    keywords.emplace_back(trace::action_keyword(a.type));
  const std::vector<std::string> expected{"comm_size", "compute", "gather",
                                          "allGather", "allToAll"};
  EXPECT_EQ(keywords, expected);
  for (const auto& a : actions) {
    if (a.type == trace::ActionType::gather) {
      EXPECT_EQ(a.volume, 2048);
    }
    if (a.type == trace::ActionType::allgather) {
      EXPECT_EQ(a.volume, 1024);
    }
    if (a.type == trace::ActionType::alltoall) {
      EXPECT_EQ(a.volume, 512);
    }
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// EP / FT / CG skeletons.
// ---------------------------------------------------------------------------

namespace {

double run_app_direct(const apps::AppDesc& app) {
  const auto ap =
      acq::build_acquisition_platform(acq::Mode::regular, app.nprocs, 1);
  sim::Engine engine(ap.platform);
  World world(engine, ap.rank_hosts);
  world.launch([&app](Rank& r) -> sim::Co<void> { co_await app.body(r); });
  engine.run();
  world.check_quiescent();
  return engine.now();
}

}  // namespace

TEST(NpbExtra, EpScalesAlmostPerfectly) {
  apps::EpConfig cfg;
  cfg.cls = apps::NpbClass::W;
  cfg.nprocs = 4;
  const double t4 = run_app_direct(apps::make_ep_app(cfg));
  cfg.nprocs = 16;
  const double t16 = run_app_direct(apps::make_ep_app(cfg));
  // Embarrassingly parallel: 4x the processes -> ~4x faster.
  EXPECT_NEAR(t4 / t16, 4.0, 0.4);
}

TEST(NpbExtra, FtIsCommunicationHeavy) {
  apps::FtConfig cfg;
  cfg.cls = apps::NpbClass::S;
  cfg.nprocs = 8;
  const double t = run_app_direct(apps::make_ft_app(cfg));
  EXPECT_GT(t, 0.0);
  // FT scales worse than EP: the all-to-all volume per NIC shrinks only
  // mildly with more ranks.
  cfg.nprocs = 16;
  const double t16 = run_app_direct(apps::make_ft_app(cfg));
  EXPECT_LT(t16, t);
  EXPECT_GT(t16, t / 4.0);
}

TEST(NpbExtra, FtValidatesProcessCount) {
  apps::FtConfig cfg;
  cfg.cls = apps::NpbClass::S;  // nz = 64
  cfg.nprocs = 7;
  EXPECT_THROW(apps::make_ft_app(cfg), tir::Error);
}

TEST(NpbExtra, CgScalesWhenComputeBoundOnly) {
  // CG is latency sensitive: the tiny class S does NOT scale to 16 ranks
  // (the dot-product allreduces dominate), while the compute-heavy class B
  // does — exactly the published behaviour of the benchmark.
  apps::CgConfig small;
  small.cls = apps::NpbClass::S;
  small.nprocs = 4;
  small.iteration_scale = 0.2;
  const double s4 = run_app_direct(apps::make_cg_app(small));
  small.nprocs = 16;
  const double s16 = run_app_direct(apps::make_cg_app(small));
  EXPECT_GT(s16, s4 * 0.8);  // no speedup at this size

  apps::CgConfig big;
  big.cls = apps::NpbClass::B;
  big.nprocs = 4;
  big.iteration_scale = 0.05;
  const double b4 = run_app_direct(apps::make_cg_app(big));
  big.nprocs = 16;
  const double b16 = run_app_direct(apps::make_cg_app(big));
  EXPECT_LT(b16, b4);  // real speedup once compute dominates
}

TEST(NpbExtra, CgRejectsNonPowerOfTwo) {
  apps::CgConfig cfg;
  cfg.nprocs = 6;
  EXPECT_THROW(apps::make_cg_app(cfg), tir::Error);
}

TEST(NpbExtra, ClassTablesAreConsistent) {
  using apps::NpbClass;
  EXPECT_DOUBLE_EQ(apps::ep_pairs(NpbClass::A), std::pow(2.0, 28));
  int nx, ny, nz;
  apps::ft_grid(NpbClass::A, nx, ny, nz);
  EXPECT_EQ(nx, 256);
  EXPECT_EQ(nz, 128);
  EXPECT_EQ(apps::cg_order(NpbClass::B), 75000);
  EXPECT_GT(apps::cg_iterations(NpbClass::B), apps::cg_iterations(NpbClass::A));
}

TEST(NpbExtra, AcquiredFtTraceReplaysToDirectTime) {
  // End-to-end check on an alltoall-dominated app: acquisition + replay
  // must agree with the direct run (uniform efficiency, same platform).
  apps::FtConfig cfg;
  cfg.cls = apps::NpbClass::S;
  cfg.nprocs = 8;
  const auto app = apps::make_ft_app(cfg);
  const double direct = run_app_direct(app);

  const auto dir = fs::temp_directory_path() /
                   ("tir_ftreplay_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  acq::AcquisitionSpec spec;
  spec.app = app;
  spec.workdir = dir;
  spec.run_uninstrumented_baseline = false;
  const auto report = acq::run_acquisition(spec);

  const auto ap = acq::build_acquisition_platform(acq::Mode::regular, 8, 1);
  const auto traces = trace::TraceSet::per_process_files(report.ti_files);
  auto scenario = spec_for(ap.platform, ap.rank_hosts, traces);
  scenario.config.compute_efficiency = cfg.efficiency;  // the app's rate
  const double replayed = replay::run_scenario(scenario).simulated_time;
  EXPECT_LT(tir::relative_error(replayed, direct), 0.08);
  fs::remove_all(dir);
}

TEST(NpbExtra, MgRunsAcrossLevelsAndScales) {
  apps::MgConfig cfg;
  cfg.cls = apps::NpbClass::W;  // 128^3
  cfg.nprocs = 8;
  const double t8 = run_app_direct(apps::make_mg_app(cfg));
  cfg.nprocs = 32;
  const double t32 = run_app_direct(apps::make_mg_app(cfg));
  EXPECT_GT(t8, 0.0);
  EXPECT_LT(t32, t8);  // more ranks help on a 128^3 grid
}

TEST(NpbExtra, MgValidatesConfig) {
  apps::MgConfig cfg;
  cfg.nprocs = 6;
  EXPECT_THROW(apps::make_mg_app(cfg), tir::Error);
  cfg.nprocs = 64;
  cfg.cls = apps::NpbClass::S;  // 32^3: fine
  EXPECT_NO_THROW(apps::make_mg_app(cfg));
  cfg.nprocs = 64;
  EXPECT_EQ(apps::mg_grid(apps::NpbClass::B), 256);
  EXPECT_EQ(apps::mg_iterations(apps::NpbClass::B), 20);
}

TEST(NpbExtra, MgTraceReplaysFaithfully) {
  apps::MgConfig cfg;
  cfg.cls = apps::NpbClass::S;
  cfg.nprocs = 8;
  const auto app = apps::make_mg_app(cfg);
  const double direct = run_app_direct(app);

  const auto dir = fs::temp_directory_path() /
                   ("tir_mgreplay_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  acq::AcquisitionSpec spec;
  spec.app = app;
  spec.workdir = dir;
  spec.run_uninstrumented_baseline = false;
  const auto report = acq::run_acquisition(spec);

  const auto ap = acq::build_acquisition_platform(acq::Mode::regular, 8, 1);
  const auto traces = trace::TraceSet::per_process_files(report.ti_files);
  auto scenario = spec_for(ap.platform, ap.rank_hosts, traces);
  scenario.config.compute_efficiency = cfg.efficiency;
  EXPECT_LT(tir::relative_error(replay::run_scenario(scenario).simulated_time,
                                direct),
            0.1);
  fs::remove_all(dir);
}
