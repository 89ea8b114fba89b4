#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "replay/timed_trace.hpp"
#include "support/error.hpp"

using namespace tir;
using namespace tir::replay;
namespace fs = std::filesystem;

namespace {

class TimedTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tir_timed_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

ReplayResult run_ring_replay() {
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(4);
  per[0] = {{0, ActionType::compute, -1, 1e6, 0, 0},
            {0, ActionType::send, 1, 1e6, 0, 0},
            {0, ActionType::recv, 3, 0, 0, 0}};
  for (int p = 1; p < 4; ++p)
    per[static_cast<std::size_t>(p)] = {
        {p, ActionType::recv, p - 1, 0, 0, 0},
        {p, ActionType::compute, -1, 1e6, 0, 0},
        {p, ActionType::send, (p + 1) % 4, 1e6, 0, 0}};
  plat::Platform platform;
  const auto hosts = plat::build_cluster(platform, plat::bordereau_spec(4));
  ScenarioSpec spec;
  spec.platform = share_platform(platform);
  spec.process_hosts = hosts;
  spec.traces = trace::TraceSet::in_memory(std::move(per));
  spec.config.record_timed_trace = true;
  return run_scenario(spec);
}

}  // namespace

TEST_F(TimedTraceTest, WriteReadRoundTrip) {
  const auto result = run_ring_replay();
  const auto file = dir_ / "timed.trace";
  write_timed_trace(result.timed_trace, file);
  const auto back = read_timed_trace(file);
  ASSERT_EQ(back.size(), result.timed_trace.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].pid, result.timed_trace[i].pid);
    EXPECT_EQ(back[i].action, result.timed_trace[i].action);
    EXPECT_NEAR(back[i].start, result.timed_trace[i].start, 1e-9);
    EXPECT_NEAR(back[i].end, result.timed_trace[i].end, 1e-9);
  }
}

TEST_F(TimedTraceTest, PerProcessRowsAreChronological) {
  const auto result = run_ring_replay();
  std::vector<double> last(4, -1);
  for (const auto& row : result.timed_trace) {
    EXPECT_GE(row.start, last[static_cast<std::size_t>(row.pid)]);
    last[static_cast<std::size_t>(row.pid)] = row.end;
  }
}

TEST_F(TimedTraceTest, ProfileAggregatesPerKind) {
  const auto result = run_ring_replay();
  const auto profile = Profile::from_timed_trace(result.timed_trace);
  EXPECT_EQ(profile.nprocs(), 4);
  EXPECT_EQ(profile.total("compute").count, 4u);
  EXPECT_EQ(profile.total("send").count, 4u);
  EXPECT_EQ(profile.total("recv").count, 4u);
  // Each process computed 1 Mflop at 1.17 Gflop/s.
  EXPECT_NEAR(profile.entry(2, "compute").total_time, 1e6 / 1.17e9, 1e-6);
  // Busy time never exceeds the makespan.
  for (int p = 0; p < 4; ++p) {
    EXPECT_GT(profile.process_time(p), 0.0);
    EXPECT_LE(profile.process_time(p),
              result.simulated_time * (1 + 1e-9));
  }
}

TEST_F(TimedTraceTest, ProfileHandlesUnknownKeys) {
  const auto profile = Profile::from_timed_trace({});
  EXPECT_EQ(profile.nprocs(), 0);
  EXPECT_EQ(profile.entry(3, "compute").count, 0u);
  EXPECT_EQ(profile.total("barrier").count, 0u);
  EXPECT_DOUBLE_EQ(profile.process_time(0), 0.0);
}

TEST_F(TimedTraceTest, RenderListsEveryKind) {
  const auto result = run_ring_replay();
  const auto text =
      Profile::from_timed_trace(result.timed_trace).render();
  EXPECT_NE(text.find("compute"), std::string::npos);
  EXPECT_NE(text.find("send"), std::string::npos);
  EXPECT_NE(text.find("recv"), std::string::npos);
}

TEST_F(TimedTraceTest, ReaderRejectsGarbage) {
  const auto file = dir_ / "bad.trace";
  std::ofstream(file) << "0 not-a-number 1.0 p0 barrier\n";
  EXPECT_THROW(read_timed_trace(file), tir::ParseError);
  EXPECT_THROW(read_timed_trace(dir_ / "missing"), tir::IoError);
}
