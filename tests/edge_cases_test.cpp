// Edge cases and failure injection across the stack.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "mpisim/mpi.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "support/error.hpp"
#include "trace/binary_format.hpp"
#include "trace/text_format.hpp"
#include "trace/trace_set.hpp"

using namespace tir;
namespace fs = std::filesystem;

namespace {

plat::Platform small_platform(int nodes = 2) {
  plat::Platform p;
  plat::ClusterSpec spec;
  spec.prefix = "n-";
  spec.count = nodes;
  build_cluster(p, spec);
  return p;
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

}  // namespace

TEST(EdgeCases, EmptyTraceReplaysToZero) {
  const auto p = small_platform();
  std::vector<std::vector<trace::Action>> per(2);  // no actions at all
  const auto traces = trace::TraceSet::in_memory(std::move(per));
  const auto result = replay::run_scenario(spec_for(p, {0, 1}, traces));
  EXPECT_DOUBLE_EQ(result.simulated_time, 0.0);
  EXPECT_EQ(result.actions_replayed, 0u);
}

TEST(EdgeCases, ZeroByteMessagesReplay) {
  const auto p = small_platform();
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(2);
  per[0] = {{0, ActionType::send, 1, 0, 0, 0}};
  per[1] = {{1, ActionType::recv, 0, 0, 0, 0}};
  const auto traces = trace::TraceSet::in_memory(std::move(per));
  const auto result = replay::run_scenario(spec_for(p, {0, 1}, traces));
  EXPECT_GT(result.simulated_time, 0.0);  // still pays latency
  EXPECT_LT(result.simulated_time, 1e-3);
}

TEST(EdgeCases, SingleProcessComputeOnlyTrace) {
  const auto p = small_platform(1);
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(1);
  for (int i = 0; i < 100; ++i)
    per[0].push_back({0, ActionType::compute, -1, 1e7, 0, 0});
  const auto traces = trace::TraceSet::in_memory(std::move(per));
  EXPECT_NEAR(replay::run_scenario(spec_for(p, {0}, traces)).simulated_time,
              100 * 1e7 / 1e9, 1e-9);
}

TEST(EdgeCases, SelfMessagingRank) {
  const auto p = small_platform();
  sim::Engine engine(p);
  mpi::World world(engine, {0});
  double done = -1;
  world.launch_rank(0, [&](mpi::Rank& r) -> sim::Co<void> {
    auto req = r.isend(0, 100000, 5);   // eager, to self
    co_await r.recv(0, 100000, 5);
    co_await r.wait(req);
    auto big = r.isend(0, 1 << 20, 6);  // rendezvous, to self
    co_await r.recv(0, 1 << 20, 6);
    co_await r.wait(big);
    done = r.engine().now();
  });
  engine.run();
  world.check_quiescent();
  EXPECT_GT(done, 0.0);
  EXPECT_LT(done, 0.01);  // loopback speed
}

TEST(EdgeCases, HugeVolumesDoNotOverflow) {
  const auto p = small_platform();
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(2);
  per[0] = {{0, ActionType::compute, -1, 1e15, 0, 0}};
  per[1] = {{1, ActionType::compute, -1, 1e15, 0, 0}};
  const auto traces = trace::TraceSet::in_memory(std::move(per));
  EXPECT_NEAR(replay::run_scenario(spec_for(p, {0, 1}, traces)).simulated_time,
              1e15 / 1e9, 1.0);
}

TEST(EdgeCases, CrlfTraceFilesParse) {
  const auto dir = fs::temp_directory_path() / "tir_crlf";
  fs::create_directories(dir);
  const auto file = dir / "crlf.trace";
  std::ofstream(file, std::ios::binary)
      << "p0 compute 5\r\np0 barrier\r\n";
  const auto actions = trace::read_all(file);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].volume, 5.0);
  fs::remove_all(dir);
}

TEST(EdgeCases, NegativeTransferBytesBehaveAsZero) {
  const auto p = small_platform();
  sim::Engine engine(p);
  double done = -1;
  engine.spawn("w", 0, [&](sim::Process&) -> sim::Task {
    co_await engine.wait(engine.transfer_async(0, 1, -5.0));
    done = engine.now();
  });
  engine.run();
  EXPECT_GE(done, 0.0);
  EXPECT_LT(done, 1e-3);
}

TEST(EdgeCases, TruncatedBinaryTraceMidRecordThrows) {
  const auto dir = fs::temp_directory_path() / "tir_trunc";
  fs::create_directories(dir);
  const auto file = dir / "t.btrace";
  {
    trace::BinaryTraceWriter writer(file, 0);
    writer.write({0, trace::ActionType::send, 1, 163840, 0, 0});
  }
  // Chop the final bytes off.
  const auto size = fs::file_size(file);
  fs::resize_file(file, size - 2);
  trace::BinaryTraceReader reader(file);
  EXPECT_THROW(
      {
        while (reader.next()) {
        }
      },
      tir::ParseError);
  fs::remove_all(dir);
}

TEST(EdgeCases, TruncatedBinaryTraceSalvagesInLenientMode) {
  const auto dir = fs::temp_directory_path() / "tir_trunc_lenient";
  fs::create_directories(dir);
  const auto file = dir / "t.btrace";
  {
    trace::BinaryTraceWriter writer(file, 0);
    writer.write({0, trace::ActionType::compute, -1, 1e6, 0, 0});
    writer.write({0, trace::ActionType::send, 1, 163840, 0, 0});
  }
  fs::resize_file(file, fs::file_size(file) - 2);  // chop mid-record

  // Strict decode refuses the file outright.
  const auto strict = trace::TraceSet::per_process_files({file});
  EXPECT_THROW(strict.stats(), ParseError);

  // Lenient decode keeps the clean prefix and reports partial coverage.
  const auto lenient = trace::TraceSet::per_process_files(
      {file}, trace::DecodeMode::lenient);
  EXPECT_EQ(lenient.actions(0).size(), 1u);  // first record survived
  EXPECT_LT(lenient.coverage(), 1.0);
  EXPECT_GT(lenient.coverage(), 0.0);
  const auto salvage = lenient.salvage_report();
  ASSERT_EQ(salvage.size(), 1u);
  EXPECT_FALSE(salvage[0].complete);
  EXPECT_FALSE(salvage[0].error.empty());
  fs::remove_all(dir);
}

TEST(EdgeCases, RecvSmallerThanSendStillMatches) {
  // MPI semantics: matching ignores sizes; our model trusts the sender's.
  const auto p = small_platform();
  sim::Engine engine(p);
  mpi::World world(engine, {0, 1});
  std::uint64_t got = 0;
  world.launch_rank(0, [](mpi::Rank& r) -> sim::Co<void> {
    co_await r.send(1, 5000, 0);
  });
  world.launch_rank(1, [&](mpi::Rank& r) -> sim::Co<void> {
    auto req = r.irecv(0, 10, 0);
    co_await r.wait(req);
    got = req->bytes;
  });
  engine.run();
  EXPECT_EQ(got, 5000u);
}

TEST(EdgeCases, ManySmallActionsStayDeterministic) {
  const auto run_once = [] {
    const auto p = small_platform(4);
    sim::Engine engine(p);
    mpi::World world(engine, {0, 1, 2, 3});
    world.launch([](mpi::Rank& r) -> sim::Co<void> {
      for (int i = 0; i < 200; ++i) {
        const int peer = r.rank() ^ 1;
        if (r.rank() < peer) {
          co_await r.send(peer, 64, i);
          co_await r.recv(peer, 64, i);
        } else {
          co_await r.recv(peer, 64, i);
          co_await r.send(peer, 64, i);
        }
        if (i % 50 == 0) co_await r.barrier();
      }
    });
    engine.run();
    return engine.now();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(EdgeCases, ReplayCommSizeOnlyTrace) {
  const auto p = small_platform();
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(2);
  per[0] = {{0, ActionType::comm_size, -1, 0, 0, 2}};
  per[1] = {{1, ActionType::comm_size, -1, 0, 0, 2}};
  const auto traces = trace::TraceSet::in_memory(std::move(per));
  EXPECT_DOUBLE_EQ(
      replay::run_scenario(spec_for(p, {0, 1}, traces)).simulated_time, 0.0);
}

TEST(EdgeCases, MismatchedPidInsideTraceThrows) {
  const auto p = small_platform();
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(2);
  per[0] = {{1, ActionType::barrier, -1, 0, 0, 0}};  // claims to be p1
  per[1] = {{1, ActionType::barrier, -1, 0, 0, 0}};
  const auto traces = trace::TraceSet::in_memory(std::move(per));
  EXPECT_THROW(replay::run_scenario(spec_for(p, {0, 1}, traces)),
               tir::SimError);
}
