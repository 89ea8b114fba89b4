#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "platform/cluster.hpp"
#include "simkern/engine.hpp"
#include "support/error.hpp"

using namespace tir;
using namespace tir::sim;

namespace {

// 4-node cluster with analytically convenient numbers and an affine network
// model (factors of 1), so expected times can be computed by hand.
plat::Platform test_platform(int nodes = 4) {
  plat::Platform p;
  plat::ClusterSpec spec;
  spec.prefix = "n-";
  spec.count = nodes;
  spec.power = 1e9;            // 1 Gflop/s
  spec.bandwidth = 1e8;        // 100 MB/s NIC
  spec.latency = 1e-5;
  spec.backbone_bandwidth = 1e9;
  spec.backbone_latency = 1e-5;
  build_cluster(p, spec);
  p.set_net_model(plat::PiecewiseNetModel::affine_model());
  return p;
}

}  // namespace

TEST(Engine, SingleExecTakesFlopsOverPower) {
  const auto p = test_platform();
  Engine engine(p);
  double finished = -1;
  engine.spawn("worker", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.exec_async(0, 2e9));
    finished = engine.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(finished, 2.0);  // 2 Gflop at 1 Gflop/s
}

TEST(Engine, EfficiencyScalesExecutionTime) {
  const auto p = test_platform();
  Engine engine(p);
  double finished = -1;
  engine.spawn("worker", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.exec_async(0, 1e9, 0.5));
    finished = engine.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(finished, 2.0);
}

TEST(Engine, TwoExecsOnOneHostContend) {
  const auto p = test_platform();
  Engine engine(p);
  std::vector<double> done(2, -1);
  for (int i = 0; i < 2; ++i) {
    engine.spawn("w" + std::to_string(i), 0, [&, i](Process&) -> Task {
      co_await engine.wait(engine.exec_async(0, 1e9));
      done[static_cast<std::size_t>(i)] = engine.now();
    });
  }
  engine.run();
  // Folding: both share the CPU, so both finish at 2 s instead of 1 s.
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
}

TEST(Engine, ExecsOnDistinctHostsDoNotContend) {
  const auto p = test_platform();
  Engine engine(p);
  std::vector<double> done(2, -1);
  for (int i = 0; i < 2; ++i) {
    engine.spawn("w" + std::to_string(i), i, [&, i](Process&) -> Task {
      co_await engine.wait(engine.exec_async(i, 1e9));
      done[static_cast<std::size_t>(i)] = engine.now();
    });
  }
  engine.run();
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 1.0);
}

TEST(Engine, StaggeredExecsShareFairly) {
  // w0 runs alone for 1 s (1e9 flops done), then shares for the rest.
  const auto p = test_platform();
  Engine engine(p);
  double done0 = -1, done1 = -1;
  engine.spawn("w0", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.exec_async(0, 2e9));
    done0 = engine.now();
  });
  engine.spawn("w1", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.timer_async(1.0));
    co_await engine.wait(engine.exec_async(0, 1e9));
    done1 = engine.now();
  });
  engine.run();
  // After t=1: both need 1e9 at 0.5e9/s each -> both finish at t=3.
  EXPECT_DOUBLE_EQ(done0, 3.0);
  EXPECT_DOUBLE_EQ(done1, 3.0);
}

TEST(Engine, TransferTimeIsLatencyPlusBandwidth) {
  const auto p = test_platform();
  Engine engine(p);
  double finished = -1;
  engine.spawn("sender", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.transfer_async(0, 1, 1e8));
    finished = engine.now();
  });
  engine.run();
  // Route latency: 1e-5 + 1e-5 + 1e-5; then 1e8 bytes at 1e8 B/s (NIC).
  EXPECT_NEAR(finished, 3e-5 + 1.0, 1e-9);
}

TEST(Engine, ZeroByteTransferCostsOnlyLatency) {
  const auto p = test_platform();
  Engine engine(p);
  double finished = -1;
  engine.spawn("sender", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.transfer_async(0, 1, 0));
    finished = engine.now();
  });
  engine.run();
  EXPECT_NEAR(finished, 3e-5, 1e-12);
}

TEST(Engine, ParallelTransfersContendOnSharedBackbone) {
  // Two flows from distinct sources to distinct destinations share only
  // the backbone (1e9 B/s); NICs (1e8) are the bottleneck, so no slowdown.
  const auto p = test_platform();
  Engine engine(p);
  std::vector<double> done(2, -1);
  engine.spawn("s0", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.transfer_async(0, 1, 1e8));
    done[0] = engine.now();
  });
  engine.spawn("s1", 2, [&](Process&) -> Task {
    co_await engine.wait(engine.transfer_async(2, 3, 1e8));
    done[1] = engine.now();
  });
  engine.run();
  EXPECT_NEAR(done[0], 3e-5 + 1.0, 1e-6);
  EXPECT_NEAR(done[1], 3e-5 + 1.0, 1e-6);
}

TEST(Engine, TransfersToSameDestinationShareTheNic) {
  const auto p = test_platform();
  Engine engine(p);
  std::vector<double> done(2, -1);
  engine.spawn("s0", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.transfer_async(0, 3, 1e8));
    done[0] = engine.now();
  });
  engine.spawn("s1", 1, [&](Process&) -> Task {
    co_await engine.wait(engine.transfer_async(1, 3, 1e8));
    done[1] = engine.now();
  });
  engine.run();
  // Destination NIC (1e8 B/s) is shared: each flow gets 5e7 B/s.
  EXPECT_NEAR(done[0], 3e-5 + 2.0, 1e-6);
  EXPECT_NEAR(done[1], 3e-5 + 2.0, 1e-6);
}

TEST(Engine, PiecewiseModelSlowsMidSizeMessages) {
  auto p = test_platform();
  p.set_net_model(plat::PiecewiseNetModel::default_cluster_model());
  Engine engine(p);
  double t_small = -1, t_mid = -1;
  engine.spawn("s", 0, [&](Process&) -> Task {
    const double start = engine.now();
    co_await engine.wait(engine.transfer_async(0, 1, 512));
    t_small = engine.now() - start;
    const double mid_start = engine.now();
    co_await engine.wait(engine.transfer_async(0, 1, 16 * 1024));
    t_mid = engine.now() - mid_start;
  });
  engine.run();
  // Segment 0 (512 B): latency factor 1.0, bandwidth factor 1.10.
  EXPECT_NEAR(t_small, 1.00 * 3e-5 + 512.0 / (1.10 * 1e8), 1e-9);
  // Segment 1 (16 KiB): latency factor 1.35, bandwidth factor 0.75.
  EXPECT_NEAR(t_mid, 1.35 * 3e-5 + 16384.0 / (0.75 * 1e8), 1e-9);
}

TEST(Engine, SelfTransferUsesLoopback) {
  const auto p = test_platform();
  Engine engine(p);
  double finished = -1;
  engine.spawn("s", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.transfer_async(0, 0, 6e9));
    finished = engine.now();
  });
  engine.run();
  // Loopback: 6 GB/s, 0.1 us latency -> ~1 s for 6 GB.
  EXPECT_NEAR(finished, 1.0 + 1e-7, 1e-6);
}

TEST(Engine, TimersFireInOrder) {
  const auto p = test_platform();
  Engine engine(p);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    engine.spawn("t" + std::to_string(i), 0, [&, i](Process&) -> Task {
      co_await engine.wait(engine.timer_async(3.0 - i));
      order.push_back(i);
    });
  }
  engine.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 0);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, GateBlocksUntilOpened) {
  const auto p = test_platform();
  Engine engine(p);
  auto gate = engine.make_gate();
  double opened_at = -1;
  engine.spawn("waiter", 0, [&](Process&) -> Task {
    co_await engine.wait(gate);
    opened_at = engine.now();
  });
  engine.spawn("opener", 1, [&](Process&) -> Task {
    co_await engine.wait(engine.timer_async(2.5));
    gate->open();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(opened_at, 2.5);
}

TEST(Engine, AwaitingCompletedActivityIsInstant) {
  const auto p = test_platform();
  Engine engine(p);
  double t = -1;
  engine.spawn("w", 0, [&](Process&) -> Task {
    auto exec = engine.exec_async(0, 1e9);
    co_await engine.wait(engine.timer_async(5.0));
    co_await engine.wait(exec);  // finished long ago
    t = engine.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(t, 5.0);
}

TEST(Engine, DeadlockIsDetected) {
  const auto p = test_platform();
  Engine engine(p);
  auto gate = engine.make_gate();
  engine.spawn("stuck", 0, [&](Process&) -> Task { co_await engine.wait(gate); });
  EXPECT_THROW(engine.run(), SimError);
}

TEST(Engine, ProcessExceptionPropagates) {
  const auto p = test_platform();
  Engine engine(p);
  engine.spawn("bad", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.timer_async(1.0));
    throw Error("boom");
  });
  EXPECT_THROW(engine.run(), Error);
}

TEST(Engine, NestedCoroutinesPropagateValues) {
  const auto p = test_platform();
  Engine engine(p);
  const auto add_delay = [&](double d) -> Co<double> {
    co_await engine.wait(engine.timer_async(d));
    co_return engine.now();
  };
  double result = -1;
  engine.spawn("nested", 0, [&](Process&) -> Task {
    const double a = co_await add_delay(1.0);
    const double b = co_await add_delay(2.0);
    result = a + b;
  });
  engine.run();
  EXPECT_DOUBLE_EQ(result, 1.0 + 3.0);
}

TEST(Engine, WaitAllCompletesAtMax) {
  const auto p = test_platform();
  Engine engine(p);
  double t = -1;
  engine.spawn("w", 0, [&](Process&) -> Task {
    std::vector<ActivityPtr> acts;
    acts.push_back(engine.timer_async(1.0));
    acts.push_back(engine.timer_async(4.0));
    acts.push_back(engine.timer_async(2.0));
    co_await wait_all(engine, std::move(acts));
    t = engine.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(t, 4.0);
}

TEST(Engine, SpawnDuringRunWorks) {
  const auto p = test_platform();
  Engine engine(p);
  double child_done = -1;
  engine.spawn("parent", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.timer_async(1.0));
    engine.spawn("child", 1, [&](Process&) -> Task {
      co_await engine.wait(engine.timer_async(1.0));
      child_done = engine.now();
    });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(child_done, 2.0);
}

TEST(Engine, DeterministicAcrossRuns) {
  const auto run_once = [] {
    const auto p = test_platform();
    Engine engine(p);
    std::vector<double> done;
    for (int i = 0; i < 4; ++i) {
      engine.spawn("w" + std::to_string(i), i, [&, i](Process&) -> Task {
        co_await engine.wait(engine.exec_async(i, 1e8 * (i + 1)));
        co_await engine.wait(engine.transfer_async(i, (i + 1) % 4, 1e6));
        done.push_back(engine.now());
      });
    }
    engine.run();
    return done;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, StatsAreTracked) {
  const auto p = test_platform();
  {
    // A transfer alone on its links is rated when it starts: one rate
    // applied, no solve.
    Engine engine(p);
    engine.spawn("w", 0, [&](Process&) -> Task {
      co_await engine.wait(engine.exec_async(0, 1e6));
      co_await engine.wait(engine.transfer_async(0, 1, 1e6));
    });
    engine.run();
    EXPECT_GE(engine.stats().activities, 2u);
    EXPECT_GE(engine.stats().resumes, 1u);
    EXPECT_EQ(engine.stats().lone_rates, 1u);
    EXPECT_EQ(engine.stats().flows_rerated, 1u);
    EXPECT_EQ(engine.stats().solver_calls, 0u);
  }
  {
    // Two transfers sharing the links: the first starts lone, the second
    // couples them, and the solver re-rates both.
    Engine engine(p);
    for (int i = 0; i < 2; ++i)
      engine.spawn("w" + std::to_string(i), 0, [&](Process&) -> Task {
        co_await engine.wait(engine.transfer_async(0, 1, 1e6));
      });
    engine.run();
    EXPECT_EQ(engine.stats().lone_rates, 1u);
    EXPECT_GE(engine.stats().solver_calls, 1u);
    EXPECT_GE(engine.stats().flows_rerated, 3u);
  }
}

TEST(Engine, InvalidSpawnHostThrows) {
  const auto p = test_platform();
  Engine engine(p);
  EXPECT_THROW(
      engine.spawn("x", 99, [](Process&) -> Task { co_return; }),
      SimError);
}

TEST(Engine, UnfinishedCoroutinesAreReclaimed) {
  // Engine destruction with a process blocked mid-await must not leak or
  // crash (exercised under ASan in CI-style builds).
  const auto p = test_platform();
  auto gate = GatePtr{};
  {
    Engine engine(p);
    gate = engine.make_gate();
    engine.spawn("stuck", 0,
                 [&](Process&) -> Task { co_await engine.wait(gate); });
    EXPECT_THROW(engine.run(), DeadlockError);
  }
  SUCCEED();
}
