// Tests aimed at the engine's scheduling internals: equal-share CPU
// rescheduling under churn, lazy finish-queue correctness when rates change
// many times, starved fluids, and the injection (buffer-copy) activity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "platform/cluster.hpp"
#include "simkern/engine.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

using namespace tir;
using namespace tir::sim;

namespace {

plat::Platform one_host_platform(double power = 1e9) {
  plat::Platform p;
  plat::ClusterSpec spec;
  spec.prefix = "n-";
  spec.count = 2;
  spec.power = power;
  spec.bandwidth = 1e8;
  spec.latency = 1e-5;
  spec.backbone_bandwidth = 1e9;
  spec.backbone_latency = 1e-5;
  build_cluster(p, spec);
  p.set_net_model(plat::PiecewiseNetModel::affine_model());
  return p;
}

}  // namespace

TEST(Scheduler, ManyRateChangesKeepExecExact) {
  // A long exec shares the CPU with a stream of short execs: its rate
  // changes dozens of times, and the lazily tracked remaining work must
  // still complete at the analytically exact instant.
  const auto p = one_host_platform();
  Engine engine(p);
  double long_done = -1;
  engine.spawn("long", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.exec_async(0, 1e9));  // 1 s alone
    long_done = engine.now();
  });
  engine.spawn("shorts", 0, [&](Process&) -> Task {
    // 10 short execs of 0.05 s (alone), back to back.
    for (int i = 0; i < 10; ++i)
      co_await engine.wait(engine.exec_async(0, 5e7));
  });
  engine.run();
  // Shared phase: both run at 0.5e9. The shorts consume 0.5e9 flops total,
  // taking 1 s of shared time; the long exec then needs 0.5e9 more alone.
  EXPECT_NEAR(long_done, 1.5, 1e-9);
}

TEST(Scheduler, InterleavedArrivalsShareExactly) {
  // Three staggered equal execs: piecewise-constant rates, analytic result.
  const auto p = one_host_platform();
  Engine engine(p);
  std::vector<double> done(3, -1);
  for (int i = 0; i < 3; ++i) {
    engine.spawn("w" + std::to_string(i), 0, [&, i](Process&) -> Task {
      co_await engine.wait(engine.timer_async(0.5 * i));
      co_await engine.wait(engine.exec_async(0, 1e9));
      done[static_cast<std::size_t>(i)] = engine.now();
    });
  }
  engine.run();
  // t in [0,0.5): w0 alone (0.5e9 done). [0.5,1): w0,w1 at 0.5 (w0: 0.75e9,
  // w1: 0.25e9). [1, ...): three at 1/3.
  // w0 needs 0.25e9 more at 1/3 e9/s -> done at 1.75.
  EXPECT_NEAR(done[0], 1.75, 1e-9);
  // After w0 leaves (1.75): w1 has 0.25+0.25=0.5e9 done at t=1.75? Compute:
  // w1: [0.5,1) 0.25e9, [1,1.75) 0.25e9 -> 0.5e9 remaining at rate 0.5e9/s
  // with w2 -> done at 2.75.
  EXPECT_NEAR(done[1], 2.75, 1e-9);
  // w2: [1,1.75) 0.25e9, [1.75,2.75) 0.5e9, then alone: 0.25e9 at 1e9/s ->
  // 3.0.
  EXPECT_NEAR(done[2], 3.0, 1e-9);
}

TEST(Scheduler, HeapSurvivesActivityChurn) {
  // Thousands of short-lived activities whose owners drop them right away:
  // stale finish entries must not crash or leak (exercised under ASan).
  const auto p = one_host_platform();
  Engine engine(p);
  int completed = 0;
  engine.spawn("churn", 0, [&](Process&) -> Task {
    for (int i = 0; i < 2000; ++i) {
      auto exec = engine.exec_async(0, 1e3 + i);
      auto transfer = engine.transfer_async(0, 1, 100.0 + i);
      co_await engine.wait(exec);
      co_await engine.wait(transfer);
      ++completed;
    }
  });
  engine.run();
  EXPECT_EQ(completed, 2000);
}

TEST(Scheduler, RandomProgramIsDeterministicAndConsistent) {
  const auto run_once = [](std::uint64_t seed) {
    const auto p = one_host_platform();
    Engine engine(p);
    for (int w = 0; w < 8; ++w) {
      engine.spawn("w" + std::to_string(w), w % 2,
                   [&engine, w, seed](Process&) -> Task {
                     Rng rng(seed + static_cast<unsigned>(w));
                     for (int i = 0; i < 50; ++i) {
                       switch (rng.next_below(3)) {
                         case 0:
                           co_await engine.wait(engine.exec_async(
                               w % 2, rng.uniform(1e5, 1e7)));
                           break;
                         case 1:
                           co_await engine.wait(engine.transfer_async(
                               w % 2, 1 - w % 2, rng.uniform(10, 1e5)));
                           break;
                         default:
                           co_await engine.wait(engine.timer_async(
                               rng.uniform(1e-6, 1e-3)));
                       }
                     }
                   });
    }
    engine.run();
    return engine.now();
  };
  for (const std::uint64_t seed : {1ull, 7ull, 19ull}) {
    const double a = run_once(seed);
    const double b = run_once(seed);
    EXPECT_DOUBLE_EQ(a, b) << "seed " << seed;
    EXPECT_GT(a, 0.0);
  }
}

TEST(Scheduler, InjectionSharesLoopbackCapacity) {
  const auto p = one_host_platform();
  Engine engine(p);
  std::vector<double> done(2, -1);
  // Two concurrent 6 GB buffer copies on a 6 GB/s loopback: 2 s each.
  for (int i = 0; i < 2; ++i) {
    engine.spawn("c" + std::to_string(i), 0, [&, i](Process&) -> Task {
      co_await engine.wait(engine.injection_async(0, 6e9));
      done[static_cast<std::size_t>(i)] = engine.now();
    });
  }
  engine.run();
  EXPECT_NEAR(done[0], 2.0, 1e-6);
  EXPECT_NEAR(done[1], 2.0, 1e-6);
}

TEST(Scheduler, InjectionWithoutLoopbackIsInstant) {
  plat::Platform p;
  const auto j = p.add_junction("sw");
  const auto l = p.add_link("nic", 1e8, 1e-5);
  p.add_host("bare", 1e9, j, l);  // no loopback configured
  Engine engine(p);
  double done = -1;
  engine.spawn("c", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.injection_async(0, 1e12));
    done = engine.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST(Scheduler, ZeroCapacityLinkStarvesFlowAndDeadlocks) {
  plat::Platform p;
  const auto j = p.add_junction("sw");
  const auto a = p.add_link("a_nic", 1e8, 0);
  const auto b = p.add_link("b_nic", 1e8, 0);
  const auto ha = p.add_host("a", 1e9, j, a);
  const auto hb = p.add_host("b", 1e9, j, b);
  Engine engine(p);
  engine.spawn("s", ha, [&, hb](Process&) -> Task {
    co_await engine.wait(engine.transfer_async(0, hb, 1e6));
  });
  // Sanity: with live links this finishes...
  EXPECT_NO_THROW(engine.run());
  (void)ha;
}

TEST(Scheduler, GateCompletionDiscardsPendingFlow) {
  // A gate-completed... rather: completing a transfer through external
  // means is not supported, but completing a *gate* while transfers run
  // must leave the fluid machinery consistent.
  const auto p = one_host_platform();
  Engine engine(p);
  auto gate = engine.make_gate();
  double done = -1;
  engine.spawn("w", 0, [&](Process&) -> Task {
    auto transfer = engine.transfer_async(0, 1, 1e8);  // 1 s transfer
    co_await engine.wait(engine.timer_async(0.1));
    gate->open();
    co_await engine.wait(gate);
    co_await engine.wait(transfer);
    done = engine.now();
  });
  engine.run();
  EXPECT_NEAR(done, 1.0 + 3e-5, 1e-6);
}

TEST(Scheduler, UnderflowedShareStarvesExecsUntilRestored) {
  // 0.5 flop/s times the smallest positive factor rounds to a zero share:
  // the exec starves, holds no finish entry, and resumes with its work
  // intact when the factor returns.
  plat::Platform p;
  const auto sw = p.add_junction("sw");
  p.add_host("slow", 0.5, sw, p.add_link("nic", 1e8, 0.0));
  Engine engine(p);
  double done = -1;
  engine.spawn("w", 0, [&](Process&) -> Task {
    co_await engine.wait(engine.exec_async(0, 1.0));  // 2 s alone
    done = engine.now();
  });
  engine.spawn("f", 0, [&](Process&) -> Task {
    co_await engine.wait_for(0.5);
    engine.set_host_factor(0, std::numeric_limits<double>::denorm_min());
    co_await engine.wait_for(1.0);
    engine.set_host_factor(0, 1.0);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(done, 3.0);
}

namespace {

// Hosts of unequal power. Host 1 has exactly twice host 0's power and runs
// host 0's program with doubled flops, so their execs finish at bit-equal
// instants and only sequence numbers order them; host 2 runs a program of
// its own. Zero-latency NICs start every transfer's flow at once.
constexpr double kPower[3] = {1.5e9, 3e9, 1e9};
constexpr double kNicBandwidth = 1.5e9;

plat::Platform three_host_platform() {
  plat::Platform p;
  const auto sw = p.add_junction("sw");
  for (int h = 0; h < 3; ++h) {
    const auto nic =
        p.add_link("nic" + std::to_string(h), kNicBandwidth, 0.0);
    p.add_host("h" + std::to_string(h), kPower[h], sw, nic);
  }
  p.set_net_model(plat::PiecewiseNetModel::affine_model());
  return p;
}

// FNV-1a over every completion, in the order the engine completed them.
class CompletionDigest {
 public:
  void add(std::uint64_t id, Activity::Kind kind, int host, double finish) {
    std::uint64_t finish_bits = 0;
    std::memcpy(&finish_bits, &finish, sizeof finish_bits);
    fold(count_++);
    fold(id);
    fold(static_cast<std::uint64_t>(kind));
    fold(static_cast<std::uint64_t>(host));
    fold(finish_bits);
  }
  std::uint64_t value() const { return hash_; }
  std::uint64_t count() const { return count_; }

 private:
  void fold(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  std::uint64_t hash_ = 14695981039346656037ull;
  std::uint64_t count_ = 0;
};

// Spawns a process that waits for `activity` alone. The engine resumes
// waiters in the order it completes their activities, so the digest sees
// that order.
void watch(Engine& engine, CompletionDigest& digest, ActivityPtr activity,
           std::uint64_t id, int host) {
  engine.spawn("watch", host,
               [&engine, &digest, activity, id, host](Process&) -> Task {
                 co_await engine.wait(activity);
                 digest.add(id, activity->kind(), host,
                            activity->finish_time());
               });
}

}  // namespace

TEST(Scheduler, CoLocatedExecsRepeatTheParentBitForBit) {
  // Bursts of 2-12 equal-flop execs started in one instant tie on their
  // finish, so the sequence numbers taken when the host was last re-rated
  // decide which completes first; bursts overlap at staggered starts,
  // zero-flop execs complete at once, and transfers are sized to finish with
  // their burst. Every few milliseconds hosts 0 and 1 drop to 0.8 of their
  // power and back, and host 2 to half; in between host 0 steps to the
  // factor one ulp below 0.8, where 1.5e9 * f rounds to the same product, so
  // that reschedule re-rates nothing and must leave every key alone. The
  // digest and the count were recorded with one finish-queue entry per exec.
  const auto p = three_host_platform();
  Engine engine(p);
  CompletionDigest digest;
  std::uint64_t next_id = 0;

  // Hosts 0 and 1 share a seed; host 2 has its own.
  for (int h = 0; h < 3; ++h) {
    engine.spawn("bursts" + std::to_string(h), h,
                 [&, h](Process&) -> Task {
                   Rng rng(h == 2 ? 77 : 41);
                   const int peer = (h + 1) % 3;
                   for (int round = 0; round < 60; ++round) {
                     const auto k = static_cast<int>(2 + rng.next_below(11));
                     const double work = rng.uniform(1e-4, 2e-3);
                     const double flops = kPower[h] * work;
                     Ref<Exec> first;
                     for (int i = 0; i < k; ++i) {
                       auto exec = engine.exec_async(h, flops);
                       if (i == 0) first = exec;
                       watch(engine, digest, exec, next_id++, h);
                     }
                     if (rng.next_below(4) == 0)
                       watch(engine, digest, engine.exec_async(h, 0.0),
                             next_id++, h);
                     if (rng.next_below(3) == 0) {
                       const double bytes = kNicBandwidth * k * work;
                       watch(engine, digest,
                             engine.transfer_async(h, peer, bytes),
                             next_id++, h);
                     }
                     switch (rng.next_below(4)) {
                       case 0:  // the next burst starts in this instant
                         break;
                       case 1:  // ... at this burst's first completion
                         co_await engine.wait(first);
                         break;
                       default:  // ... part way through this one
                         co_await engine.wait_for(k * work *
                                                  rng.uniform(0.1, 0.9));
                     }
                   }
                 });
  }
  engine.spawn("factors", 0, [&](Process&) -> Task {
    const double just_below = std::nextafter(0.8, 0.0);
    for (int cycle = 0; cycle < 40; ++cycle) {
      co_await engine.wait_for(1.7e-3);
      engine.set_host_factor(0, 0.8);
      engine.set_host_factor(1, 0.8);
      engine.set_host_factor(2, 0.5);
      co_await engine.wait_for(0.6e-3);
      engine.set_host_factor(0, just_below);
      co_await engine.wait_for(0.6e-3);
      engine.set_host_factor(0, 1.0);
      engine.set_host_factor(1, 1.0);
      engine.set_host_factor(2, 1.0);
    }
  });
  engine.run();

  EXPECT_EQ(digest.count(), 1287u);
  EXPECT_EQ(digest.value(), 0xb2409e28b0f297cdull);
}

TEST(Scheduler, DissolvedShareGroupsRepeatTheParentBitForBit) {
  // Eighty hosts on one cluster each send a run of messages to rotating
  // partners, so about eighty flows cross the backbone at once: a hub
  // group forms and its members progress on its virtual clock, joining
  // and leaving through the member heap, the head holding the finish
  // entry. Messages come in three sizes and start in the same instants,
  // so members tie on their keys. Every few milliseconds host 0's NIC
  // drops to a fifth, which binds it and dissolves the group, and comes
  // back, which lets it form again. The digest and the count were
  // recorded with the member heap, finish queue and timer queue the
  // engine had before its queues shared one implementation.
  plat::Platform p;
  plat::ClusterSpec spec;
  spec.count = 80;
  const auto hosts = plat::build_cluster(p, spec);
  Engine engine(p);
  CompletionDigest digest;
  std::uint64_t next_id = 0;
  for (int h = 0; h < spec.count; ++h) {
    engine.spawn("sender" + std::to_string(h), hosts[h],
                 [&, h](Process&) -> Task {
                   Rng rng(static_cast<std::uint64_t>(h % 3) + 5);
                   for (int round = 0; round < 25; ++round) {
                     const double bytes =
                         4e4 * static_cast<double>(1 + rng.next_below(3));
                     const int peer = (h + 1 + round % 7) % spec.count;
                     auto flow = engine.transfer_async(hosts[h], hosts[peer],
                                                       bytes);
                     watch(engine, digest, flow, next_id++, h);
                     co_await engine.wait(flow);
                   }
                 });
  }
  engine.spawn("nic-steps", hosts[0], [&](Process&) -> Task {
    for (int cycle = 0; cycle < 12; ++cycle) {
      co_await engine.wait_for(1.3e-3);
      engine.set_link_factors(1, 0.2, 1.0);
      co_await engine.wait_for(0.7e-3);
      engine.set_link_factors(1, 1.0, 1.0);
    }
  });
  engine.run();

  EXPECT_GT(engine.stats().hub_entries, 10u);
  EXPECT_GT(engine.stats().hub_exits, 10u);
  EXPECT_EQ(digest.count(), 2000u);
  EXPECT_EQ(digest.value(), 0x6401fdc6245b2b2eull);
}
