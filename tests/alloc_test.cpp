// Allocation regression test: a replay's steady state stays off the heap.
//
// This binary replaces the global operator new and delete with counting
// ones (and only this binary: it is its own test executable). It replays
// the service benchmark's trace — the synthetic CG pattern, 16 ranks, 150
// iterations — on the default dragonfly twice on one thread, and counts the
// second replay's allocations. Coroutine frames, activities and MPI requests come
// from the per-thread block cache, transfers point at cached routes, so
// what remains is per-replay set-up and std::deque chunk churn. The
// BlockCacheTest cases pin the cache's budget and thread-exit rules with the
// same counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "platform/deployment.hpp"
#include "platform/topology.hpp"
#include "replay/scenario.hpp"
#include "simkern/block_cache.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_set.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_frees{0};

void counted_free(void* p) {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }

namespace tir {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SKIP_WITHOUT_BLOCK_CACHE() \
  GTEST_SKIP() << "the block cache passes every call to the heap here"
#else
#define SKIP_WITHOUT_BLOCK_CACHE() static_cast<void>(0)
#endif

namespace block_cache = sim::block_cache;

TEST(BlockCacheTest, ThreadExitReturnsItsBlocksToTheHeap) {
  SKIP_WITHOUT_BLOCK_CACHE();
  constexpr int kBlocks = 100;
  std::uint64_t heap_frees_while_cached = 0;
  bool recycled = true;
  std::uint64_t frees_before_exit = 0;
  std::thread([&] {
    std::vector<void*> blocks;
    for (int i = 0; i < kBlocks; ++i)
      blocks.push_back(block_cache::allocate(64));
    const std::uint64_t before = g_frees.load();
    for (void* block : blocks) block_cache::deallocate(block, 64);
    heap_frees_while_cached = g_frees.load() - before;
    // The same blocks come back, in any order, without the heap.
    for (int i = 0; i < kBlocks; ++i) {
      void* block = block_cache::allocate(64);
      recycled = recycled && std::find(blocks.begin(), blocks.end(), block) !=
                                 blocks.end();
    }
    for (void* block : blocks) block_cache::deallocate(block, 64);
    frees_before_exit = g_frees.load();
  }).join();
  EXPECT_EQ(heap_frees_while_cached, 0u);
  EXPECT_TRUE(recycled);
  EXPECT_GE(g_frees.load() - frees_before_exit,
            static_cast<std::uint64_t>(kBlocks));
}

TEST(BlockCacheTest, FreesPastTheBudgetGoToTheHeap) {
  SKIP_WITHOUT_BLOCK_CACHE();
  constexpr std::size_t kBytes = block_cache::kMaxBlockBytes;
  constexpr std::size_t kFit = block_cache::kBudgetBytes / kBytes;
  constexpr std::size_t kPast = 10;
  std::uint64_t heap_frees = 0;
  std::thread([&] {
    std::vector<void*> blocks;
    for (std::size_t i = 0; i < kFit + kPast; ++i)
      blocks.push_back(block_cache::allocate(kBytes));
    const std::uint64_t before = g_frees.load();
    for (void* block : blocks) block_cache::deallocate(block, kBytes);
    heap_frees = g_frees.load() - before;
  }).join();
  EXPECT_EQ(heap_frees, kPast);
}

// A thread-local object constructed before the thread's first cached free
// is destroyed after the cache's lists were returned to the heap: its free
// must go to the heap too.
struct LateFree {
  void* block = nullptr;
  std::uint64_t* heap_frees = nullptr;
  ~LateFree() {
    if (block == nullptr) return;
    const std::uint64_t before = g_frees.load();
    block_cache::deallocate(block, 64);
    *heap_frees = g_frees.load() - before;
  }
};

TEST(BlockCacheTest, FreesAfterThreadTeardownGoToTheHeap) {
  SKIP_WITHOUT_BLOCK_CACHE();
  std::uint64_t heap_frees = 0;
  std::thread([&] {
    thread_local LateFree late;
    late.block = block_cache::allocate(64);
    late.heap_frees = &heap_frees;
    block_cache::deallocate(block_cache::allocate(64), 64);
  }).join();
  EXPECT_EQ(heap_frees, 1u);
}

TEST(AllocTest, SteadyStateReplayStaysOffTheHeap) {
  SKIP_WITHOUT_BLOCK_CACHE();
  trace::SyntheticSpec synthetic;
  synthetic.pattern = trace::SyntheticPattern::cg;
  synthetic.nprocs = 16;
  synthetic.iterations = 150;
  std::vector<std::vector<trace::Action>> actions;
  for (int p = 0; p < synthetic.nprocs; ++p)
    actions.push_back(trace::expand(trace::synthetic_program(synthetic, p)));

  replay::ScenarioSpec spec;
  spec.platform = std::make_shared<const plat::Platform>(
      plat::make_platform("dragonfly"));
  spec.traces = trace::TraceSet::in_memory(std::move(actions));
  spec.process_hosts =
      plat::resolve_deployment_spec("block", *spec.platform, 16);

  const replay::ReplayReport first = replay::run_scenario_report(spec);
  ASSERT_TRUE(first.ok()) << first.error;

  const std::uint64_t before = g_allocations.load();
  const replay::ReplayReport second = replay::run_scenario_report(spec);
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_EQ(second.sim_time, first.sim_time);

  const auto actions_replayed =
      static_cast<double>(second.result.actions_replayed);
  ASSERT_GT(actions_replayed, 0.0);
  const double per_action = static_cast<double>(allocations) / actions_replayed;
  std::printf("%llu allocations over %.0f actions: %.3f per action\n",
              static_cast<unsigned long long>(allocations), actions_replayed,
              per_action);
  EXPECT_LE(per_action, 0.1);
}

}  // namespace
}  // namespace tir
