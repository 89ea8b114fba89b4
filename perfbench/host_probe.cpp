// Host speed probe: a fixed amount of work, written here and sharing no code
// with the repository, so no change to the program can move it.
//
// On a shared host the speed of one core swings by tens of percent over
// minutes (other tenants on the same physical core and cache), and every
// timing in a run swings with it. The probe does the kinds of work a replay
// does, so that it slows by about the same factor: integer and
// floating-point arithmetic, an event heap with dependent loads and hash
// lookups over about a MiB, and a memchr line scan over a few MiB (the text
// cursors' inner loop). The benchmark runs it between measured stretches and
// rescales each stretch to the reference probe time (see workloads.cpp). A
// workload that keeps several threads busy probes on as many threads at once,
// since the cores they land on need not be equally loaded.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13, x ^= x >> 7, x ^= x << 17;
  return x;
}

class ProbeWork {
 public:
  ProbeWork() {
    constexpr std::uint32_t kSlots = 1u << 17;  // 512 KiB dependent chain
    std::vector<std::uint32_t> order(kSlots);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    for (std::uint32_t i = kSlots - 1; i > 0; --i)
      std::swap(order[i], order[xorshift(x) % (i + 1)]);
    chain_.resize(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i)
      chain_[order[i]] = order[(i + 1) % kSlots];
    for (std::uint64_t k = 0; k < kKeys; ++k) table_[k * kSpread] = k;
    for (std::uint32_t i = 0; i < 4096; ++i) heap_.emplace(i * 1e-3, i);
    text_.resize(4u << 20);
    for (std::size_t i = 0; i < text_.size(); ++i)
      text_[i] = i % 61 == 60 ? '\n' : static_cast<char>('a' + i % 26);
  }

  /// One pass over the three kinds of work; returns a value that depends
  /// on all of it, so none is optimised away.
  std::uint64_t pass() {
    std::uint64_t acc = 0, x = 88172645463325252ULL;
    double f = 1.0;
    for (int i = 0; i < 600'000; ++i) {
      acc += xorshift(x) % 1000003;
      f = f * 0.999 + 1.0 / (1.0 + static_cast<double>(x & 1023));
    }
    std::uint32_t at = 0;
    for (int i = 0; i < 60'000; ++i) {
      const auto [t, id] = heap_.top();
      heap_.pop();
      at = chain_[at ^ (id & 63)];
      acc += table_.find((at % kKeys) * kSpread)->second;
      heap_.emplace(t + 1.0 / (1.0 + (at & 1023)), id);
    }
    const char* const end = text_.data() + text_.size();
    for (const char* p = text_.data(); p < end; ++acc) {
      const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
      if (nl == nullptr) break;
      p = static_cast<const char*>(nl) + 1;
    }
    return acc + at + static_cast<std::uint64_t>(f);
  }

 private:
  static constexpr std::uint64_t kKeys = 1u << 14;
  static constexpr std::uint64_t kSpread = 0x2545f491ULL;
  std::vector<std::uint32_t> chain_;
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  std::priority_queue<std::pair<double, std::uint32_t>,
                      std::vector<std::pair<double, std::uint32_t>>,
                      std::greater<>>
      heap_;
  std::vector<char> text_;
};

/// One ProbeWork per probe thread, built by host_probe_build().
std::vector<std::unique_ptr<ProbeWork>> g_work;

}  // namespace

std::atomic<std::uint64_t> g_probe_sink{0};  // keeps every result observable

double host_probe_build(int threads) {
  const double before = resident_mib();
  g_work.clear();
  for (int i = 0; i < threads; ++i)
    g_work.push_back(std::make_unique<ProbeWork>());
  return std::max(0.0, resident_mib() - before);
}

double host_probe_seconds() {
  constexpr int kPasses = 12;  // about 150 ms on the reference host
  std::vector<double> seconds(g_work.size());
  const auto run = [&](std::size_t i) {
    const auto t0 = Clock::now();
    std::uint64_t sink = 0;
    for (int pass = 0; pass < kPasses; ++pass) sink += g_work[i]->pass();
    seconds[i] = seconds_since(t0) / kPasses;
    g_probe_sink += sink;
  };
  std::vector<std::thread> others;
  for (std::size_t i = 1; i < g_work.size(); ++i) others.emplace_back(run, i);
  run(0);
  for (auto& t : others) t.join();
  double total = 0.0;
  for (const double s : seconds) total += s;
  return total / static_cast<double>(seconds.size());
}

}  // namespace perfbench
