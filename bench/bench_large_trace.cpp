// Large traces, end to end: bounded-memory streaming replay of a synthetic
// 10^8-action NPB-style trace (the ROADMAP scale target), the streamed-vs-
// materialised overhead on an in-RAM trace, and the paper's §6.5
// acquisition run (LU class D on 1,024 processes, folded 8-per-node).
//
// Phase 1 — streaming replay. A CG-pattern compact trace (8 ranks, the
//   iteration loop stored as one TIRC repeat block, so the file is a few
//   hundred bytes however many actions it expands to) is replayed with
//   DecodePolicy::stream. The assertion the subsystem hangs on: peak RSS stays
//   under 512 MiB however large the logical trace is. Runs FIRST so the
//   process-wide VmHWM reflects only this phase.
//   Scale: TIR_SCALE=0.1 (default) -> 10^7 actions, TIR_FULL=1 -> 10^8;
//   TIR_STREAM_ACTIONS=<n> overrides directly (recording the full-scale
//   number without dragging phase 3 to full scale).
// Phase 2 — streaming overhead. An in-RAM-sized text trace replayed under
//   both decode policies: reports must be bit-identical. The streamed /
//   materialised wall-time ratio is printed, not asserted: on a shared host
//   it swings past any fixed bound from scheduler noise alone, and timing
//   comparisons belong to the repository benchmark (perfbench/).
// Phase 3 — §6.5 acquisition. Paper numbers (full run): < 25 min to
//   acquire; TI trace 32.5 GiB, 7.8x smaller than the 252.5 GiB TAU
//   trace; 1.2 GiB gzip'd. The default run executes 2 of 300 iterations
//   and extrapolates the sizes (linear in the iteration count). Asserted:
//   the TAU / TI ratio stays in [6.5, 9.0] (7.14 here), and the binary TI
//   trace, which stands in for the gzip'd one, is under half the text TI
//   size (25.5 vs 136 MiB at the default fraction). Printed beside the
//   simulated and modeled times: the wall seconds of the instrumented
//   execution and of the extraction, where this phase spends its time.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "bench_util.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "support/units.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"

using namespace tir;

namespace {

/// Peak resident set (VmHWM) from /proc/self/status, in bytes; 0 when
/// unavailable (non-Linux), which disables the RSS assertion.
std::uint64_t peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::uint64_t kb = 0;
    std::sscanf(line.c_str(), "VmHWM: %llu",
                reinterpret_cast<unsigned long long*>(&kb));
    return kb * 1024;
  }
  return 0;
}

replay::ScenarioSpec cluster_scenario(int nprocs, trace::TraceSet traces) {
  auto platform = std::make_shared<plat::Platform>();
  const auto hosts =
      plat::build_cluster(*platform, plat::bordereau_spec(nprocs));
  replay::ScenarioSpec spec;
  spec.name = "large-trace";
  spec.platform = platform;
  spec.process_hosts = hosts;
  spec.traces = std::move(traces);
  return spec;
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

int fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  return 1;
}

}  // namespace

int main() {
  const double scale = bench::scale();
  constexpr int kRanks = 8;
  constexpr std::uint64_t kPerIteration = 5;  // CG pattern

  // Phase-1 logical size: 10^8 actions at full scale, scaled down but
  // never below 10^6 so the streaming path is always genuinely exercised.
  std::uint64_t target_actions = static_cast<std::uint64_t>(1e8 * scale);
  if (target_actions < 1'000'000) target_actions = 1'000'000;
  if (const char* env = std::getenv("TIR_STREAM_ACTIONS"))
    target_actions = std::strtoull(env, nullptr, 0);

  bench::banner("Large traces — streaming replay (10^8-action target) and "
                "the Section 6.5 acquisition",
                "scale " + std::to_string(scale) + "\nbuild " TIR_BUILD_TYPE
                ", compiler " __VERSION__ ", " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    " hardware thread(s)");

  const auto workdir = bench::fresh_workdir("large_trace");
  bench::WorkdirGuard guard(workdir);

  // -------------------------------------------------------------------
  // Phase 1: bounded-memory streaming replay of a huge compact trace.
  // -------------------------------------------------------------------
  trace::SyntheticSpec syn;
  syn.pattern = trace::SyntheticPattern::cg;
  syn.nprocs = kRanks;
  syn.iterations =
      (target_actions / kRanks + kPerIteration - 1) / kPerIteration;
  const auto files = trace::write_synthetic_traces(workdir / "stream", syn);
  const std::uint64_t actions = trace::synthetic_actions(syn);
  std::uint64_t disk_bytes = 0;
  for (const auto& f : files)
    disk_bytes += std::filesystem::file_size(f);

  auto streamed_set = trace::TraceSet::per_process_files(
      files, trace::DecodeMode::strict, trace::DecodePolicy::stream);
  const auto t0 = std::chrono::steady_clock::now();
  const auto streamed =
      replay::run_scenario_report(cluster_scenario(kRanks, streamed_set));
  const double stream_wall = bench::seconds_since(t0);
  const std::uint64_t peak = peak_rss_bytes();

  std::printf("\nphase 1 — streaming replay (CG pattern, %d ranks)\n",
              kRanks);
  std::printf("logical actions:          %" PRIu64 " (%.1fM)\n", actions,
              actions / 1e6);
  std::printf("compact trace on disk:    %s\n",
              units::format_bytes(static_cast<double>(disk_bytes)).c_str());
  std::printf("materialised would be:    %s\n",
              units::format_bytes(static_cast<double>(actions) *
                                  sizeof(trace::PackedAction)).c_str());
  std::printf("index resident bytes:     %s\n",
              units::format_bytes(
                  static_cast<double>(streamed_set.resident_bytes()))
                  .c_str());
  std::printf("replay wall time:         %.2f s (%.2fM actions/s)\n",
              stream_wall, actions / stream_wall / 1e6);
  std::printf("simulated time:           %.4f s\n",
              streamed.result.simulated_time);
  std::printf("peak RSS (VmHWM):         %s (bound: 512 MiB)\n",
              units::format_bytes(static_cast<double>(peak)).c_str());
  if (streamed.status != replay::ReplayStatus::ok)
    return fail("streaming replay did not complete");
  if (streamed.result.actions_replayed != actions)
    return fail("streaming replay lost actions");
  if (peak != 0 && peak > 512ull << 20)
    return fail("peak RSS exceeded the 512 MiB bound");

  // -------------------------------------------------------------------
  // Phase 2: streamed-vs-materialised overhead on an in-RAM trace.
  // -------------------------------------------------------------------
  trace::SyntheticSpec ram;
  ram.pattern = trace::SyntheticPattern::cg;
  ram.nprocs = kRanks;
  ram.iterations = 25'000;  // ~10^6 actions: comfortably in RAM
  const auto ram_files =
      trace::write_synthetic_traces(workdir / "ram", ram, "text");
  const std::uint64_t ram_actions = trace::synthetic_actions(ram);

  // Best of three per policy: the ratio is about decode overhead, not
  // scheduler noise, so take the cleanest run of each.
  double wall[2] = {0.0, 0.0};
  replay::ReplayReport reports[2];
  const trace::DecodePolicy policies[2] = {trace::DecodePolicy::materialise,
                                           trace::DecodePolicy::stream};
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < 2; ++i) {
      auto set = trace::TraceSet::per_process_files(
          ram_files, trace::DecodeMode::strict, policies[i]);
      const auto t1 = std::chrono::steady_clock::now();
      auto report =
          replay::run_scenario_report(cluster_scenario(kRanks, std::move(set)));
      const double w = bench::seconds_since(t1);
      if (rep == 0 || w < wall[i]) wall[i] = w;
      reports[i] = std::move(report);
    }
  }
  const double ratio = wall[1] / wall[0];
  std::printf("\nphase 2 — decode overhead (text codec, %.1fM actions, "
              "in RAM)\n", ram_actions / 1e6);
  std::printf("materialised replay:      %.2f s (decode + replay)\n",
              wall[0]);
  std::printf("streamed replay:          %.2f s\n", wall[1]);
  std::printf("stream / materialise:     %.2fx\n", ratio);
  if (reports[0].status != replay::ReplayStatus::ok ||
      reports[1].status != replay::ReplayStatus::ok)
    return fail("overhead replay did not complete");
  if (!bit_equal(reports[0].result.simulated_time,
                 reports[1].result.simulated_time) ||
      reports[0].result.actions_replayed !=
          reports[1].result.actions_replayed)
    return fail("streamed report differs from materialised");

  // -------------------------------------------------------------------
  // Phase 3: the paper's Section 6.5 acquisition (class D, 1024 ranks,
  // mode F-8). Class D at 1,024 ranks is ~150x a class B/64 run: keep
  // the default fraction small (2 of 300 iterations) and extrapolate.
  // -------------------------------------------------------------------
  const double lu_scale = scale >= 1.0 ? 1.0 : 2.0 / 300.0;
  std::printf("\nphase 3 — Section 6.5 acquisition (class D, 1024 "
              "processes, mode F-8; iteration fraction %g)\n", lu_scale);

  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::D;
  cfg.nprocs = 1024;
  cfg.iteration_scale = lu_scale;

  acq::AcquisitionSpec spec;
  spec.app = apps::make_lu_app(cfg);
  spec.mode = acq::Mode::folding;
  spec.folding = 8;  // 1024 ranks on 128 cores of 32 nodes, as in §6.5
  spec.workdir = workdir / "acq";
  std::filesystem::create_directories(spec.workdir);
  spec.run_uninstrumented_baseline = false;
  const auto r = acq::run_acquisition(spec);

  const double extrapolate =
      static_cast<double>(apps::lu_iterations(cfg.cls)) / cfg.iterations();
  std::printf("nodes used:               %d (folding factor 8)\n",
              r.nodes_used);
  std::printf("instrumented execution:   %s simulated, %.2f s wall\n",
              units::format_duration(r.instrumented_time).c_str(),
              r.instrumented_wall);
  std::printf("extraction + gathering:   %s + %s modeled; extraction %.2f s "
              "wall\n",
              units::format_duration(r.extraction_time).c_str(),
              units::format_duration(r.gather_time).c_str(),
              r.extraction_wall);
  std::printf("actions:                  %.1fM (full run: %.0fM)\n",
              r.actions / 1e6, r.actions / 1e6 * extrapolate);
  std::printf("TAU trace:                %s (full run: %s; paper: 252.5 "
              "GiB)\n",
              units::format_bytes(static_cast<double>(r.tau_bytes)).c_str(),
              units::format_bytes(r.tau_bytes * extrapolate).c_str());
  std::printf("TI trace:                 %s (full run: %s; paper: 32.5 "
              "GiB)\n",
              units::format_bytes(static_cast<double>(r.ti_bytes)).c_str(),
              units::format_bytes(r.ti_bytes * extrapolate).c_str());
  const double tau_ti_ratio = static_cast<double>(r.tau_bytes) / r.ti_bytes;
  std::printf("TAU / TI size ratio:      %.2f (paper: 7.8)\n", tau_ti_ratio);

  // The paper compresses the TI trace with gzip (1.2 GiB); our binary
  // trace format (the paper's "future work") plays the same role.
  std::uint64_t binary_bytes = 0;
  for (std::size_t p = 0; p < std::min<std::size_t>(r.ti_files.size(), 64);
       ++p) {
    const auto out = spec.workdir / ("bin" + std::to_string(p));
    binary_bytes += trace::convert_trace(
        trace::TraceSet::per_process_files({r.ti_files[p]}), 0, out,
        trace::TraceFormat::binary);
  }
  const double sampled_fraction =
      std::min<std::size_t>(r.ti_files.size(), 64) /
      static_cast<double>(r.ti_files.size());
  const double binary_total = binary_bytes / sampled_fraction;
  std::printf("binary TI format:         %s (full run: %s; paper gzip: "
              "1.2 GiB)\n",
              units::format_bytes(binary_total).c_str(),
              units::format_bytes(binary_total * extrapolate).c_str());

  // The §6.5 shape: TI stays several times smaller than TAU, and the
  // binary encoding at least halves the text TI trace. Every size scales
  // linearly with the iteration count, so the full-run extrapolations keep
  // these ratios.
  if (tau_ti_ratio < 6.5 || tau_ti_ratio > 9.0)
    return fail("TAU / TI size ratio left [6.5, 9.0] around the paper's 7.8");
  if (binary_total >= 0.5 * static_cast<double>(r.ti_bytes))
    return fail("binary TI trace is not under half the text TI size");
  return 0;
}
