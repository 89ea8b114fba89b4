// Ablation: the three on-disk trace representations — text (the paper's
// format), binary (its "future work" §7), and the compact loop-compressed
// program (the "compact trace representations" of the related work [12]) —
// compared on size and on end-to-end replay agreement for a real LU trace.
#include <chrono>
#include <cstdio>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "bench_util.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "trace/binary_format.hpp"
#include "trace/compact.hpp"
#include "trace/text_format.hpp"

using namespace tir;
namespace fs = std::filesystem;

int main() {
  bench::banner("Ablation — text vs binary vs compact trace formats",
                "LU class A on 16 processes");

  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::A;
  cfg.nprocs = 16;
  cfg.iteration_scale = bench::scale();
  const auto workdir = bench::fresh_workdir("abl_compact");
  bench::WorkdirGuard guard(workdir);

  acq::AcquisitionSpec spec;
  spec.app = apps::make_lu_app(cfg);
  spec.workdir = workdir;
  spec.run_uninstrumented_baseline = false;
  const auto report = acq::run_acquisition(spec);

  // Convert every per-process trace into the two alternative formats.
  std::vector<fs::path> binary_files, compact_files;
  std::uint64_t text_bytes = 0, binary_bytes = 0, compact_bytes = 0;
  std::uint64_t compact_blocks = 0;
  for (int p = 0; p < cfg.nprocs; ++p) {
    const auto& text = report.ti_files[static_cast<std::size_t>(p)];
    text_bytes += fs::file_size(text);
    const auto bin = workdir / ("SG_process" + std::to_string(p) + ".btrace");
    binary_bytes += trace::text_to_binary(text, bin);
    binary_files.push_back(bin);
    const auto actions = trace::read_all(text);
    const auto program = trace::compact_actions(actions);
    compact_blocks += program.size();
    const auto cmp = workdir / ("SG_process" + std::to_string(p) + ".ctrace");
    compact_bytes += trace::write_compact(cmp, program, p);
    compact_files.push_back(cmp);
  }

  std::printf("%-10s | %12s | %10s\n", "format", "bytes", "vs text");
  std::printf("%-10s | %12llu | %9.2fx\n", "text",
              static_cast<unsigned long long>(text_bytes), 1.0);
  std::printf("%-10s | %12llu | %9.2fx\n", "binary",
              static_cast<unsigned long long>(binary_bytes),
              static_cast<double>(text_bytes) / binary_bytes);
  std::printf("%-10s | %12llu | %9.2fx  (%llu loop blocks for %llu "
              "actions)\n", "compact",
              static_cast<unsigned long long>(compact_bytes),
              static_cast<double>(text_bytes) / compact_bytes,
              static_cast<unsigned long long>(compact_blocks),
              static_cast<unsigned long long>(report.actions));

  // Replay each representation: the predicted time must be identical.
  plat::Platform target;
  const auto hosts =
      plat::build_cluster(target, plat::bordereau_spec(cfg.nprocs));
  const auto replay_set = [&](const std::vector<fs::path>& files) {
    replay::ScenarioSpec scenario;
    scenario.platform = replay::share_platform(target);
    scenario.process_hosts = hosts;
    scenario.traces = trace::TraceSet::per_process_files(files);
    const auto start = std::chrono::steady_clock::now();
    const double t = replay::run_scenario(scenario).simulated_time;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return std::make_pair(t, wall);
  };
  const auto [t_text, w_text] = replay_set(report.ti_files);
  const auto [t_bin, w_bin] = replay_set(binary_files);
  const auto [t_cmp, w_cmp] = replay_set(compact_files);
  std::printf("\nreplayed time: text %.6f s | binary %.6f s | compact %.6f "
              "s (all equal: %s)\n", t_text, t_bin, t_cmp,
              (t_text == t_bin && t_bin == t_cmp) ? "yes" : "NO");
  std::printf("replay wall:   text %.2f s | binary %.2f s | compact %.2f s\n",
              w_text, w_bin, w_cmp);
  return 0;
}
