// Monte-Carlo sweep throughput: a 1000-replica perturbed LU replay through
// the MC driver, with the determinism and sensitivity acceptance checks.
//
// The paper's replay emits one deterministic makespan per calibration; the
// perturbation engine turns that point into a distribution (mean / stddev /
// 95% CI) plus a per-resource sensitivity ranking. This bench records how
// fast the replica fan-out runs at scale and enforces the acceptance bars:
//   * the summary is bit-identical across seeds-equal runs regardless of
//     worker count, and
//   * the top sensitivity target is the host the obs critical path blames
//     (here rigged: one host carries two LU ranks, everyone else one).
// Replica count scales with TIR_SCALE (1000 at the default 0.1).
#include <chrono>
#include <cstdio>
#include <cstring>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "bench_util.hpp"
#include "obs/report.hpp"
#include "platform/cluster.hpp"
#include "replay/montecarlo.hpp"

using namespace tir;
using namespace tir::replay;

int main() {
  const double scale = bench::scale();
  const int nprocs = 8;
  const int replicas =
      std::max(8, static_cast<int>(1000.0 * std::min(1.0, scale * 10.0)));

  bench::banner("Monte-Carlo sweep — perturbed LU replicas through tir-mc's "
                "driver",
                std::to_string(replicas) + " replicas, LU class S on " +
                    std::to_string(nprocs) + " ranks, iteration fraction " +
                    std::to_string(scale));

  // Acquire an LU class-S time-independent trace once.
  const auto workdir = bench::fresh_workdir("mc_sweep");
  bench::WorkdirGuard guard(workdir);
  apps::LuConfig lu;
  lu.cls = apps::NpbClass::S;
  lu.nprocs = nprocs;
  lu.iteration_scale = scale;
  acq::AcquisitionSpec acq_spec;
  acq_spec.app = apps::make_lu_app(lu);
  acq_spec.mode = acq::Mode::regular;
  acq_spec.workdir = workdir;
  acq_spec.run_uninstrumented_baseline = false;
  const auto acquired = acq::run_acquisition(acq_spec);

  // Deploy 8 ranks onto 7 hosts: the last host carries ranks 6 and 7, so
  // its timesharing stretches the tail of the wavefront — the critical
  // path and the top sensitivity target must both land on it.
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts =
      plat::build_cluster(*platform, plat::bordereau_spec(nprocs - 1));
  std::vector<int> process_hosts;
  for (int rank = 0; rank < nprocs; ++rank)
    process_hosts.push_back(
        hosts[static_cast<std::size_t>(std::min(rank, nprocs - 2))]);

  ScenarioSpec spec;
  spec.name = "lu-S-mc";
  spec.platform = platform;
  spec.process_hosts = process_hosts;
  spec.traces = trace::TraceSet::per_process_files(acquired.ti_files);

  // Where does the deterministic critical path run? Aggregate the per-rank
  // path attribution onto hosts — the hot *resource* is what the MC
  // sensitivity ranking must reproduce.
  auto observed = spec;
  observed.config.record_spans = true;
  const auto baseline_run = run_scenario(observed);
  const obs::TimelineReport report = obs::analyze(*baseline_run.spans);
  std::vector<double> host_path_seconds(platform->host_count(), 0.0);
  for (std::size_t r = 0; r < report.path_rank_seconds.size(); ++r)
    host_path_seconds[static_cast<std::size_t>(process_hosts[r])] +=
        report.path_rank_seconds[r];
  int hot_host = 0;
  for (std::size_t h = 1; h < host_path_seconds.size(); ++h)
    if (host_path_seconds[h] > host_path_seconds[static_cast<std::size_t>(
            hot_host)])
      hot_host = static_cast<int>(h);
  std::printf("critical path: hot rank %d, hot host id %d (%.4g of %.4g s "
              "path time)\n",
              report.hot_rank(), hot_host,
              host_path_seconds[static_cast<std::size_t>(hot_host)],
              baseline_run.simulated_time);

  PerturbSpec perturb;
  perturb.host_noise = 0.08;
  perturb.link_bw_noise = 0.03;

  McOptions opts;
  opts.replicas = replicas;
  opts.seed = 42;

  const auto t0 = std::chrono::steady_clock::now();
  const McSummary summary = run_monte_carlo(spec, perturb, opts);
  const double elapsed = bench::seconds_since(t0);

  McOptions serial = opts;
  serial.workers = 1;
  const McSummary check = run_monte_carlo(spec, perturb, serial);

  std::printf("\n%s\n", summary.render(5).c_str());
  std::printf("%-28s %10.3f s\n", "wall-clock:", elapsed);
  std::printf("%-28s %10.1f replicas/s\n", "throughput:",
              elapsed > 0 ? replicas / elapsed : 0.0);

  const bool deterministic =
      std::memcmp(&summary.mean, &check.mean, sizeof summary.mean) == 0 &&
      std::memcmp(&summary.stddev, &check.stddev, sizeof summary.stddev) == 0;
  std::printf("%-28s %10s\n", "deterministic given seed:",
              deterministic ? "yes" : "NO");
  if (!deterministic) return 1;
  if (summary.failures > 0) {
    std::printf("FAIL: %d replica(s) failed\n", summary.failures);
    return 1;
  }
  if (summary.sensitivity.empty()) {
    std::printf("FAIL: empty sensitivity ranking\n");
    return 1;
  }
  const SensitivityEntry& top = summary.sensitivity.front();
  std::printf("%-28s %10s (impact %.3g s)\n", "top sensitivity:",
              top.name.c_str(), top.impact);
  if (top.kind != FaultSpec::Kind::host || top.id != hot_host) {
    std::printf("FAIL: top sensitivity %s id %d, critical path blames host "
                "id %d\n",
                top.kind == FaultSpec::Kind::host ? "host" : "link", top.id,
                hot_host);
    return 1;
  }
  std::printf("\nOK\n");
  return 0;
}
