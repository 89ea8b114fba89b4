// Ablation: the 3-segment piece-wise linear MPI model (paper §5) against a
// single affine model. Two views:
//   1. Pingpong fidelity: fit both models against measurements generated
//      under the PWL ground truth; the affine fit mispredicts small and
//      mid-size messages.
//   2. End-to-end impact: replay the same LU trace under both network
//      models and report the predicted-time difference.
#include <cstdio>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "bench_util.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "skampi/pingpong.hpp"
#include "skampi/pwl_fit.hpp"
#include "support/stats.hpp"

using namespace tir;

int main() {
  bench::banner("Ablation — piece-wise linear vs affine network model", "");

  // --- 1. pingpong fit quality -------------------------------------------
  plat::Platform truth_platform;
  plat::ClusterSpec spec = plat::bordereau_spec(2);
  const auto hosts = plat::build_cluster(truth_platform, spec);
  // Ground truth: the default PWL cluster model.
  truth_platform.set_net_model(plat::PiecewiseNetModel::default_cluster_model());
  const auto points = skampi::run_pingpong(truth_platform, hosts[0], hosts[1],
                                           skampi::default_sizes(),
                                           /*eager=*/1ull << 40);
  const double nominal_lat = 3 * spec.latency;
  const auto pwl =
      skampi::fit_piecewise_model(points, nominal_lat, spec.bandwidth, 1024,
                                  64 * 1024);
  // Affine: force a single segment over the whole range.
  const auto affine = skampi::fit_piecewise_model(
      points, nominal_lat, spec.bandwidth, 1, 1);
  std::printf("pingpong best-fit SSE:  pwl %.3e   affine %.3e  (lower is "
              "better)\n", pwl.sse, affine.sse);
  std::printf("pwl model: %s\n", pwl.model.describe().c_str());

  // --- 2. end-to-end replay impact ----------------------------------------
  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::A;
  cfg.nprocs = 16;
  cfg.iteration_scale = bench::scale();
  const auto workdir = bench::fresh_workdir("abl_netmodel");
  bench::WorkdirGuard guard(workdir);
  acq::AcquisitionSpec acq_spec;
  acq_spec.app = apps::make_lu_app(cfg);
  acq_spec.workdir = workdir;
  acq_spec.run_uninstrumented_baseline = false;
  const auto r = acq::run_acquisition(acq_spec);
  const auto traces = trace::TraceSet::per_process_files(r.ti_files);

  const auto replay_with = [&](plat::PiecewiseNetModel model) {
    plat::Platform target;
    const auto target_hosts =
        plat::build_cluster(target, plat::bordereau_spec(16));
    target.set_net_model(model);
    replay::ScenarioSpec scenario;
    scenario.platform = replay::share_platform(target);
    scenario.process_hosts = target_hosts;
    scenario.traces = traces;
    return replay::run_scenario(scenario).simulated_time;
  };
  const double t_pwl =
      replay_with(plat::PiecewiseNetModel::default_cluster_model());
  const double t_affine = replay_with(plat::PiecewiseNetModel::affine_model());
  std::printf("\nLU A/16 replay:  pwl model %.3f s   affine model %.3f s   "
              "difference %.1f%%\n", t_pwl, t_affine,
              100.0 * tir::relative_error(t_affine, t_pwl));
  std::printf("\nThe affine model misses the eager-protocol bandwidth "
              "penalty and the rendezvous\nlatency, which the PWL "
              "calibration recovers (paper §5).\n");
  return 0;
}
