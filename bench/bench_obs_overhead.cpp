// Observability overhead: replaying the Figure 9 LU B/64 instance with the
// span recorder off, on, and in activity-detail mode. The acceptance bar
// for the subsystem is that the *disabled* recorder costs nothing
// measurable (< 2% — it is one null-pointer branch per operation) and the
// enabled recorder stays cheap enough to leave on during sweeps.
#include <algorithm>
#include <cstdio>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "bench_util.hpp"
#include "platform/cluster.hpp"
#include "replay/scenario.hpp"

using namespace tir;

namespace {

double replay_seconds(const plat::Platform& platform,
                      const std::vector<int>& hosts,
                      const trace::TraceSet& traces,
                      const replay::ReplayConfig& config, int reps,
                      std::uint64_t* spans_out) {
  replay::ScenarioSpec scenario;
  scenario.platform = replay::share_platform(platform);
  scenario.process_hosts = hosts;
  scenario.traces = traces;
  scenario.config = config;
  return bench::best_of(reps, [&] {
    const auto result = replay::run_scenario(scenario);
    *spans_out = result.spans ? result.spans->total_spans() : 0;
  });
}

}  // namespace

int main() {
  const double scale = bench::scale();
  bench::banner("Observability overhead — LU B/64 replay, recorder modes",
                "iteration fraction " + std::to_string(scale) +
                    "; best of 3 runs per mode");

  apps::LuConfig cfg;
  cfg.cls = apps::NpbClass::B;
  cfg.nprocs = 64;
  cfg.iteration_scale = scale;

  const auto workdir = bench::fresh_workdir("obs_overhead");
  bench::WorkdirGuard guard(workdir);
  acq::AcquisitionSpec spec;
  spec.app = apps::make_lu_app(cfg);
  spec.mode = acq::Mode::folding;
  spec.folding = 8;
  spec.workdir = workdir;
  spec.run_uninstrumented_baseline = false;
  const auto acquired = acq::run_acquisition(spec);

  plat::Platform platform;
  const auto hosts =
      plat::build_cluster(platform, plat::bordereau_spec(cfg.nprocs));
  const auto traces = trace::TraceSet::per_process_files(acquired.ti_files);
  (void)traces.stats();  // decode once, outside the timed region

  struct Mode {
    const char* name = "";
    replay::ReplayConfig config;
  };
  Mode modes[3];
  modes[0].name = "off";
  modes[1].name = "spans";
  modes[1].config.record_spans = true;
  modes[2].name = "detail";
  modes[2].config.record_spans = true;
  modes[2].config.span_activity_detail = true;

  {  // warm-up: touch the decoded actions and the allocator once, untimed
    std::uint64_t spans = 0;
    (void)replay_seconds(platform, hosts, traces, modes[0].config, 1, &spans);
  }

  std::printf("%-8s | %10s %10s %12s\n", "recorder", "replay (s)",
              "vs off", "spans");
  double baseline = 0.0;
  for (const Mode& mode : modes) {
    std::uint64_t spans = 0;
    const double secs =
        replay_seconds(platform, hosts, traces, mode.config, 3, &spans);
    if (baseline == 0.0) baseline = secs;
    std::printf("%-8s | %10.3f %+9.2f%% %12llu\n", mode.name, secs,
                100.0 * (secs - baseline) / baseline,
                static_cast<unsigned long long>(spans));
    std::fflush(stdout);
  }
  return 0;
}
