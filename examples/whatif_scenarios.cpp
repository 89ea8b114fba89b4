// "What if?" exploration (paper §5): one acquired trace, many target
// platforms — no modification of the simulator, only different inputs.
//
// Acquires an LU class A trace once, then sweeps it against:
//   - the baseline cluster,
//   - CPUs 2x faster,
//   - network 10x faster,
//   - both upgrades,
//   - the ranks folded 2-per-node on half the machines.
//
// Each target is one immutable ScenarioSpec sharing the same decoded trace
// set; SweepRunner replays them on a worker pool and returns each one's
// ReplayReport in scenario order (see src/replay/sweep.hpp).
//
// Run:  ./whatif_scenarios [workdir]
#include <filesystem>
#include <iomanip>
#include <iostream>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "platform/cluster.hpp"
#include "replay/sweep.hpp"
#include "support/units.hpp"

using namespace tir;

namespace {

replay::ScenarioSpec scenario_on(std::string name,
                                 const plat::ClusterSpec& cluster_spec,
                                 int nodes, int nprocs,
                                 const trace::TraceSet& traces) {
  auto platform = std::make_shared<plat::Platform>();
  auto cluster = cluster_spec;
  cluster.count = nodes;
  const auto hosts = plat::build_cluster(*platform, cluster);

  replay::ScenarioSpec spec;
  spec.name = std::move(name);
  spec.platform = std::move(platform);
  const int per_node = (nprocs + nodes - 1) / nodes;
  for (int p = 0; p < nprocs; ++p)
    spec.process_hosts.push_back(hosts[static_cast<std::size_t>(p / per_node)]);
  spec.traces = traces;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path workdir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path() /
                               "tir_whatif";
  std::filesystem::create_directories(workdir);

  apps::LuConfig lu;
  lu.cls = apps::NpbClass::A;
  lu.nprocs = 16;
  lu.iteration_scale = 0.1;

  std::cout << "Acquiring one LU class A / 16-process trace...\n";
  acq::AcquisitionSpec spec;
  spec.app = apps::make_lu_app(lu);
  spec.workdir = workdir;
  spec.run_uninstrumented_baseline = false;
  const auto report = acq::run_acquisition(spec);
  const auto traces = trace::TraceSet::per_process_files(report.ti_files);

  const plat::ClusterSpec base = plat::bordereau_spec(16);
  plat::ClusterSpec fast_cpu = base;
  fast_cpu.power *= 2;
  plat::ClusterSpec fast_net = base;
  fast_net.bandwidth *= 10;
  fast_net.backbone_bandwidth *= 10;
  fast_net.latency /= 10;
  fast_net.backbone_latency /= 10;
  plat::ClusterSpec both = fast_cpu;
  both.bandwidth = fast_net.bandwidth;
  both.backbone_bandwidth = fast_net.backbone_bandwidth;
  both.latency = fast_net.latency;
  both.backbone_latency = fast_net.backbone_latency;

  const std::vector<replay::ScenarioSpec> scenarios = {
      scenario_on("baseline bordereau (16 nodes)", base, 16, 16, traces),
      scenario_on("CPUs 2x faster", fast_cpu, 16, 16, traces),
      scenario_on("network 10x faster", fast_net, 16, 16, traces),
      scenario_on("both upgrades", both, 16, 16, traces),
      scenario_on("folded 2/node on 8 nodes", base, 8, 16, traces),
  };
  const auto results =
      replay::run_sweep(scenarios, {.rethrow_errors = true});

  std::cout << "\nScenario                              predicted time  speedup\n"
            << "--------------------------------------------------------------\n";
  const double baseline = results[0].result.simulated_time;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double predicted = results[i].result.simulated_time;
    std::cout << std::left << std::setw(38) << scenarios[i].name
              << std::setw(15) << units::format_duration(predicted)
              << std::fixed << std::setprecision(2) << baseline / predicted
              << "x\n";
  }
  std::cout << "\nSame trace (decoded once: " << traces.decode_count()
            << " parse passes for " << results.size()
            << " replays), same simulator — only the platform and "
               "deployment inputs changed.\n";
  return 0;
}
